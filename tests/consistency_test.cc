// Isotonic regression (PAVA) — the Section 5.4.2 consistency step.

#include <gtest/gtest.h>

#include "mech/consistency.h"
#include "rng/rng.h"

namespace blowfish {
namespace {

// Brute-force L2 projection onto non-decreasing sequences via convex
// projection with a fine grid search over small inputs (projected
// gradient on the isotonic cone).
Vector BruteForceIsotonic(const Vector& y, size_t iterations = 200000) {
  Vector z = y;
  std::sort(z.begin(), z.end());  // feasible start
  const double lr = 1e-3;
  for (size_t it = 0; it < iterations; ++it) {
    for (size_t i = 0; i < z.size(); ++i) z[i] -= lr * (z[i] - y[i]);
    // project: one pass of pooling adjacent violators approximately
    for (size_t i = 1; i < z.size(); ++i) {
      if (z[i] < z[i - 1]) {
        const double m = 0.5 * (z[i] + z[i - 1]);
        z[i] = m;
        z[i - 1] = m;
      }
    }
  }
  return z;
}

TEST(Isotonic, AlreadyMonotoneUnchanged) {
  const Vector y{1.0, 2.0, 2.0, 5.0};
  EXPECT_EQ(IsotonicRegression(y), y);
}

TEST(Isotonic, SimplePooling) {
  // Classic example: {3, 1} pools to {2, 2}.
  EXPECT_EQ(IsotonicRegression({3.0, 1.0}), (Vector{2.0, 2.0}));
}

TEST(Isotonic, OutputIsMonotone) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    Vector y(30);
    for (double& v : y) v = rng.Normal(0.0, 10.0);
    const Vector z = IsotonicRegression(y);
    for (size_t i = 1; i < z.size(); ++i) EXPECT_LE(z[i - 1], z[i] + 1e-12);
  }
}

TEST(Isotonic, PreservesMean) {
  // The projection pools blocks to their averages, so the total is
  // preserved.
  Rng rng(2);
  Vector y(25);
  for (double& v : y) v = rng.Normal();
  const Vector z = IsotonicRegression(y);
  double sy = 0.0, sz = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    sy += y[i];
    sz += z[i];
  }
  EXPECT_NEAR(sy, sz, 1e-9);
}

TEST(Isotonic, NeverWorseThanInputInL2) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    Vector truth(20);
    double acc = 0.0;
    for (double& v : truth) {
      acc += rng.Uniform();
      v = acc;  // monotone ground truth (like prefix sums)
    }
    Vector noisy = truth;
    for (double& v : noisy) v += rng.Laplace(2.0);
    const Vector projected = IsotonicRegression(noisy);
    double err_noisy = 0.0, err_proj = 0.0;
    for (size_t i = 0; i < truth.size(); ++i) {
      err_noisy += (noisy[i] - truth[i]) * (noisy[i] - truth[i]);
      err_proj += (projected[i] - truth[i]) * (projected[i] - truth[i]);
    }
    // Projection onto a convex set containing the truth cannot increase
    // L2 distance to the truth.
    EXPECT_LE(err_proj, err_noisy + 1e-9);
  }
}

TEST(Isotonic, MatchesGradientProjectionOnSmallInputs) {
  const Vector y{2.0, -1.0, 0.5, 0.4, 3.0};
  const Vector pava = IsotonicRegression(y);
  const Vector brute = BruteForceIsotonic(y);
  for (size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(pava[i], brute[i], 0.02);
}

TEST(Isotonic, WeightedPoolsByWeight) {
  // Two violating points with weights 3 and 1 pool at the weighted
  // mean (3*4 + 1*0)/4 = 3.
  const Vector z = IsotonicRegressionWeighted({4.0, 0.0}, {3.0, 1.0});
  EXPECT_NEAR(z[0], 3.0, 1e-12);
  EXPECT_NEAR(z[1], 3.0, 1e-12);
}

TEST(Isotonic, ClampedVariant) {
  const Vector z = IsotonicRegressionClamped({-5.0, 10.0}, 0.0, 6.0);
  EXPECT_DOUBLE_EQ(z[0], 0.0);
  EXPECT_DOUBLE_EQ(z[1], 6.0);
}

TEST(Isotonic, EmptyAndSingleton) {
  EXPECT_TRUE(IsotonicRegression({}).empty());
  EXPECT_EQ(IsotonicRegression({7.0}), (Vector{7.0}));
}

TEST(IsotonicDeath, RejectsNonPositiveWeights) {
  EXPECT_DEATH(IsotonicRegressionWeighted({1.0}, {0.0}), "CHECK failed");
}

TEST(Isotonic, UnweightedIsBitIdenticalToUnitWeights) {
  // Noisy prefix sums, as the tree plan's consistency step sees them:
  // the unweighted pooling must reproduce unit-weight PAVA bit for bit.
  const size_t k = 4096;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    Vector y(k);
    double prefix = 0.0;
    for (double& v : y) {
      prefix += static_cast<double>(rng.UniformInt(0, 3));
      v = prefix + rng.Laplace(8.0);
    }
    EXPECT_EQ(IsotonicRegression(y), IsotonicRegressionWeighted(y, Vector(k, 1.0)))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace blowfish
