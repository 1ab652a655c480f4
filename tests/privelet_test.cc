// Privelet / Haar wavelet mechanism (the paper's best data-independent
// ε-DP baseline for range queries, cited as [20]).

#include <cmath>

#include <gtest/gtest.h>

#include "mech/error.h"
#include "mech/privelet.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

TEST(Haar, ForwardInverseRoundTrip) {
  Vector v{4.0, 2.0, 5.0, 7.0, 1.0, 0.0, 3.0, 3.0};
  const Vector original = v;
  HaarForward(&v);
  HaarInverse(&v);
  for (size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], original[i], 1e-12);
}

TEST(Haar, BaseCoefficientIsAverage) {
  Vector v{1.0, 3.0, 5.0, 7.0};
  HaarForward(&v);
  EXPECT_DOUBLE_EQ(v[0], 4.0);
}

TEST(Haar, CoefficientChangeUnderUnitLeafChange) {
  // Changing one leaf by +1 changes the base coefficient by 1/n and
  // the height-ℓ ancestor by 1/2^ℓ — the sensitivity facts behind the
  // generalized weights.
  const size_t n = 16;
  Vector a(n, 0.0), b(n, 0.0);
  b[5] += 1.0;
  HaarForward(&a);
  HaarForward(&b);
  const Vector weights = HaarWeights(n);
  double weighted = 0.0;
  for (size_t i = 0; i < n; ++i) {
    weighted += weights[i] * std::fabs(b[i] - a[i]);
  }
  // Generalized sensitivity = h + 1 = 5 for n = 16.
  EXPECT_NEAR(weighted, 5.0, 1e-12);
}

TEST(Haar, WeightsLayout) {
  const Vector w = HaarWeights(8);
  EXPECT_DOUBLE_EQ(w[0], 8.0);  // base
  EXPECT_DOUBLE_EQ(w[1], 8.0);  // height-3 root difference
  EXPECT_DOUBLE_EQ(w[2], 4.0);
  EXPECT_DOUBLE_EQ(w[3], 4.0);
  for (size_t i = 4; i < 8; ++i) EXPECT_DOUBLE_EQ(w[i], 2.0);
}

TEST(Privelet, GeneralizedSensitivity) {
  EXPECT_DOUBLE_EQ(PriveletMechanism(DomainShape({16})).GeneralizedSensitivity(),
                   5.0);
  EXPECT_DOUBLE_EQ(
      PriveletMechanism(DomainShape({16, 16})).GeneralizedSensitivity(), 25.0);
  // Non-power-of-two pads up: 100 -> 128, h+1 = 8.
  EXPECT_DOUBLE_EQ(PriveletMechanism(DomainShape({100})).GeneralizedSensitivity(),
                   8.0);
}

TEST(Privelet, UnbiasedPointEstimates) {
  const size_t k = 32;
  PriveletMechanism mech((DomainShape({k})));
  Vector x(k);
  for (size_t i = 0; i < k; ++i) x[i] = static_cast<double>(i % 7);
  Rng rng(5);
  Vector mean(k, 0.0);
  const size_t trials = 4000;
  for (size_t t = 0; t < trials; ++t) {
    const Vector est = mech.Run(x, 1.0, &rng);
    for (size_t i = 0; i < k; ++i) mean[i] += est[i] / trials;
  }
  for (size_t i = 0; i < k; ++i) EXPECT_NEAR(mean[i], x[i], 1.5);
}

TEST(Privelet, RangeErrorPolylogInDomain) {
  // O(log³k/ε²) per range: going from k=64 to k=4096 (6x the log)
  // should grow error far less than the 64x domain growth.
  Rng qrng(9);
  Vector err;
  for (size_t k : {64u, 4096u}) {
    const DomainShape domain({k});
    const RangeWorkload w = RandomRanges(domain, 400, &qrng);
    Vector x(k, 1.0);
    PriveletMechanism mech{domain};
    const ErrorStats stats = MeasureError(
        [&](const Vector& db, double e, Rng* rng) {
          return mech.Run(db, e, rng);
        },
        w, x, 1.0, 8, 11);
    err.push_back(stats.mean);
  }
  EXPECT_LT(err[1] / err[0], 40.0);
  EXPECT_GT(err[1] / err[0], 1.0);
}

TEST(Privelet, TwoDimensionalRoundTripWithoutNoise) {
  // The 2D transform pipeline must be exactly invertible; verify by
  // checking unbiasedness at very high epsilon (noise ~ 0).
  const DomainShape domain({8, 8});
  PriveletMechanism mech{domain};
  Vector x(64);
  for (size_t i = 0; i < 64; ++i) x[i] = static_cast<double>(i);
  Rng rng(3);
  const Vector est = mech.Run(x, 1e9, &rng);
  for (size_t i = 0; i < 64; ++i) EXPECT_NEAR(est[i], x[i], 1e-5);
}

TEST(Privelet, NonPowerOfTwoDomainPreservesLogicalCells) {
  const DomainShape domain({10});
  PriveletMechanism mech{domain};
  Vector x{5, 4, 3, 2, 1, 1, 2, 3, 4, 5};
  Rng rng(4);
  const Vector est = mech.Run(x, 1e9, &rng);
  ASSERT_EQ(est.size(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_NEAR(est[i], x[i], 1e-5);
}

// ---- reference walk ------------------------------------------------
// PriveletMechanism::Run as it was written before the block walk: each
// line start is found by a per-cell coordinate test, every line gets
// fresh stride and line vectors, and each Haar call its own temporary.
// The block walk must reproduce it bit for bit.

void ReferenceHaarForward(Vector* v) {
  const size_t n = v->size();
  Vector tmp(n);
  for (size_t m = n; m > 1; m /= 2) {
    const size_t half = m / 2;
    for (size_t j = 0; j < half; ++j) {
      const double a = (*v)[2 * j];
      const double b = (*v)[2 * j + 1];
      tmp[j] = 0.5 * (a + b);
      tmp[half + j] = 0.5 * (a - b);
    }
    for (size_t j = 0; j < m; ++j) (*v)[j] = tmp[j];
  }
}

void ReferenceHaarInverse(Vector* v) {
  const size_t n = v->size();
  Vector tmp(n);
  for (size_t m = 2; m <= n; m *= 2) {
    const size_t half = m / 2;
    for (size_t j = 0; j < half; ++j) {
      const double avg = (*v)[j];
      const double diff = (*v)[half + j];
      tmp[2 * j] = avg + diff;
      tmp[2 * j + 1] = avg - diff;
    }
    for (size_t j = 0; j < m; ++j) (*v)[j] = tmp[j];
  }
}

template <typename Fn>
void ReferenceForEachLine(Vector* data, const std::vector<size_t>& dims,
                          size_t axis, Fn&& fn) {
  const size_t d = dims.size();
  std::vector<size_t> stride(d, 1);
  for (size_t i = d - 1; i-- > 0;) stride[i] = stride[i + 1] * dims[i + 1];
  const size_t extent = dims[axis];
  const size_t s = stride[axis];
  Vector line(extent);
  for (size_t base = 0; base < data->size(); ++base) {
    if ((base / s) % extent != 0) continue;
    for (size_t j = 0; j < extent; ++j) line[j] = (*data)[base + j * s];
    fn(&line);
    for (size_t j = 0; j < extent; ++j) (*data)[base + j * s] = line[j];
  }
}

Vector ReferencePriveletRun(const DomainShape& domain, const Vector& x,
                            double epsilon, Rng* rng) {
  std::vector<size_t> padded_dims;
  double sensitivity = 1.0;
  for (size_t i = 0; i < domain.num_dims(); ++i) {
    size_t p = 1, h = 0;
    while (p < domain.dim(i)) p <<= 1, ++h;
    padded_dims.push_back(p);
    sensitivity *= static_cast<double>(h + 1);
  }
  const DomainShape padded_domain(padded_dims);
  Vector weights(padded_domain.size(), 1.0);
  for (size_t axis = 0; axis < padded_dims.size(); ++axis) {
    const Vector axis_weights = HaarWeights(padded_dims[axis]);
    for (size_t i = 0; i < weights.size(); ++i) {
      weights[i] *= axis_weights[padded_domain.Unflatten(i)[axis]];
    }
  }
  Vector padded(padded_domain.size(), 0.0);
  for (size_t i = 0; i < domain.size(); ++i) {
    padded[padded_domain.Flatten(domain.Unflatten(i))] = x[i];
  }
  for (size_t axis = 0; axis < padded_dims.size(); ++axis) {
    ReferenceForEachLine(&padded, padded_dims, axis, ReferenceHaarForward);
  }
  for (size_t i = 0; i < padded.size(); ++i) {
    padded[i] += rng->Laplace(sensitivity / (epsilon * weights[i]));
  }
  for (size_t axis = 0; axis < padded_dims.size(); ++axis) {
    ReferenceForEachLine(&padded, padded_dims, axis, ReferenceHaarInverse);
  }
  Vector out(domain.size());
  for (size_t i = 0; i < domain.size(); ++i) {
    out[i] = padded[padded_domain.Flatten(domain.Unflatten(i))];
  }
  return out;
}

TEST(Privelet, BlockWalkIsBitIdenticalToTheReferenceWalk) {
  // Odd and unit extents, a unit leading and trailing axis, and 3D.
  const std::vector<std::vector<size_t>> shapes = {
      {37}, {1, 16}, {16, 1}, {5, 12}, {3, 4, 8}};
  for (const std::vector<size_t>& dims : shapes) {
    const DomainShape domain(dims);
    Rng data_rng(17);
    Vector x(domain.size());
    for (double& v : x) v = data_rng.Uniform(0.0, 50.0);
    const PriveletMechanism mech(domain);
    for (const double epsilon : {0.1, 1.0}) {
      Rng a(2026), b(2026);
      EXPECT_EQ(mech.Run(x, epsilon, &a),
                ReferencePriveletRun(domain, x, epsilon, &b))
          << "domain of " << domain.size() << " cells, eps " << epsilon;
    }
  }
}

TEST(PriveletParam, ErrorScalesAsInverseEpsilonSquared) {
  const DomainShape domain({128});
  PriveletMechanism mech{domain};
  Vector x(128, 2.0);
  Rng qrng(6);
  const RangeWorkload w = RandomRanges(domain, 200, &qrng);
  const auto run = [&](double eps) {
    return MeasureError(
               [&](const Vector& db, double e, Rng* rng) {
                 return mech.Run(db, e, rng);
               },
               w, x, eps, 12, 21)
        .mean;
  };
  const double e1 = run(0.1);
  const double e2 = run(1.0);
  // 10x epsilon => ~100x less error.
  EXPECT_NEAR(e1 / e2, 100.0, 60.0);
}

}  // namespace
}  // namespace blowfish
