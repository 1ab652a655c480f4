// The grid strategy (Section 5.2.2 / Theorem 5.4): per-line Privelet
// matrix mechanism for R_{k^d} under G¹_{k^d}.

#include <gtest/gtest.h>

#include "core/mechanisms_2d.h"
#include "mech/error.h"
#include "mech/privelet.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

TEST(GridMechanism, RejectsOneDimensionalAndNonGridPolicies) {
  EXPECT_FALSE(GridBlowfishMechanism::Create(LinePolicy(8)).ok());
  EXPECT_FALSE(
      GridBlowfishMechanism::Create(GridPolicy(DomainShape({4, 4}), 2)).ok());
}

TEST(GridMechanism, NoiseFreeReconstructionIsExact) {
  const DomainShape domain({5, 6});
  auto mech =
      GridBlowfishMechanism::Create(GridPolicy(domain, 1)).ValueOrDie();
  Rng rng(1);
  Vector x(domain.size());
  for (double& v : x) v = static_cast<double>(rng.UniformInt(0, 9));
  const Vector est = mech->Run(x, 1e9, &rng);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(est[i], x[i], 1e-4);
}

TEST(GridMechanism, UnbiasedUnderNoise) {
  const DomainShape domain({6, 6});
  auto mech =
      GridBlowfishMechanism::Create(GridPolicy(domain, 1)).ValueOrDie();
  Vector x(36, 4.0);
  Rng rng(2);
  Vector mean(36, 0.0);
  const size_t trials = 2000;
  const auto pre = mech->PrecomputeRelease(x);
  for (size_t t = 0; t < trials; ++t) {
    const Vector est = mech->RunPrecomputed(*pre, 1.0, &rng);
    for (size_t i = 0; i < 36; ++i) mean[i] += est[i] / trials;
  }
  for (size_t i = 0; i < 36; ++i) EXPECT_NEAR(mean[i], 4.0, 1.5);
}

TEST(GridMechanism, PreservesDatabaseSize) {
  const DomainShape domain({8, 8});
  auto mech =
      GridBlowfishMechanism::Create(GridPolicy(domain, 1)).ValueOrDie();
  Vector x(64, 2.0);
  Rng rng(3);
  for (int t = 0; t < 10; ++t) {
    EXPECT_NEAR(Sum(mech->Run(x, 0.5, &rng)), 128.0, 1e-5);
  }
}

TEST(GridMechanism, BeatsPriveletOn2DRanges) {
  // Figure 8a's shape: Transformed+Privelet under G¹_{k²} beats ε/2
  // Privelet under DP.
  const size_t k = 24;
  const DomainShape domain({k, k});
  Rng qrng(4);
  const RangeWorkload w = RandomRanges(domain, 400, &qrng);
  Vector x(domain.size(), 1.0);
  auto blowfish =
      GridBlowfishMechanism::Create(GridPolicy(domain, 1)).ValueOrDie();
  PriveletMechanism privelet{domain};
  const double eps = 0.1;
  const auto pre = blowfish->PrecomputeRelease(x);
  const double b_err =
      MeasureError(
          [&](const Vector&, double e, Rng* rng) {
            return blowfish->RunPrecomputed(*pre, e, rng);
          },
          w, x, eps, 5, 5)
          .mean;
  const double p_err = MeasureError(
                           [&](const Vector& db, double e, Rng* rng) {
                             return privelet.Run(db, e, rng);
                           },
                           w, x, eps / 2.0, 5, 5)
                           .mean;
  EXPECT_LT(b_err, p_err);
}

TEST(GridMechanism, ThreeDimensionalDomainSupported) {
  // Theorem 5.4 is for general d; verify the line decomposition covers
  // a 3D grid and reconstructs exactly.
  const DomainShape domain({3, 4, 3});
  auto mech =
      GridBlowfishMechanism::Create(GridPolicy(domain, 1)).ValueOrDie();
  Rng rng(5);
  Vector x(domain.size());
  for (double& v : x) v = static_cast<double>(rng.UniformInt(0, 5));
  const Vector est = mech->Run(x, 1e9, &rng);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(est[i], x[i], 1e-4);
}

TEST(GridMechanism, GuaranteeNamesThePolicy) {
  const DomainShape domain({4, 4});
  auto mech =
      GridBlowfishMechanism::Create(GridPolicy(domain, 1)).ValueOrDie();
  EXPECT_NE(mech->Guarantee(1.0).neighbor_model.find("G^1_{4x4}"),
            std::string::npos);
}

}  // namespace
}  // namespace blowfish
