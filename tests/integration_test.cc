// End-to-end integration: the Section 6 experiment pipeline at reduced
// scale, checking the paper's qualitative conclusions hold through the
// full stack (datasets -> policies -> mechanisms -> error protocol).

#include <gtest/gtest.h>

#include "core/data_dependent.h"
#include "core/mechanisms_2d.h"
#include "data/generators.h"
#include "mech/dawa.h"
#include "mech/error.h"
#include "mech/laplace.h"
#include "mech/privelet.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

EstimatorFn AsEstimator(const BlowfishMechanism& mech) {
  return [&mech](const Vector& x, double eps, Rng* rng) {
    return mech.Run(x, eps, rng);
  };
}

// Figure 8c/g shape: for 1D ranges under G¹_k, every Blowfish variant
// beats its ε/2-DP counterpart by a wide margin on a real-shaped
// dataset.
TEST(Integration, Range1DBlowfishBeatsDpByOrdersOfMagnitude) {
  Dataset ds = MakeDataset1D(Dataset1D::kD, 2015).Aggregate1D(512);
  const size_t k = ds.domain.size();
  Rng qrng(1);
  const RangeWorkload w = RandomRanges(ds.domain, 500, &qrng);
  const double eps = 0.1;

  const BlowfishMechanismPtr trans_laplace =
      MakeTransformedLaplace(k).ValueOrDie();
  PriveletMechanism privelet{ds.domain};

  const double blowfish_err =
      MeasureError(AsEstimator(*trans_laplace), w, ds.counts, eps, 5, 2015)
          .mean;
  const double dp_err =
      MeasureError(
          [&](const Vector& db, double e, Rng* rng) {
            return privelet.Run(db, e, rng);
          },
          w, ds.counts, eps / 2.0, 5, 2015)
          .mean;
  // "2-3 orders of magnitude difference" in the paper; demand >= 10x
  // at this reduced scale.
  EXPECT_LT(blowfish_err * 10.0, dp_err);
}

// Figure 8b shape: for Hist under G¹_k, Transformed+Laplace is about a
// factor 2 better than ε/2 Laplace (the paper reports exactly this).
TEST(Integration, HistTransformedLaplaceFactorTwo) {
  Dataset ds = MakeDataset1D(Dataset1D::kB, 2015).Aggregate1D(1024);
  const size_t k = ds.domain.size();
  const RangeWorkload w = HistogramRanges(ds.domain);
  const double eps = 0.1;
  const BlowfishMechanismPtr trans = MakeTransformedLaplace(k).ValueOrDie();
  LaplaceMechanism laplace;
  const double blowfish_err =
      MeasureError(AsEstimator(*trans), w, ds.counts, eps, 10, 7).mean;
  const double dp_err =
      MeasureError(
          [&](const Vector& db, double e, Rng* rng) {
            return laplace.Run(db, e, rng);
          },
          w, ds.counts, eps / 2.0, 10, 7)
          .mean;
  EXPECT_NEAR(dp_err / blowfish_err, 2.0, 0.8);
}

// Section 6's sparse-data story: consistency harvests sparsity.
TEST(Integration, ConsistencyShinesOnSparseDatasetE) {
  Dataset ds = MakeDataset1D(Dataset1D::kE, 2015).Aggregate1D(1024);
  const RangeWorkload w = HistogramRanges(ds.domain);
  const double eps = 0.1;
  const BlowfishMechanismPtr plain =
      MakeTransformedLaplace(ds.domain.size()).ValueOrDie();
  const BlowfishMechanismPtr cons =
      MakeTransformedConsistent(ds.domain.size()).ValueOrDie();
  const double err_plain =
      MeasureError(AsEstimator(*plain), w, ds.counts, eps, 5, 9).mean;
  const double err_cons =
      MeasureError(AsEstimator(*cons), w, ds.counts, eps, 5, 9).mean;
  EXPECT_LT(err_cons, err_plain);
}

// Figure 8d shape: under G⁴_k the Blowfish error does not grow with
// domain size while the DP baseline's does.
TEST(Integration, ThetaPolicyErrorFlatAcrossDomainSizes) {
  const Dataset base = MakeDataset1D(Dataset1D::kD, 2015);
  Rng qrng(2);
  Vector blowfish_err, dp_err;
  for (size_t k : {512u, 2048u}) {
    const Dataset ds = base.Aggregate1D(k);
    const RangeWorkload w = RandomRanges(ds.domain, 300, &qrng);
    const double eps = 1.0;
    const BlowfishMechanismPtr mech =
        MakeThetaTransformedLaplace(k, 4).ValueOrDie();
    blowfish_err.push_back(
        MeasureError(AsEstimator(*mech), w, ds.counts, eps, 5, 3).mean);
    PriveletMechanism privelet{ds.domain};
    dp_err.push_back(MeasureError(
                         [&](const Vector& db, double e, Rng* rng) {
                           return privelet.Run(db, e, rng);
                         },
                         w, ds.counts, eps / 2.0, 5, 3)
                         .mean);
  }
  EXPECT_LT(blowfish_err[1] / blowfish_err[0], 2.5);  // flat
  EXPECT_GT(dp_err[1] / dp_err[0], 1.5);              // grows
}

// Figure 8a shape on a synthetic Twitter grid: Transformed+Privelet
// under G¹_{k²} beats ε/2 Privelet.
TEST(Integration, TwitterGridBlowfishBeatsPrivelet) {
  const Dataset ds = MakeTwitterDataset(25, 2015);
  Rng qrng(3);
  const RangeWorkload w = RandomRanges(ds.domain, 300, &qrng);
  const double eps = 0.1;
  auto blowfish =
      GridBlowfishMechanism::Create(GridPolicy(ds.domain, 1)).ValueOrDie();
  PriveletMechanism privelet{ds.domain};
  const auto pre = blowfish->PrecomputeRelease(ds.counts);
  const double b_err =
      MeasureError(
          [&](const Vector&, double e, Rng* rng) {
            return blowfish->RunPrecomputed(*pre, e, rng);
          },
          w, ds.counts, eps, 5, 4)
          .mean;
  const double p_err =
      MeasureError(
          [&](const Vector& db, double e, Rng* rng) {
            return privelet.Run(db, e, rng);
          },
          w, ds.counts, eps / 2.0, 5, 4)
          .mean;
  EXPECT_LT(b_err, p_err);
}

// Privacy accounting sanity across the public API: guarantees carry
// the requested ε and the original policy.
TEST(Integration, GuaranteesNameRequestedEpsilonAndPolicy) {
  const BlowfishMechanismPtr a = MakeTransformedLaplace(64).ValueOrDie();
  EXPECT_EQ(a->Guarantee(0.25).epsilon, 0.25);
  const BlowfishMechanismPtr b = MakeThetaTransformedDawa(64, 4).ValueOrDie();
  EXPECT_NE(b->Guarantee(1.0).neighbor_model.find("G^4_64"),
            std::string::npos);
}

}  // namespace
}  // namespace blowfish
