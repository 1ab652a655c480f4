// Location privacy on a 2D grid — the paper's geo-indistinguishability
// scenario (Sections 1 and 3): revealing the rough region of a user is
// acceptable; whether they are at home or at the cafe next door must
// stay hidden.
//
// We build the grid policy G^θ over a city map, release 2D range
// counts (how many users inside each rectangle), and compare the
// policy-aware mechanism against the classic differentially private
// baseline at the same privacy budget.
//
// Build & run:  ./examples/location_privacy

#include <cstdio>

#include "core/mechanisms_2d.h"
#include "data/generators.h"
#include "mech/error.h"
#include "mech/privelet.h"
#include "workload/builders.h"

using namespace blowfish;

int main() {
  // A 50x50 grid over the city; checkins cluster around a few hubs.
  const size_t k = 50;
  const Dataset checkins = MakeTwitterDataset(k, /*seed=*/2015);
  std::printf("database: %s — %.0f checkins, %.1f%% empty cells\n",
              checkins.description.c_str(), checkins.Scale(),
              checkins.PercentZeroCounts());

  // Policy: adjacent cells indistinguishable (θ=1). An adversary can
  // learn the neighborhood, not the building.
  const Policy policy = GridPolicy(checkins.domain, 1);
  auto mechanism = GridBlowfishMechanism::Create(policy).ValueOrDie();
  std::printf("policy: %s (%zu protected pairs)\n", policy.name.c_str(),
              policy.graph.num_edges());

  // Analyst workload: 1,000 rectangular "how many users here?" queries.
  Rng query_rng(11);
  const RangeWorkload workload = RandomRanges(checkins.domain, 1000,
                                              &query_rng);

  const double epsilon = 0.1;
  // Blowfish at ε; the DP baseline at ε/2 per the paper's protocol (a
  // bounded-neighbors DP guarantee costs a factor 2 in ε).
  const auto pre = mechanism->PrecomputeRelease(checkins.counts);
  const ErrorStats blowfish_err = MeasureError(
      [&](const Vector&, double e, Rng* rng) {
        return mechanism->RunPrecomputed(*pre, e, rng);
      },
      workload, checkins.counts, epsilon, 5, 2015);

  const PriveletMechanism privelet{checkins.domain};
  const ErrorStats dp_err = MeasureError(
      [&](const Vector& x, double e, Rng* rng) {
        return privelet.Run(x, e, rng);
      },
      workload, checkins.counts, epsilon / 2.0, 5, 2015);

  std::printf("\nmean squared error per range query (eps = %.2f):\n",
              epsilon);
  std::printf("  %-38s %12.1f\n", "Privelet (differential privacy)",
              dp_err.mean);
  std::printf("  %-38s %12.1f\n",
              mechanism->name().append(" (Blowfish)").c_str(),
              blowfish_err.mean);
  std::printf("  improvement: %.1fx\n", dp_err.mean / blowfish_err.mean);

  // One concrete query, end to end.
  Rng rng(3);
  const Vector release = mechanism->RunPrecomputed(*pre, epsilon, &rng);
  const RangeWorkload downtown("downtown", checkins.domain,
                               {RangeQuery{{5, 30}, {15, 40}}});
  std::printf("\n'downtown' rectangle: true %.0f, released %.1f\n",
              downtown.Answer(checkins.counts)[0],
              downtown.Answer(release)[0]);
  std::printf("guarantee: %s\n",
              mechanism->Guarantee(epsilon).neighbor_model.c_str());
  return 0;
}
