// Figures 8a/8e and 9a/9e: 2D-Range (10,000 random 2D range queries)
// under the grid policy G¹_{k²} on the Twitter datasets T25/T50/T100.
//
//   DP baselines (at ε/2): Privelet (2D), Dawa (Hilbert-linearized)
//   Blowfish (at ε):       Transformed + Privelet (per-line strategy,
//                          Theorem 4.1; no tree-like data-dependent
//                          algorithm is known for G¹_{k²} — Section 6)

#include "bench_util.h"
#include "core/mechanisms_2d.h"
#include "data/generators.h"
#include "mech/dawa.h"
#include "mech/privelet.h"
#include "workload/builders.h"

int main() {
  using namespace blowfish;
  using namespace blowfish::bench;

  const std::vector<size_t> grid_sizes = {25, 50, 100};
  const size_t num_queries = FullMode() ? 10000 : 2000;

  std::printf("Figures 8a/8e, 9a/9e: 2D-Range under G^1_{k^2}\n");
  for (double eps : EpsilonGrid()) {
    std::vector<std::string> cols;
    for (size_t k : grid_sizes) cols.push_back("T" + std::to_string(k));
    PrintHeader("epsilon = " + Fmt(eps) +
                    "  (avg squared error per query, 5 trials)",
                cols);

    std::vector<std::string> privelet_row, dawa_row, blowfish_row;
    for (size_t k : grid_sizes) {
      const Dataset ds = MakeTwitterDataset(k, kSeed);
      Rng query_rng(kSeed + k);
      const RangeWorkload workload =
          RandomRanges(ds.domain, num_queries, &query_rng);

      const PriveletMechanism privelet{ds.domain};
      const Hilbert2DAdapter dawa2d(ds.domain,
                                    std::make_shared<DawaMechanism>());
      auto blowfish =
          GridBlowfishMechanism::Create(GridPolicy(ds.domain, 1)).ValueOrDie();
      // The transform is noise-free; share it across trials.
      const auto pre = blowfish->PrecomputeRelease(ds.counts);

      privelet_row.push_back(
          Fmt(MeasureError(
                  [&](const Vector& x, double e, Rng* r) {
                    return privelet.Run(x, e, r);
                  },
                  workload, ds.counts, eps / 2.0, kTrials, kSeed)
                  .mean));
      dawa_row.push_back(
          Fmt(MeasureError(
                  [&](const Vector& x, double e, Rng* r) {
                    return dawa2d.Run(x, e, r);
                  },
                  workload, ds.counts, eps / 2.0, kTrials, kSeed)
                  .mean));
      blowfish_row.push_back(
          Fmt(MeasureError(
                  [&](const Vector&, double e, Rng* r) {
                    return blowfish->RunPrecomputed(*pre, e, r);
                  },
                  workload, ds.counts, eps, kTrials, kSeed)
                  .mean));
    }
    PrintRow("Privelet (DP, eps/2)", privelet_row);
    PrintRow("Dawa (DP, eps/2)", dawa_row);
    PrintRow("Transformed + Privelet", blowfish_row);
  }
  std::printf(
      "\nPaper shape: Transformed+Privelet significantly outperforms "
      "Privelet and improves over DAWA as the domain grows "
      "(Section 6.1, 2D-Range).\n");
  return 0;
}
