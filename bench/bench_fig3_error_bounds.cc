// Figure 3: summary of data-independent error bounds per query —
// measured empirically on uniform databases and compared with the
// asymptotic forms:
//
//             |  Blowfish                          | ε-DP (Privelet)
//   R_k  G¹_k |  Θ(1/ε²)                           | O(log³k/ε²)
//   R_k  Gθ_k |  O(log³θ/ε²)                       |
//   R_k² G¹   |  O(d·log^{3(d-1)}k/ε²)             | O(log^{3d}k/ε²)
//   R_k² Gθ   |  O(d³·log^{3(d-1)}k·log³θ/ε²)      |
//
// We print measured error per query for the Blowfish mechanism and its
// DP Privelet counterpart at the SAME ε (the bound comparison, unlike
// the Section 6 experiments, is budget-for-budget), across domain
// sizes — the growth profile is the reproduced object.

#include "bench_util.h"
#include "core/data_dependent.h"
#include "core/mechanisms_2d.h"
#include "core/mechanisms_kd.h"
#include "mech/privelet.h"
#include "workload/builders.h"

namespace {

using namespace blowfish;
using namespace blowfish::bench;

double PriveletError(const DomainShape& domain, const RangeWorkload& w,
                     const Vector& x, double eps) {
  const PriveletMechanism mech{domain};
  return MeasureError(
             [&](const Vector& db, double e, Rng* r) {
               return mech.Run(db, e, r);
             },
             w, x, eps, kTrials, kSeed)
      .mean;
}

}  // namespace

int main() {
  const double eps = 1.0;
  const size_t num_queries = 1000;

  // --------------------------------------------------- R_k under G¹_k
  {
    PrintHeader("Figure 3 row 1: R_k under G^1_k  (measured err/query, "
                "eps=1)",
                {"Blowfish", "Privelet-DP", "ratio"});
    for (size_t k : {256u, 1024u, 4096u}) {
      const DomainShape domain({k});
      Rng qrng(kSeed);
      const RangeWorkload w = RandomRanges(domain, num_queries, &qrng);
      Vector x(k, 1.0);
      const BlowfishMechanismPtr mech = MakeTransformedLaplace(k).ValueOrDie();
      const double b = MeasureError(
                           [&](const Vector& db, double e, Rng* r) {
                             return mech->Run(db, e, r);
                           },
                           w, x, eps, kTrials, kSeed)
                           .mean;
      const double p = PriveletError(domain, w, x, eps);
      PrintRow("k=" + std::to_string(k), {Fmt(b), Fmt(p), Fmt(b / p)});
    }
    std::printf("  bound: Theta(1/eps^2) flat in k vs O(log^3 k) growth\n");
  }

  // --------------------------------------------------- R_k under Gθ_k
  {
    PrintHeader("Figure 3 row 2: R_k under G^theta_k via H^theta_k "
                "(grouped Privelet, budget eps/3)",
                {"theta=4", "theta=16", "Privelet-DP"});
    for (size_t k : {1024u, 4096u}) {
      const DomainShape domain({k});
      Rng qrng(kSeed);
      const RangeWorkload w = RandomRanges(domain, num_queries, &qrng);
      Vector x(k, 1.0);
      std::vector<std::string> cells;
      for (size_t theta : {4u, 16u}) {
        const BlowfishMechanismPtr mech =
            MakeThetaGroupedPrivelet(k, theta).ValueOrDie();
        cells.push_back(Fmt(MeasureError(
                                [&](const Vector& db, double e, Rng* r) {
                                  return mech->Run(db, e, r);
                                },
                                w, x, eps, kTrials, kSeed)
                                .mean));
      }
      cells.push_back(Fmt(PriveletError(domain, w, x, eps)));
      PrintRow("k=" + std::to_string(k), cells);
    }
    std::printf("  bound: O(log^3 theta) flat in k\n");
  }

  // ------------------------------------------------- R_k² under G¹_k²
  {
    PrintHeader("Figure 3 row 3: R_{k^2} under G^1_{k^2} (per-line "
                "Privelet strategy)",
                {"Blowfish", "Privelet-DP", "ratio"});
    for (size_t k : {32u, 64u, 96u}) {
      const DomainShape domain({k, k});
      Rng qrng(kSeed);
      const RangeWorkload w = RandomRanges(domain, num_queries, &qrng);
      Vector x(domain.size(), 1.0);
      auto mech =
          GridBlowfishMechanism::Create(GridPolicy(domain, 1)).ValueOrDie();
      const auto pre = mech->PrecomputeRelease(x);
      const double b = MeasureError(
                           [&](const Vector&, double e, Rng* r) {
                             return mech->RunPrecomputed(*pre, e, r);
                           },
                           w, x, eps, kTrials, kSeed)
                           .mean;
      const double p = PriveletError(domain, w, x, eps);
      PrintRow("k=" + std::to_string(k), {Fmt(b), Fmt(p), Fmt(b / p)});
    }
    std::printf("  bound: O(d log^3 k) vs O(log^6 k): ratio falls with k\n");
  }

  // ------------------------------------------------- R_k² under Gθ_k²
  {
    PrintHeader("Figure 3 row 4: R_{k^2} under G^theta_{k^2} (slab "
                "strategy, theta=4)",
                {"Blowfish", "Privelet-DP", "ratio"});
    const std::vector<size_t> sizes =
        FullMode() ? std::vector<size_t>{32, 64, 128}
                   : std::vector<size_t>{32, 64};
    for (size_t k : sizes) {
      const DomainShape domain({k, k});
      Rng qrng(kSeed);
      const RangeWorkload w = RandomRanges(domain, num_queries, &qrng);
      Vector x(domain.size(), 1.0);
      auto mech = GridThetaRangeMechanism::Create(GridPolicy(domain, 4), 4)
                      .ValueOrDie();
      const Vector xg = mech->PrecomputeTransformed(x);
      const Vector truth = w.Answer(x);
      double b = 0.0;
      for (size_t t = 0; t < kTrials; ++t) {
        Rng rng(kSeed + t);
        const Vector est =
            mech->AnswerRangesOnTransformed(w, xg, Sum(x), eps, &rng);
        b += MeanSquaredError(truth, est) / kTrials;
      }
      const double p = PriveletError(domain, w, x, eps);
      PrintRow("k=" + std::to_string(k) + " (stretch " +
                   std::to_string(mech->stretch()) + ")",
               {Fmt(b), Fmt(p), Fmt(b / p)});
    }
    std::printf(
        "  bound: O(d^3 log^3 theta log^3 k) vs O(log^6 k): ratio falls "
        "with k (crossover where d log theta ~ log k)\n");
  }
  return 0;
}
