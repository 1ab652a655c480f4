// Ablations over the design choices DESIGN.md calls out:
//
//   A. Example 4.1: C_k under G¹_k ≡ I_{k-1} under DP — measured error
//      grows Θ(k/ε²), versus Θ(k³) for naive Laplace on C_k.
//   B. Budget split for Gθ_k (Theorem 5.5 accounting): running the
//      spanner mechanism without the ε/3 division would violate the
//      (ε, Gθ) guarantee; we show the error cost of honesty (9x) and
//      that even the honest version beats the DP baseline.
//   C. Consistency on/off across sparsity levels.
//   D. DAWA stage-1 budget fraction sweep.
//   E. Hilbert vs row-major linearization for 2D DAWA.
//   F. The spanning-tree sweep on a tree (line) and on a non-tree
//      (64x64 grid) policy: result parity and cost.

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/data_dependent.h"
#include "core/lower_bounds.h"
#include "core/strategy_selection.h"
#include "core/transform.h"
#include "mech/dawa.h"
#include "mech/laplace.h"
#include "mech/privelet.h"
#include "workload/builders.h"

namespace {

using namespace blowfish;
using namespace blowfish::bench;

void AblationExample41() {
  PrintHeader("A. Example 4.1: C_k under G^1_k (eps=1, measured total "
              "squared error)",
              {"Blowfish", "naive-Laplace", "k/eps^2"});
  const double eps = 1.0;
  for (size_t k : {64u, 256u, 1024u}) {
    const Workload ck = CumulativeWorkload(k);
    // Blowfish: transformed instance is I_{k-1} under DP; Algorithm 1
    // answers prefix sums with Laplace(1/eps) each.
    const BlowfishMechanismPtr mech = MakeTransformedLaplace(k).ValueOrDie();
    Vector x(k, 1.0);
    const Vector truth = ck.Answer(x);
    double total = 0.0;
    for (size_t t = 0; t < kTrials; ++t) {
      Rng rng(kSeed + t);
      const Vector est = ck.Answer(mech->Run(x, eps, &rng));
      for (size_t i = 0; i < truth.size(); ++i) {
        total += (est[i] - truth[i]) * (est[i] - truth[i]) / kTrials;
      }
    }
    // Naive DP Laplace on C_k directly: sensitivity k.
    const double naive = LaplaceTotalSquaredError(k, k, eps);
    PrintRow("k=" + std::to_string(k),
             {Fmt(total), Fmt(naive), Fmt(static_cast<double>(k) / (eps * eps))});
  }
  std::printf("  Theorem: Blowfish error Theta(k/eps^2); naive is k^3.\n");
}

void AblationBudgetSplit() {
  PrintHeader("B. G^4_k budget: honest eps/3 vs (invalid) undivided eps "
              "(1D ranges, k=1024, eps=1)",
              {"err/query"});
  const size_t k = 1024;
  const DomainShape domain({k});
  Rng qrng(kSeed);
  const RangeWorkload w = RandomRanges(domain, 1000, &qrng);
  Vector x(k, 1.0);
  const BlowfishMechanismPtr honest =
      MakeThetaTransformedLaplace(k, 4).ValueOrDie();
  const double honest_err = MeasureError(
                                [&](const Vector& db, double e, Rng* r) {
                                  return honest->Run(db, e, r);
                                },
                                w, x, 1.0, kTrials, kSeed)
                                .mean;
  // Undivided: same mechanism at 3x the budget == skipping Lemma 4.5.
  const double undivided_err = MeasureError(
                                   [&](const Vector& db, double e, Rng* r) {
                                     return honest->Run(db, e, r);
                                   },
                                   w, x, 3.0, kTrials, kSeed)
                                   .mean;
  const PriveletMechanism privelet{domain};
  const double dp_err = MeasureError(
                            [&](const Vector& db, double e, Rng* r) {
                              return privelet.Run(db, e, r);
                            },
                            w, x, 0.5, kTrials, kSeed)
                            .mean;
  PrintRow("honest (eps/3 inner)", {Fmt(honest_err)});
  PrintRow("undivided (NOT (eps,G)-private)", {Fmt(undivided_err)});
  PrintRow("Privelet DP at eps/2", {Fmt(dp_err)});
  std::printf("  stretch^2 = 9x error is the price of the Lemma 4.5 "
              "guarantee; honesty still beats the DP baseline.\n");
}

void AblationConsistency() {
  PrintHeader("C. Consistency projection vs sparsity (Hist, k=1024, "
              "eps=0.1)",
              {"plain", "+consistency", "gain"});
  const size_t k = 1024;
  const DomainShape domain({k});
  const RangeWorkload w = HistogramRanges(domain);
  for (double nonzero_frac : {0.01, 0.1, 0.5}) {
    Vector x(k, 0.0);
    Rng data_rng(kSeed);
    const size_t nonzeros = static_cast<size_t>(nonzero_frac * k);
    for (size_t i = 0; i < nonzeros; ++i) {
      x[data_rng.UniformInt(0, k - 1)] += 100.0;
    }
    const BlowfishMechanismPtr plain = MakeTransformedLaplace(k).ValueOrDie();
    const BlowfishMechanismPtr cons =
        MakeTransformedConsistent(k).ValueOrDie();
    const double e_plain = MeasureError(
                               [&](const Vector& db, double e, Rng* r) {
                                 return plain->Run(db, e, r);
                               },
                               w, x, 0.1, kTrials, kSeed)
                               .mean;
    const double e_cons = MeasureError(
                              [&](const Vector& db, double e, Rng* r) {
                                return cons->Run(db, e, r);
                              },
                              w, x, 0.1, kTrials, kSeed)
                              .mean;
    PrintRow(Fmt(100 * nonzero_frac) + "% cells nonzero",
             {Fmt(e_plain), Fmt(e_cons), Fmt(e_plain / e_cons)});
  }
  std::printf("  Section 5.4.2: the gain tracks the number of distinct "
              "prefix-sum values, i.e. sparsity.\n");
}

void AblationDawaBudget() {
  PrintHeader("D. DAWA stage-1 budget fraction (sparse data, k=1024, "
              "eps=0.01)",
              {"err/query"});
  const size_t k = 1024;
  const DomainShape domain({k});
  const RangeWorkload w = HistogramRanges(domain);
  Vector x(k, 0.0);
  Rng data_rng(kSeed);
  for (size_t i = 0; i < 25; ++i) {
    x[data_rng.UniformInt(0, k - 1)] = data_rng.Uniform(500, 5000);
  }
  for (double frac : {0.1, 0.25, 0.5, 0.75}) {
    DawaMechanism::Options options;
    options.partition_budget_fraction = frac;
    const DawaMechanism mech(options);
    const double err = MeasureError(
                           [&](const Vector& db, double e, Rng* r) {
                             return mech.Run(db, e, r);
                           },
                           w, x, 0.01, kTrials, kSeed)
                           .mean;
    PrintRow("fraction " + Fmt(frac), {Fmt(err)});
  }
  std::printf(
      "  The sweet spot sits at moderate fractions (0.25-0.5): too little "
      "budget misplaces buckets, too much starves the bucket totals.\n");
}

void AblationHilbert() {
  PrintHeader("E. 2D DAWA linearization (T50 twitter grid, eps=0.01, "
              "2D ranges)",
              {"err/query"});
  const size_t k = 50;
  const DomainShape domain({k, k});
  Vector x(domain.size(), 0.0);
  Rng data_rng(kSeed);
  for (size_t i = 0; i < 40; ++i) {
    const size_t r = data_rng.UniformInt(5, 15);
    const size_t c = data_rng.UniformInt(20, 35);
    x[r * k + c] += data_rng.Uniform(50, 300);
  }
  Rng qrng(kSeed);
  const RangeWorkload w = RandomRanges(domain, 1000, &qrng);
  const Hilbert2DAdapter hilbert(domain, std::make_shared<DawaMechanism>());
  const DawaMechanism row_major;  // treats the flattened grid as 1D
  const double e_hilbert = MeasureError(
                               [&](const Vector& db, double e, Rng* r) {
                                 return hilbert.Run(db, e, r);
                               },
                               w, x, 0.01, kTrials, kSeed)
                               .mean;
  const double e_rowmajor = MeasureError(
                                [&](const Vector& db, double e, Rng* r) {
                                  return row_major.Run(db, e, r);
                                },
                                w, x, 0.01, kTrials, kSeed)
                                .mean;
  PrintRow("Hilbert order", {Fmt(e_hilbert)});
  PrintRow("row-major order", {Fmt(e_rowmajor)});
  std::printf(
      "  For a single axis-aligned cluster the two orders are comparable "
      "(row-major also keeps rows contiguous); Hilbert's advantage shows "
      "on scattered multi-cluster data and is the DAWA paper's default.\n");
}

void AblationTransformPaths() {
  PrintHeader("F. The spanning-tree sweep: line tree and 64x64 grid",
              {"max |diff|", "ms"});
  const size_t k = 4096;
  const Policy policy = LinePolicy(k);
  const PolicyTransform t = PolicyTransform::Create(policy).ValueOrDie();
  Rng rng(kSeed);
  Vector x(k);
  for (double& v : x) v = static_cast<double>(rng.UniformInt(0, 50));

  Stopwatch sw;
  const Vector fast = t.TransformDatabase(x);  // tree sweep
  const double fast_ms = sw.ElapsedMillis();

  // The grid graph is not a tree: the same sweep over its BFS spanning
  // tree gives one preimage x_G (non-tree edges 0) of the database.
  const Policy grid = GridPolicy(DomainShape({64, 64}), 1);
  const PolicyTransform tg = PolicyTransform::Create(grid).ValueOrDie();
  Vector x2(grid.domain_size());
  for (double& v : x2) v = static_cast<double>(rng.UniformInt(0, 50));
  sw.Restart();
  const Vector swept = tg.TransformDatabase(x2);
  const double grid_ms = sw.ElapsedMillis();

  // Parity check on the tree: reconstruct and compare.
  const Vector rebuilt = t.ReconstructHistogram(fast, t.ComponentTotals(x));
  double max_diff = 0.0;
  for (size_t i = 0; i < k; ++i) {
    max_diff = std::max(max_diff, std::fabs(rebuilt[i] - x[i]));
  }
  PrintRow("tree sweep (k=4096)", {Fmt(max_diff), Fmt(fast_ms)});
  const Vector rebuilt2 =
      tg.ReconstructHistogram(swept, tg.ComponentTotals(x2));
  double max_diff2 = 0.0;
  for (size_t i = 0; i < x2.size(); ++i) {
    max_diff2 = std::max(max_diff2, std::fabs(rebuilt2[i] - x2[i]));
  }
  PrintRow("tree sweep (64x64 grid)", {Fmt(max_diff2), Fmt(grid_ms)});
}

void AblationStrategySelection() {
  PrintHeader("G. Matrix-mechanism strategy selection: the transform "
              "flips the optimum (all 1D ranges, eps=1, expected TOTAL "
              "squared error)",
              {"identity", "hier-b2", "wavelet", "chosen"});
  for (size_t k : {128u, 512u}) {
    const Matrix gram = RangeWorkloadGram1D(k);
    // Plain DP.
    const StrategyChoice dp = SelectStrategyFromGram(gram, 1.0).ValueOrDie();
    // Under the line policy: strategy over the transformed domain.
    const StrategyChoice bf =
        SelectStrategyForPolicyFromGram(gram, LinePolicy(k), 1.0)
            .ValueOrDie();
    const auto row = [&](const std::string& name,
                         const StrategyChoice& choice) {
      std::vector<std::string> cells(3, "-");
      for (const StrategyEvaluation& e : choice.evaluations) {
        if (e.name == "identity") cells[0] = Fmt(e.expected_total_squared_error);
        if (e.name == "hierarchical-b2") cells[1] = Fmt(e.expected_total_squared_error);
        if (e.name == "wavelet") cells[2] = Fmt(e.expected_total_squared_error);
      }
      cells.push_back(choice.name);
      PrintRow(name, cells);
    };
    row("k=" + std::to_string(k) + " DP", dp);
    row("k=" + std::to_string(k) + " G^1_k transformed", bf);
  }
  std::printf(
      "  Under DP the tree strategies win at large k; the G^1_k "
      "transform makes every range 2-sparse and identity wins at every "
      "size (Section 5.2.1, derived numerically).\n");
}

}  // namespace

int main() {
  std::printf("Design-choice ablations (see DESIGN.md)\n");
  AblationExample41();
  AblationBudgetSplit();
  AblationConsistency();
  AblationDawaBudget();
  AblationHilbert();
  AblationTransformPaths();
  AblationStrategySelection();
  return 0;
}
