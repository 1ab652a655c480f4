// Microbenchmarks (google-benchmark): throughput of the computational
// kernels underlying the mechanisms — wavelet transforms, isotonic
// regression, the DAWA partition DP, the policy transform, a cold
// grid-matrix precompute, cold θ-line and slab plans, component
// labelling, the sparse workload transform, range answers from a
// summed-area table, and a warm grid-matrix release.

#include <benchmark/benchmark.h>

#include "core/mechanisms_2d.h"
#include "core/pg_matrix.h"
#include "core/planner.h"
#include "core/transform.h"
#include "graph/algorithms.h"
#include "mech/consistency.h"
#include "mech/dawa.h"
#include "mech/privelet.h"
#include "rng/rng.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

Vector RandomVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (double& x : v) x = rng.Uniform(0, 100);
  return v;
}

void BM_HaarForwardInverse(benchmark::State& state) {
  Vector v = RandomVector(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    HaarForward(&v);
    HaarInverse(&v);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HaarForwardInverse)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_PriveletRun(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const PriveletMechanism mech{DomainShape({k})};
  const Vector x = RandomVector(k, 2);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.Run(x, 1.0, &rng));
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_PriveletRun)->Arg(4096);

// PAVA on noisy prefix sums as a line-tree release feeds it: counts
// 0–100 plus Laplace noise at ε = 1/128. The loop rotates over 64
// pre-drawn inputs, so the branch predictor cannot learn one input's
// merge pattern.
void BM_IsotonicRegression(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(4);
  std::vector<Vector> inputs(64, Vector(k));
  for (Vector& y : inputs) {
    double prefix = 0.0;
    for (double& v : y) {
      prefix += static_cast<double>(rng.UniformInt(0, 100));
      v = prefix + rng.Laplace(128.0);
    }
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsotonicRegression(inputs[next]));
    next = (next + 1) % inputs.size();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IsotonicRegression)->Arg(4096)->Arg(65536);

void BM_DawaPartition(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const DawaMechanism mech;
  const Vector y = RandomVector(k, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.ChoosePartition(y, 0.5, 1.0));
  }
}
BENCHMARK(BM_DawaPartition)->Arg(1024)->Arg(4096);

void BM_TreeTransform(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const PolicyTransform t =
      PolicyTransform::Create(LinePolicy(k)).ValueOrDie();
  const Vector x = RandomVector(k, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.TransformDatabase(x));
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_TreeTransform)->Arg(4096)->Arg(65536);

// The noise-free half of a cold grid-matrix release (θ=1, side×side):
// the spanning-tree sweep to x_G and the database total.
void BM_GridPrecompute(benchmark::State& state) {
  const size_t side = static_cast<size_t>(state.range(0));
  const auto mech =
      GridBlowfishMechanism::Create(GridPolicy(DomainShape({side, side}), 1))
          .ValueOrDie();
  const Vector x = RandomVector(side * side, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech->PrecomputeRelease(x));
  }
  state.SetItemsProcessed(state.iterations() * side * side);
}
BENCHMARK(BM_GridPrecompute)->Arg(32)->Arg(256)->Unit(benchmark::kMillisecond);

// A cold θ-line plan (k, θ=4) as the engine makes it: detection, then
// the spanner certified against the registered policy and the tree
// transform over the spanner. The policy copy is untimed.
void BM_PlanThetaLine(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const Policy policy = Theta1DPolicy(k, 4);
  for (auto _ : state) {
    state.PauseTiming();
    PlanRequest request{policy, false, {}};
    state.ResumeTiming();
    benchmark::DoNotOptimize(PlanMechanism(std::move(request)));
  }
}
BENCHMARK(BM_PlanThetaLine)
    ->Arg(4096)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

// A cold slab plan on a side×side Gθ (θ=4), the policy copy untimed:
// detection, the grid spanner certified against the policy, and the
// transform over the spanner.
void BM_PlanGridTheta(benchmark::State& state) {
  const size_t side = static_cast<size_t>(state.range(0));
  const Policy policy = GridPolicy(DomainShape({side, side}), 4);
  for (auto _ : state) {
    state.PauseTiming();
    PlanRequest request{policy, false, {}};
    state.ResumeTiming();
    benchmark::DoNotOptimize(PlanMechanism(std::move(request)));
  }
}
BENCHMARK(BM_PlanGridTheta)->Arg(16)->Arg(128)->Unit(benchmark::kMillisecond);

// Component labels of n vertices joined in n/2 disjoint pairs: the
// shape on which a search per component must not cost O(n) each.
void BM_ConnectedComponents(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Graph::Edge> pairs;
  for (size_t i = 0; i + 1 < n; i += 2) pairs.push_back({i, i + 1});
  const Graph g(n, std::move(pairs));
  size_t components = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConnectedComponents(g, &components));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ConnectedComponents)->Arg(16384);

void BM_WorkloadTransform(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const PolicyTransform t =
      PolicyTransform::Create(Theta1DPolicy(k, 4)).ValueOrDie();
  Rng rng(8);
  const SparseMatrix w =
      RandomRanges(DomainShape({k}), 1000, &rng).ToWorkload().matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.TransformWorkload(w));
  }
}
BENCHMARK(BM_WorkloadTransform)->Arg(512)->Arg(1024);

void BM_PgMatrixBuild(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const Policy policy = Theta1DPolicy(k, 8);
  const PolicyReduction red = ReducePolicyGraph(policy.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPgMatrix(red.graph));
  }
}
BENCHMARK(BM_PgMatrixBuild)->Arg(4096);

// Range answers from a released x̂ through a summed-area table, at the
// serving benchmark's sizes: dims 1 is k=4096 with 800 ranges (the line
// tree and the θ-line spanner), dims 2 is 32×32 with 1,024 ranges (the
// grid matrix). Times the table build and every read.
void BM_RangeAnswer(benchmark::State& state) {
  const bool one_d = state.range(0) == 1;
  const DomainShape domain =
      one_d ? DomainShape({4096}) : DomainShape({32, 32});
  Rng rng(10);
  const RangeWorkload w = RandomRanges(domain, one_d ? 800 : 1024, &rng);
  const Vector x = RandomVector(domain.size(), 11);
  Vector sat, answers;
  for (auto _ : state) {
    w.Answer(x, &sat, &answers);
    benchmark::DoNotOptimize(answers.data());
  }
  state.SetItemsProcessed(state.iterations() * w.num_queries());
}
BENCHMARK(BM_RangeAnswer)->ArgName("dims")->Arg(1)->Arg(2);

// One warm grid-matrix release (θ=1, side×side) with a kept workspace,
// as the engine runs it: a Privelet release per grid line, then the
// reconstruction of x̂.
void BM_GridMatrixRelease(benchmark::State& state) {
  const size_t side = static_cast<size_t>(state.range(0));
  const auto mech =
      GridBlowfishMechanism::Create(GridPolicy(DomainShape({side, side}), 1))
          .ValueOrDie();
  const auto pre = mech->PrecomputeRelease(RandomVector(side * side, 12));
  Rng rng(13);
  ReleaseWorkspace ws;
  for (auto _ : state) {
    mech->RunPrecomputed(*pre, 1.0, &rng, &ws, &ws.estimate);
    benchmark::DoNotOptimize(ws.estimate.data());
  }
}
BENCHMARK(BM_GridMatrixRelease)->Arg(32);

}  // namespace
}  // namespace blowfish

BENCHMARK_MAIN();
