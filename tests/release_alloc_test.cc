// Heap-allocation budget of warm range releases. The release kernels
// (Privelet lines, summed-area tables, slab reconstruction) run once
// per submit, so an allocation per line or per cell shows up as
// hundreds per request. The count is fixed for a given plan and
// workload, so it gates where timings cannot. Bounds are the measured
// counts plus a small margin. The same counter bounds a copy of a range
// workload, which callers of the by-value stream and async entry
// points pay per request.

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "workload/builders.h"

#include "alloc_counter.h"

namespace blowfish {
namespace {

Vector Ramp(size_t n) {
  Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 7);
  return x;
}

/// Mean operator-new calls per warm Submit of 1,024 random ranges
/// against `policy` (plan cached and transform precomputed by the
/// warm-up submits).
double AllocationsPerWarmRangeSubmit(const Policy& policy) {
  EngineOptions options;
  options.seed = 42;
  QueryEngine engine(options);
  EXPECT_TRUE(
      engine.RegisterPolicy("p", policy, Ramp(policy.domain_size()), 1e9).ok());
  EXPECT_TRUE(engine.OpenSession("s", 1e9).ok());
  Rng rng(7);
  QueryRequest request;
  request.session = "s";
  request.policy = "p";
  request.ranges = RandomRanges(policy.domain, 1024, &rng);
  request.epsilon = 0.5;
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(engine.Submit(request).ok());

  constexpr int kSubmits = 20;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kSubmits; ++i) EXPECT_TRUE(engine.Submit(request).ok());
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) / kSubmits;
}

TEST(ReleaseAllocations, GridMatrixRangeSubmitStaysWithinBudget) {
  // 32x32 θ=1: one Privelet line release per grid row and column.
  EXPECT_LE(AllocationsPerWarmRangeSubmit(GridPolicy(DomainShape({32, 32}), 1)),
            280.0);  // measured 258
}

TEST(ReleaseAllocations, SlabRangeSubmitStaysWithinBudget) {
  // 16x16 θ=4: line and slab Privelet releases, then summed-area
  // reconstruction per range.
  EXPECT_LE(AllocationsPerWarmRangeSubmit(GridPolicy(DomainShape({16, 16}), 4)),
            160.0);  // measured 142
}

TEST(ReleaseAllocations, CopyingARangeWorkloadAllocatesPerBufferNotPerQuery) {
  // SubmitStream and SubmitAsync take their request by value, so a
  // caller that keeps its request copies the workload on every call.
  // The copy holds the domain's extents and one flat corner array.
  Rng rng(7);
  const RangeWorkload ranges = RandomRanges(DomainShape({32, 32}), 1024, &rng);
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  {
    const RangeWorkload copy = ranges;
    EXPECT_EQ(copy.hi(1023)[1], ranges.hi(1023)[1]);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_LE(after - before, 3u);
}

}  // namespace
}  // namespace blowfish
