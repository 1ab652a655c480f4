// Heap-allocation budget of warm range releases. The release kernels
// (Privelet lines, summed-area tables, slab reconstruction, the tree
// pipeline) run once per submit, so an allocation per line or per cell
// shows up as hundreds per request; with the engine's per-thread
// release workspace a warm Submit allocates little beyond its answer
// vector. The count is fixed for a given plan and workload, so it gates
// where timings cannot. Bounds are the measured counts plus a small
// margin. The same counter bounds a copy of a range workload, which
// callers of the by-value stream and async entry points pay per
// request.

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "engine/stream.h"
#include "workload/builders.h"

#include "alloc_counter.h"

namespace blowfish {
namespace {

Vector Ramp(size_t n) {
  Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 7);
  return x;
}

/// Mean operator-new calls per warm release of 1,024 random ranges
/// against `policy` (plan cached and transform precomputed by the
/// warm-up releases). A release is one Submit, or with `stream` one
/// SubmitStream drained in chunks of 100.
double AllocationsPerWarmRangeRelease(const Policy& policy,
                                      bool stream = false) {
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
  const auto release = [&] {
    if (!stream) {
      EXPECT_TRUE(engine.Submit(request).ok());
      return;
    }
    StreamOptions chunks;
    chunks.chunk_queries = 100;
    Result<std::shared_ptr<ResultStream>> s =
        engine.SubmitStream(request, chunks);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    StreamChunk chunk;
    size_t answers = 0;
    for (;;) {
      Result<StreamNext> next = s.ValueOrDie()->Next(&chunk);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (next.ValueOrDie() == StreamNext::kDone) break;
      answers += chunk.values.size();
    }
    EXPECT_EQ(answers, 1024u);
  };
  for (int i = 0; i < 3; ++i) release();

  constexpr int kReleases = 20;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kReleases; ++i) release();
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) / kReleases;
}

TEST(ReleaseAllocations, GridMatrixRangeSubmitStaysWithinBudget) {
  // 32x32 θ=1: one Privelet line release per grid row and column.
  EXPECT_LE(
      AllocationsPerWarmRangeRelease(GridPolicy(DomainShape({32, 32}), 1)),
      8.0);  // measured 3; 258 before the release workspace
}

TEST(ReleaseAllocations, SlabRangeSubmitStaysWithinBudget) {
  // 16x16 θ=4: line and slab Privelet releases, then summed-area
  // reconstruction per range.
  EXPECT_LE(
      AllocationsPerWarmRangeRelease(GridPolicy(DomainShape({16, 16}), 4)),
      8.0);  // measured 5; 142 before the release workspace
}

TEST(ReleaseAllocations, LineTreeRangeSubmitStaysWithinBudget) {
  // k=4096 line: Laplace draws, isotonic projection, reconstruction,
  // then a summed-area table over x̂.
  EXPECT_LE(AllocationsPerWarmRangeRelease(LinePolicy(4096)),
            6.0);  // measured 2; 9 before the release workspace
}

TEST(ReleaseAllocations, ThetaLineRangeSubmitStaysWithinBudget) {
  // k=4096 θ=4: the tree transform over the certified line spanner.
  EXPECT_LE(AllocationsPerWarmRangeRelease(Theta1DPolicy(4096, 4)),
            6.0);  // measured 2; 7 before the release workspace
}

TEST(ReleaseAllocations, GridMatrixRangeStreamStaysWithinBudget) {
  // The stream keeps its own summed-area table and answers in chunks.
  EXPECT_LE(AllocationsPerWarmRangeRelease(
                GridPolicy(DomainShape({32, 32}), 1), /*stream=*/true),
            30.0);  // measured 22 (11 chunks); 275 before the workspace
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
