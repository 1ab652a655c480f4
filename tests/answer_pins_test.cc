// Answer pins: the released answers of every plan kind, on every
// release path, hashed bit-for-bit and compared against recorded
// values. A change to any noise draw, transform or reconstruction —
// even one ulp in one answer — moves a hash and fails its pin, so a
// refactor of the release paths must prove here that it kept the bits.
//
// Each pin is FNV-1a 64 over the answers' IEEE-754 bit patterns, from
// one thread and a fixed seed. Plan kinds: tree-transform,
// spanner-tree, grid-matrix, grid-theta-range and
// spanning-tree-fallback, each planned with the Laplace and with the
// DAWA (data-dependent) inner mechanism. Paths: a direct Run; a
// RunPrecomputed after an EncodePayload -> DecodePrecompute round trip;
// the engine's dense Submit; the range fast path through Submit and
// through SubmitStream; a snapshot-restored engine; and range workloads
// answered through a summed-area table over x̂, by Submit and by
// SubmitStream.
//
// A pin that fails prints the table line holding the value it saw.
// Update the table only for a change that is meant to move answers.

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/planner.h"
#include "core/policy.h"
#include "engine/query_engine.h"
#include "engine/stream.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

constexpr uint64_t kSeed = 2015;
constexpr double kEpsilon = 0.5;

uint64_t Fnv1a(const Vector& answers) {
  uint64_t h = 14695981039346656037ull;
  for (double a : answers) {
    uint64_t bits;
    std::memcpy(&bits, &a, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

Vector Ramp(size_t n) {
  Vector x(n, 0.0);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 13);
  return x;
}

// Cycle graph: connected, not a tree and not a distance-threshold
// family, so the planner lands on the spanning-tree fallback.
Policy RingPolicy(size_t k) {
  std::vector<Graph::Edge> edges;
  for (size_t i = 0; i + 1 < k; ++i) edges.push_back({i, i + 1});
  edges.push_back({0, k - 1});
  return Policy{"C_" + std::to_string(k), DomainShape({k}),
                Graph(k, std::move(edges))};
}

struct Subject {
  const char* name;
  const char* kind;  ///< the plan kind the planner must choose
  Policy policy;
};

std::vector<Subject> Subjects() {
  std::vector<Subject> subjects;
  subjects.push_back({"line", "tree-transform", LinePolicy(16)});
  subjects.push_back({"theta", "spanner-tree", Theta1DPolicy(24, 3)});
  subjects.push_back(
      {"grid", "grid-matrix", GridPolicy(DomainShape({6, 6}), 1)});
  subjects.push_back(
      {"slab", "grid-theta-range", GridPolicy(DomainShape({8, 8}), 4)});
  subjects.push_back({"ring", "spanning-tree-fallback", RingPolicy(12)});
  return subjects;
}

std::string PinName(const char* path, const char* subject, bool dd) {
  return std::string(path) + "/" + subject + (dd ? "/dawa" : "/laplace");
}

using Hashes = std::map<std::string, uint64_t>;

// The recorded answers. Each line is what a failing pin prints.
const Hashes& Pins() {
  static const Hashes pins = {
      {"decoded/grid/dawa", 0xeb2bde74768410fdull},
      {"decoded/grid/laplace", 0xeb2bde74768410fdull},
      {"decoded/line/dawa", 0xcad4a2d0ab208d7bull},
      {"decoded/line/laplace", 0x598ffa1df4efde6dull},
      {"decoded/ring/dawa", 0xb2e8a3be0e8ac0e9ull},
      {"decoded/ring/laplace", 0xca53c4ff3916cf48ull},
      {"decoded/slab/dawa", 0xb2ab95a5b21bc2ecull},
      {"decoded/slab/laplace", 0xb2ab95a5b21bc2ecull},
      {"decoded/theta/dawa", 0x1c39dd4d8c3f7b78ull},
      {"decoded/theta/laplace", 0xbe938b1f2bc41091ull},
      {"engine/grid/dawa", 0xec171973cdf5b88bull},
      {"engine/grid/laplace", 0xcdcb13a20066bf50ull},
      {"engine/line/dawa", 0xceaca1d5acc58515ull},
      {"engine/line/laplace", 0x07d0223b217a8792ull},
      {"engine/ring/dawa", 0x8cb838258090ff15ull},
      {"engine/ring/laplace", 0xbcfb48117dbb77d2ull},
      {"engine/slab-ranges/dawa", 0x22a848014dc0bfe8ull},
      {"engine/slab-ranges/laplace", 0x7ad5d67d80dc8b9eull},
      {"engine/slab/dawa", 0x7c46bf0a31030e2aull},
      {"engine/slab/laplace", 0xaa2e0aaefb3866d6ull},
      {"engine/theta/dawa", 0xe68f99f6eee31c29ull},
      {"engine/theta/laplace", 0xa4943f4e6e24040cull},
      {"fast-stream/slab/dawa", 0x94ca53bec4bb7660ull},
      {"fast-stream/slab/laplace", 0x94ca53bec4bb7660ull},
      {"fast-submit/slab/dawa", 0x94ca53bec4bb7660ull},
      {"fast-submit/slab/laplace", 0x94ca53bec4bb7660ull},
      {"restored/grid/dawa", 0xec171973cdf5b88bull},
      {"restored/grid/laplace", 0xcdcb13a20066bf50ull},
      {"restored/line/dawa", 0xceaca1d5acc58515ull},
      {"restored/line/laplace", 0x07d0223b217a8792ull},
      {"restored/ring/dawa", 0x8cb838258090ff15ull},
      {"restored/ring/laplace", 0xbcfb48117dbb77d2ull},
      {"restored/slab-ranges/dawa", 0x22a848014dc0bfe8ull},
      {"restored/slab-ranges/laplace", 0x7ad5d67d80dc8b9eull},
      {"restored/slab/dawa", 0x7c46bf0a31030e2aull},
      {"restored/slab/laplace", 0xaa2e0aaefb3866d6ull},
      {"restored/theta/dawa", 0xe68f99f6eee31c29ull},
      {"restored/theta/laplace", 0xa4943f4e6e24040cull},
      {"run/grid/dawa", 0xeb2bde74768410fdull},
      {"run/grid/laplace", 0xeb2bde74768410fdull},
      {"run/line/dawa", 0xcad4a2d0ab208d7bull},
      {"run/line/laplace", 0x598ffa1df4efde6dull},
      {"run/ring/dawa", 0xb2e8a3be0e8ac0e9ull},
      {"run/ring/laplace", 0xca53c4ff3916cf48ull},
      {"run/slab/dawa", 0xb2ab95a5b21bc2ecull},
      {"run/slab/laplace", 0xb2ab95a5b21bc2ecull},
      {"run/theta/dawa", 0x1c39dd4d8c3f7b78ull},
      {"run/theta/laplace", 0xbe938b1f2bc41091ull},
      {"sat-stream/cube/dawa", 0xb55d7c0db6b68064ull},
      {"sat-stream/cube/laplace", 0xb55d7c0db6b68064ull},
      {"sat-stream/grid/dawa", 0xc50c49710bde3c7aull},
      {"sat-stream/grid/laplace", 0xc50c49710bde3c7aull},
      {"sat-stream/line/dawa", 0x4415cf60d019d42bull},
      {"sat-stream/line/laplace", 0x6d736d683fa5a695ull},
      {"sat-stream/ring/dawa", 0xa17e31e44ed32061ull},
      {"sat-stream/ring/laplace", 0x7f757317245e22e6ull},
      {"sat-stream/theta/dawa", 0x6e11cc94d161d25full},
      {"sat-stream/theta/laplace", 0x5e88614c25ad7f08ull},
      {"sat-submit/cube/dawa", 0xb55d7c0db6b68064ull},
      {"sat-submit/cube/laplace", 0xb55d7c0db6b68064ull},
      {"sat-submit/grid/dawa", 0xc50c49710bde3c7aull},
      {"sat-submit/grid/laplace", 0xc50c49710bde3c7aull},
      {"sat-submit/line/dawa", 0x4415cf60d019d42bull},
      {"sat-submit/line/laplace", 0x6d736d683fa5a695ull},
      {"sat-submit/ring/dawa", 0xa17e31e44ed32061ull},
      {"sat-submit/ring/laplace", 0x7f757317245e22e6ull},
      {"sat-submit/theta/dawa", 0x6e11cc94d161d25full},
      {"sat-submit/theta/laplace", 0x5e88614c25ad7f08ull},
  };
  return pins;
}

void ExpectPinned(const Hashes& seen) {
  for (const auto& [name, hash] : seen) {
    const auto it = Pins().find(name);
    const bool ok = it != Pins().end() && it->second == hash;
    EXPECT_TRUE(ok) << "answer pin moved or missing";
    if (!ok) {
      std::printf("      {\"%s\", 0x%016" PRIx64 "ull},\n", name.c_str(), hash);
    }
  }
}

// ---------------------------------------------------------------------
// Mechanism paths: Run, and RunPrecomputed over a decoded precompute.

TEST(AnswerPins, MechanismReleases) {
  Hashes seen;
  for (const Subject& subject : Subjects()) {
    const Vector x = Ramp(subject.policy.domain_size());
    for (bool dd : {false, true}) {
      SCOPED_TRACE(PinName("mechanism", subject.name, dd));
      Result<Plan> planned = PlanMechanism(PlanRequest{subject.policy, dd, {}});
      ASSERT_TRUE(planned.ok()) << planned.status().ToString();
      const Plan& plan = planned.ValueOrDie();
      EXPECT_EQ(plan.kind, subject.kind);
      const BlowfishMechanism& mech = *plan.mechanism;

      Rng run_rng(kSeed);
      const Vector direct = mech.Run(x, kEpsilon, &run_rng);
      seen[PinName("run", subject.name, dd)] = Fnv1a(direct);

      const auto pre = mech.PrecomputeRelease(x);
      ASSERT_NE(pre, nullptr);
      BlowfishMechanism::PrecomputePayload payload;
      pre->EncodePayload(&payload);
      const auto decoded = mech.DecodePrecompute(pre->SerialFamily(), payload);
      ASSERT_NE(decoded, nullptr) << pre->SerialFamily();
      Rng pre_rng(kSeed);
      const Vector replayed = mech.RunPrecomputed(*decoded, kEpsilon, &pre_rng);
      EXPECT_EQ(Fnv1a(replayed), Fnv1a(direct));
      seen[PinName("decoded", subject.name, dd)] = Fnv1a(replayed);
    }
  }
  ExpectPinned(seen);
}

// ---------------------------------------------------------------------
// Engine paths.

EngineOptions SeededOptions(const std::string& snapshot_dir = "") {
  EngineOptions options;
  options.seed = kSeed;
  options.snapshot_path = snapshot_dir;
  return options;
}

void RegisterAll(QueryEngine* engine) {
  for (Subject& subject : Subjects()) {
    const Vector x = Ramp(subject.policy.domain_size());
    ASSERT_TRUE(
        engine->RegisterPolicy(subject.name, std::move(subject.policy), x, 1e6)
            .ok());
  }
}

QueryRequest SlabRanges(bool dd) {
  Rng rng(17);
  QueryRequest request;
  request.session = "s";
  request.policy = "slab";
  request.ranges = RandomRanges(DomainShape({8, 8}), 37, &rng);
  request.epsilon = kEpsilon;
  request.prefer_data_dependent = dd;
  return request;
}

// One fixed sequence on one engine: a dense identity Submit for every
// subject and inner mechanism, then the slab policy's range fast path.
Hashes EngineSequence(QueryEngine* engine, const char* path) {
  Hashes seen;
  EXPECT_TRUE(engine->OpenSession("s", 1e6).ok());
  for (const Subject& subject : Subjects()) {
    for (bool dd : {false, true}) {
      QueryRequest request;
      request.session = "s";
      request.policy = subject.name;
      request.workload = IdentityWorkload(subject.policy.domain_size());
      request.epsilon = kEpsilon;
      request.prefer_data_dependent = dd;
      Result<QueryResult> result = engine->Submit(request);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) continue;
      EXPECT_EQ(result.ValueOrDie().plan_kind, subject.kind);
      seen[PinName(path, subject.name, dd)] =
          Fnv1a(result.ValueOrDie().answers);
    }
  }
  for (bool dd : {false, true}) {
    Result<QueryResult> result = engine->Submit(SlabRanges(dd));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) continue;
    EXPECT_TRUE(result.ValueOrDie().range_fast_path);
    seen[PinName(path, "slab-ranges", dd)] = Fnv1a(result.ValueOrDie().answers);
  }
  return seen;
}

std::string MakeTempDir() {
  char tmpl[] = "/tmp/bfpins.XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

void RemoveTree(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

// Dense Submit and the range fast path on a live engine, then the same
// sequence on an engine restored from that engine's snapshot: restored
// precomputes must release the bits fresh ones do.
TEST(AnswerPins, EngineSubmitAndSnapshotRestore) {
  const std::string dir = MakeTempDir();
  Hashes live;
  {
    QueryEngine engine(SeededOptions(dir));
    RegisterAll(&engine);
    live = EngineSequence(&engine, "engine");
    ASSERT_TRUE(engine.WriteSnapshot().ok());
  }
  QueryEngine restored(SeededOptions(dir));
  EXPECT_EQ(restored.snapshot_restore_stats().items_skipped, 0u);
  EXPECT_GT(restored.snapshot_restore_stats().transforms_restored, 0u);
  Hashes seen = EngineSequence(&restored, "restored");
  for (const auto& [name, hash] : live) {
    EXPECT_EQ(seen.at("restored" + name.substr(name.find('/'))), hash) << name;
  }
  seen.insert(live.begin(), live.end());
  ExpectPinned(seen);
  RemoveTree(dir);
}

// The range fast path as the first release of a fresh engine, once
// materialized and once streamed in uneven chunks.
TEST(AnswerPins, RangeFastPathSubmitAndStream) {
  Hashes seen;
  for (bool dd : {false, true}) {
    QueryEngine submitted(SeededOptions());
    RegisterAll(&submitted);
    ASSERT_TRUE(submitted.OpenSession("s", 1e6).ok());
    Result<QueryResult> full = submitted.Submit(SlabRanges(dd));
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_TRUE(full.ValueOrDie().range_fast_path);
    seen[PinName("fast-submit", "slab", dd)] = Fnv1a(full.ValueOrDie().answers);

    QueryEngine streamed(SeededOptions());
    RegisterAll(&streamed);
    ASSERT_TRUE(streamed.OpenSession("s", 1e6).ok());
    StreamOptions options;
    options.chunk_queries = 8;
    Result<std::shared_ptr<ResultStream>> stream =
        streamed.SubmitStream(SlabRanges(dd), options);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    ASSERT_TRUE(stream.ValueOrDie()->header().ValueOrDie().range_fast_path);
    Vector all;
    for (;;) {
      StreamChunk chunk;
      Result<StreamNext> next = stream.ValueOrDie()->Next(&chunk);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (next.ValueOrDie() == StreamNext::kDone) break;
      ASSERT_EQ(next.ValueOrDie(), StreamNext::kChunk);
      all.insert(all.end(), chunk.values.begin(), chunk.values.end());
    }
    EXPECT_EQ(Fnv1a(all), Fnv1a(full.ValueOrDie().answers));
    seen[PinName("fast-stream", "slab", dd)] = Fnv1a(all);
  }
  ExpectPinned(seen);
}

// ---------------------------------------------------------------------
// Summed-area range path: range workloads on histogram-release plans
// are answered from x̂ through a summed-area table. The subjects reach
// the 1-D reader (line, theta, ring), the 2-D reader (grid) and the
// generic corner loop (a 4×4×4 θ=1 grid).

std::vector<Subject> SummedAreaSubjects() {
  std::vector<Subject> subjects;
  for (Subject& subject : Subjects()) {
    if (std::strcmp(subject.name, "slab") != 0) {
      subjects.push_back(std::move(subject));
    }
  }
  subjects.push_back(
      {"cube", "grid-matrix", GridPolicy(DomainShape({4, 4, 4}), 1)});
  return subjects;
}

QueryRequest SummedAreaRanges(const Subject& subject, bool dd) {
  Rng rng(19);
  QueryRequest request;
  request.session = "s";
  request.policy = subject.name;
  request.ranges = RandomRanges(subject.policy.domain, 41, &rng);
  request.epsilon = kEpsilon;
  request.prefer_data_dependent = dd;
  return request;
}

// Every subject's ranges in one fixed order on a fresh engine, once
// materialized and once streamed in chunks of 7 (41 = 5·7 + 6, so the
// last chunk is short).
TEST(AnswerPins, SummedAreaRangesSubmitAndStream) {
  Hashes seen;
  for (bool dd : {false, true}) {
    QueryEngine submitted(SeededOptions());
    QueryEngine streamed(SeededOptions());
    for (QueryEngine* engine : {&submitted, &streamed}) {
      for (Subject& subject : SummedAreaSubjects()) {
        const Vector x = Ramp(subject.policy.domain_size());
        ASSERT_TRUE(engine
                        ->RegisterPolicy(subject.name,
                                         std::move(subject.policy), x, 1e6)
                        .ok());
      }
      ASSERT_TRUE(engine->OpenSession("s", 1e6).ok());
    }
    for (const Subject& subject : SummedAreaSubjects()) {
      SCOPED_TRACE(PinName("sat", subject.name, dd));
      Result<QueryResult> full =
          submitted.Submit(SummedAreaRanges(subject, dd));
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      EXPECT_FALSE(full.ValueOrDie().range_fast_path);
      EXPECT_EQ(full.ValueOrDie().plan_kind, subject.kind);
      seen[PinName("sat-submit", subject.name, dd)] =
          Fnv1a(full.ValueOrDie().answers);

      StreamOptions options;
      options.chunk_queries = 7;
      Result<std::shared_ptr<ResultStream>> stream =
          streamed.SubmitStream(SummedAreaRanges(subject, dd), options);
      ASSERT_TRUE(stream.ok()) << stream.status().ToString();
      Vector all;
      for (;;) {
        StreamChunk chunk;
        Result<StreamNext> next = stream.ValueOrDie()->Next(&chunk);
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        if (next.ValueOrDie() == StreamNext::kDone) break;
        ASSERT_EQ(next.ValueOrDie(), StreamNext::kChunk);
        all.insert(all.end(), chunk.values.begin(), chunk.values.end());
      }
      EXPECT_EQ(Fnv1a(all), Fnv1a(full.ValueOrDie().answers));
      seen[PinName("sat-stream", subject.name, dd)] = Fnv1a(all);
    }
  }
  ExpectPinned(seen);
}

}  // namespace
}  // namespace blowfish
