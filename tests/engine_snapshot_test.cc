// Warm-restart snapshot store tests (engine/snapshot_store.h wired
// through QueryEngine). The contract under test:
//
//   * a restarted engine with a valid snapshot answers previously-warm
//     requests bit-identically to a cold engine with the same seed —
//     zero plan-cache misses, zero transform recomputation;
//   * the store is strictly fail-open: a missing store is a cold
//     start, a corrupt newest generation falls back to the previous
//     one, and when nothing valid remains the engine still serves —
//     corruption can make restart slower, never turn into a refusal;
//   * WriteSnapshot is atomic and prunes to keep_generations.
//
// The corruption matrix covers the five cases the issue names:
// missing store, torn header, truncated section, CRC mismatch
// mid-file, and a stale-but-valid older generation.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/policy.h"
#include "engine/query_engine.h"
#include "engine/snapshot_store.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

Vector Ramp(size_t n) {
  Vector x(n, 0.0);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 13);
  return x;
}

std::string MakeTempDir() {
  char tmpl[] = "/tmp/bfsnap.XXXXXX";
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

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

// Cycle graph: connected, not a tree, not a distance-threshold family,
// so the planner lands on the spanning-tree fallback — the strategy
// whose cold cost is the CertifySpanner pass the snapshot hint skips.
Policy RingPolicy(size_t k) {
  std::vector<Graph::Edge> edges;
  for (size_t i = 0; i + 1 < k; ++i) edges.push_back({i, i + 1});
  edges.push_back({0, k - 1});
  return Policy{"C_" + std::to_string(k), DomainShape({k}),
                Graph(k, std::move(edges))};
}

// One of every strategy family the planner knows, so the snapshot
// round-trips every precompute wire schema (tree/1, grid/1, slab/1)
// and every plan-hint shape (stretch-carrying and stretch-free).
struct Subject {
  const char* name;
  Policy policy;
  size_t domain;
};

std::vector<Subject> Subjects() {
  std::vector<Subject> subjects;
  subjects.push_back({"line", LinePolicy(16), 16});
  subjects.push_back({"theta", Theta1DPolicy(24, 3), 24});
  subjects.push_back({"grid", GridPolicy(DomainShape({6, 6}), 1), 36});
  subjects.push_back({"slab", GridPolicy(DomainShape({8, 8}), 4), 64});
  subjects.push_back({"ring", RingPolicy(12), 12});
  return subjects;
}

void RegisterAll(QueryEngine* engine) {
  for (Subject& subject : Subjects()) {
    ASSERT_TRUE(engine
                    ->RegisterPolicy(subject.name, std::move(subject.policy),
                                     Ramp(subject.domain), 1e6)
                    .ok());
  }
  ASSERT_TRUE(engine->OpenSession("s", 1e6).ok());
}

std::vector<QueryRequest> RequestSequence() {
  std::vector<QueryRequest> requests;
  for (const Subject& subject : Subjects()) {
    QueryRequest request;
    request.session = "s";
    request.policy = subject.name;
    request.workload = IdentityWorkload(subject.domain);
    request.epsilon = 0.01;
    requests.push_back(std::move(request));
  }
  return requests;
}

EngineOptions SnapOptions(const std::string& dir) {
  EngineOptions options;
  options.seed = 2015;
  options.snapshot_path = dir;
  return options;
}

// Builds a store with two warm generations and returns the directory.
// Generation 2 is the newest; both restore the same five policies.
std::string BuildTwoGenerationStore() {
  const std::string dir = MakeTempDir();
  QueryEngine engine(SnapOptions(dir));
  RegisterAll(&engine);
  for (const QueryRequest& request : RequestSequence()) {
    EXPECT_TRUE(engine.Submit(request).ok());
  }
  EXPECT_TRUE(engine.WriteSnapshot().ok());
  EXPECT_TRUE(engine.WriteSnapshot().ok());
  return dir;
}

TEST(SnapshotStoreTest, MissingStoreIsColdStartNotError) {
  const std::string dir = MakeTempDir();
  const std::string absent = dir + "/never-written";

  QueryEngine engine(SnapOptions(absent));
  EXPECT_FALSE(engine.snapshot_restore_stats().loaded);
  EXPECT_TRUE(engine.snapshot_restore_stats().skipped_files.empty());

  // Fail-open: the engine serves normally from cold.
  RegisterAll(&engine);
  Result<QueryResult> result = engine.Submit(RequestSequence()[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  RemoveTree(absent);
  RemoveTree(dir);
}

TEST(SnapshotStoreTest, WarmRestartIsBitIdenticalWithZeroColdWork) {
  const std::string dir = MakeTempDir();
  size_t transforms_written = 0;

  {
    QueryEngine warm(SnapOptions(dir));
    RegisterAll(&warm);
    for (const QueryRequest& request : RequestSequence()) {
      ASSERT_TRUE(warm.Submit(request).ok());
    }
    transforms_written = warm.transform_cache_stats().entries;
    ASSERT_TRUE(warm.WriteSnapshot().ok());
  }

  // Restarted engine, restored from the snapshot.
  QueryEngine restored(SnapOptions(dir));
  const QueryEngine::SnapshotRestoreStats& stats =
      restored.snapshot_restore_stats();
  EXPECT_TRUE(stats.loaded);
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.policies_restored, 5u);
  EXPECT_EQ(stats.plans_restored, 5u);
  EXPECT_EQ(stats.transforms_restored, transforms_written);
  EXPECT_EQ(stats.items_skipped, 0u);
  EXPECT_TRUE(stats.skipped_files.empty());
  ASSERT_TRUE(restored.OpenSession("s", 1e6).ok());

  // Cold reference: same seed, same registration order (so versions
  // and rng streams line up), no snapshot involved.
  EngineOptions cold_options;
  cold_options.seed = 2015;
  QueryEngine cold(cold_options);
  RegisterAll(&cold);

  // Every previously-warm request is warm *before* any submit: no
  // replanning, no transform recomputation left to do.
  const size_t restored_transforms = restored.transform_cache_stats().entries;
  for (const QueryRequest& request : RequestSequence()) {
    EXPECT_TRUE(restored.IsWarm(request)) << request.policy;
  }

  for (const QueryRequest& request : RequestSequence()) {
    Result<QueryResult> warm_result = restored.Submit(request);
    Result<QueryResult> cold_result = cold.Submit(request);
    ASSERT_TRUE(warm_result.ok()) << warm_result.status().ToString();
    ASSERT_TRUE(cold_result.ok()) << cold_result.status().ToString();
    const QueryResult& w = warm_result.ValueOrDie();
    const QueryResult& c = cold_result.ValueOrDie();
    EXPECT_EQ(w.plan_kind, c.plan_kind) << request.policy;
    EXPECT_TRUE(w.plan_cache_hit) << request.policy;
    ASSERT_EQ(w.answers.size(), c.answers.size()) << request.policy;
    for (size_t i = 0; i < w.answers.size(); ++i) {
      // Bit-identical, not approximately equal: transforms round trip
      // as IEEE bit patterns and noise streams depend only on (seed,
      // submit ordinal), which match across the two engines.
      EXPECT_EQ(w.answers[i], c.answers[i])
          << request.policy << " answer " << i;
    }
  }

  // Zero plan-cache misses and zero transform inserts across the
  // whole warm replay.
  EXPECT_EQ(restored.plan_cache_stats().misses, 0u);
  EXPECT_EQ(restored.plan_cache_stats().hits, RequestSequence().size());
  EXPECT_EQ(restored.transform_cache_stats().entries, restored_transforms);

  RemoveTree(dir);
}

TEST(SnapshotStoreTest, VerifyReportsCleanFile) {
  const std::string dir = BuildTwoGenerationStore();
  Result<std::vector<std::string>> files = snapshot::ListFiles(dir);
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files.ValueOrDie().size(), 2u);  // keep_generations = 2

  snapshot::VerifyReport report;
  ASSERT_TRUE(
      snapshot::Verify(dir + "/" + files.ValueOrDie().back(), &report).ok());
  EXPECT_TRUE(report.footer_ok);
  EXPECT_TRUE(report.errors.empty());
  EXPECT_EQ(report.generation, 2u);
  EXPECT_EQ(report.policies, 5u);
  EXPECT_GT(report.transforms, 0u);
  EXPECT_EQ(report.valid_prefix_bytes,
            ReadFileBytes(dir + "/" + files.ValueOrDie().back()).size());

  RemoveTree(dir);
}

TEST(SnapshotStoreTest, WritePrunesToKeepGenerations) {
  const std::string dir = MakeTempDir();
  QueryEngine engine(SnapOptions(dir));
  RegisterAll(&engine);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(engine.WriteSnapshot().ok());

  Result<std::vector<std::string>> files = snapshot::ListFiles(dir);
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files.ValueOrDie().size(), 2u);
  EXPECT_EQ(files.ValueOrDie().back(), snapshot::kFileName.Format(4));
  EXPECT_EQ(files.ValueOrDie().front(), snapshot::kFileName.Format(3));

  RemoveTree(dir);
}

TEST(SnapshotStoreTest, SnapshotFilesAreOwnerOnly) {
  // A snapshot carries the registered private histograms: no group or
  // other access bits, whatever the process umask allows.
  const std::string dir = MakeTempDir();
  QueryEngine engine(SnapOptions(dir));
  RegisterAll(&engine);
  ASSERT_TRUE(engine.WriteSnapshot().ok());

  Result<std::vector<std::string>> files = snapshot::ListFiles(dir);
  ASSERT_TRUE(files.ok());
  ASSERT_FALSE(files.ValueOrDie().empty());
  for (const std::string& name : files.ValueOrDie()) {
    struct stat st;
    ASSERT_EQ(::stat((dir + "/" + name).c_str(), &st), 0);
    EXPECT_EQ(st.st_mode & 077, 0u) << name;
  }

  RemoveTree(dir);
}

// A snapshot section can decode under its CRC and still hold an edge
// list that is no policy graph. Restore skips each such policy and
// keeps the valid ones.
TEST(SnapshotStoreTest, RestoreSkipsPoliciesWithInvalidEdgeLists) {
  const std::string dir = MakeTempDir();
  const auto make = [](const std::string& name,
                       std::vector<Graph::Edge> edges) {
    SnapshotPolicy sp;
    sp.registered_name = name;
    sp.policy_name = name;
    sp.version = 1;
    sp.epsilon_cap = 1.0;
    sp.dims = {8};
    sp.num_vertices = 8;
    sp.edges = std::move(edges);
    sp.data = Ramp(8);
    return sp;
  };
  std::vector<Graph::Edge> line;
  for (size_t i = 0; i + 1 < 8; ++i) line.push_back({i, i + 1});
  SnapshotImage image;
  image.policies.push_back(make("duplicate", {{0, 1}, {1, 2}, {1, 0}}));
  image.policies.push_back(make("self-loop", {{0, 1}, {3, 3}}));
  image.policies.push_back(make("out-of-range", {{0, 1}, {2, 8}}));
  image.policies.push_back(make("line", line));
  ASSERT_TRUE(snapshot::Write(dir, image, 2).ok());

  QueryEngine engine(SnapOptions(dir));
  const QueryEngine::SnapshotRestoreStats& stats =
      engine.snapshot_restore_stats();
  EXPECT_TRUE(stats.loaded);
  EXPECT_EQ(stats.policies_restored, 1u);
  EXPECT_EQ(stats.items_skipped, 3u);

  ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.workload = IdentityWorkload(8);
  request.epsilon = 0.01;
  Result<QueryResult> result = engine.Submit(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().answers.size(), 8u);
  request.policy = "duplicate";
  EXPECT_FALSE(engine.Submit(request).ok());

  RemoveTree(dir);
}

// ---- fail-open corruption matrix -----------------------------------

// Corrupts the newest generation with `mutate` and asserts the engine
// falls back to generation 1 and still serves warm.
void ExpectFallbackToPreviousGeneration(
    void (*mutate)(const std::string& newest_path)) {
  const std::string dir = BuildTwoGenerationStore();
  mutate(dir + "/" + snapshot::kFileName.Format(2));

  QueryEngine engine(SnapOptions(dir));
  const QueryEngine::SnapshotRestoreStats& stats =
      engine.snapshot_restore_stats();
  EXPECT_TRUE(stats.loaded);
  EXPECT_EQ(stats.generation, 1u);  // the stale-but-valid generation
  ASSERT_EQ(stats.skipped_files.size(), 1u);
  EXPECT_NE(stats.skipped_files[0].find(snapshot::kFileName.Format(2)),
            std::string::npos)
      << stats.skipped_files[0];
  EXPECT_EQ(stats.policies_restored, 5u);

  ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());
  for (const QueryRequest& request : RequestSequence()) {
    EXPECT_TRUE(engine.IsWarm(request)) << request.policy;
    EXPECT_TRUE(engine.Submit(request).ok()) << request.policy;
  }
  EXPECT_EQ(engine.plan_cache_stats().misses, 0u);

  RemoveTree(dir);
}

TEST(SnapshotStoreTest, TornHeaderFallsBackToPreviousGeneration) {
  ExpectFallbackToPreviousGeneration([](const std::string& path) {
    std::vector<uint8_t> bytes = ReadFileBytes(path);
    ASSERT_GT(bytes.size(), 24u);
    bytes[10] ^= 0xff;  // inside the header's CRC-covered region
    WriteFileBytes(path, bytes);
  });
}

TEST(SnapshotStoreTest, TruncatedSectionFallsBackToPreviousGeneration) {
  ExpectFallbackToPreviousGeneration([](const std::string& path) {
    std::vector<uint8_t> bytes = ReadFileBytes(path);
    ASSERT_GT(bytes.size(), 64u);
    bytes.resize(bytes.size() / 2);  // tears mid-frame, loses the footer
    WriteFileBytes(path, bytes);
  });
}

TEST(SnapshotStoreTest, MidFileCrcMismatchFallsBackToPreviousGeneration) {
  ExpectFallbackToPreviousGeneration([](const std::string& path) {
    std::vector<uint8_t> bytes = ReadFileBytes(path);
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() / 2] ^= 0x01;  // silent bit flip inside a frame
    WriteFileBytes(path, bytes);
  });
}

TEST(SnapshotStoreTest, AllGenerationsCorruptIsColdStartNotRefusal) {
  const std::string dir = BuildTwoGenerationStore();
  for (uint64_t gen = 1; gen <= 2; ++gen) {
    const std::string path = dir + "/" + snapshot::kFileName.Format(gen);
    std::vector<uint8_t> bytes = ReadFileBytes(path);
    ASSERT_GT(bytes.size(), 24u);
    bytes[3] ^= 0xff;  // break the magic
    WriteFileBytes(path, bytes);
  }

  QueryEngine engine(SnapOptions(dir));
  EXPECT_FALSE(engine.snapshot_restore_stats().loaded);
  EXPECT_EQ(engine.snapshot_restore_stats().skipped_files.size(), 2u);

  // Still a working engine: cold, never refusing.
  RegisterAll(&engine);
  Result<QueryResult> result = engine.Submit(RequestSequence()[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  RemoveTree(dir);
}

TEST(SnapshotStoreTest, VerifyDistinguishesTornTailFromMidFileDamage) {
  const std::string dir = BuildTwoGenerationStore();
  const std::string newest = dir + "/" + snapshot::kFileName.Format(2);
  const std::vector<uint8_t> pristine = ReadFileBytes(newest);

  // Torn tail: valid prefix, footer gone.
  std::vector<uint8_t> torn = pristine;
  torn.resize(torn.size() - 5);
  WriteFileBytes(newest, torn);
  snapshot::VerifyReport torn_report;
  ASSERT_TRUE(snapshot::Verify(newest, &torn_report).ok());
  EXPECT_FALSE(torn_report.footer_ok);
  EXPECT_FALSE(torn_report.errors.empty());
  EXPECT_GT(torn_report.valid_prefix_bytes, 24u);

  // Mid-file damage: the valid prefix ends at the flipped frame.
  std::vector<uint8_t> flipped = pristine;
  flipped[40] ^= 0x01;
  WriteFileBytes(newest, flipped);
  snapshot::VerifyReport flip_report;
  ASSERT_TRUE(snapshot::Verify(newest, &flip_report).ok());
  EXPECT_FALSE(flip_report.errors.empty());
  EXPECT_LT(flip_report.valid_prefix_bytes, pristine.size());

  RemoveTree(dir);
}

}  // namespace
}  // namespace blowfish
