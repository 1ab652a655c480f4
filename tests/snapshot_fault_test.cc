// The snapshot publish path (tmp → fsync → rename → directory fsync)
// under injected I/O faults. QueryEngine::WriteSnapshot runs through
// EngineOptions::file_io, the FileIo seam it shares with the ε-spend
// journal, so the same FaultInjectingFileIo that drives the journal's
// fault battery drives this matrix. For every fault:
//
//   * the write reports a clean error with the injected status code
//     (a short write is progress, not a fault, and must succeed);
//   * no `.tmp` is left behind;
//   * every published `snapshot-*.bfs` verifies clean;
//   * a reopened engine restores the previous generation;
//   * the next fault-free write publishes the next generation.
//
// A stale `.tmp` left by a crash must not leak into the next
// generation either.

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "engine/durable_file.h"
#include "engine/query_engine.h"
#include "engine/snapshot_store.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/bfsnapfault.XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

std::vector<std::string> DirEntries(const std::string& dir) {
  std::vector<std::string> names;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(d);
  }
  return names;
}

void RemoveTree(const std::string& dir) {
  for (const std::string& name : DirEntries(dir)) {
    ::unlink((dir + "/" + name).c_str());
  }
  ::rmdir(dir.c_str());
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Vector Ramp(size_t n) {
  Vector x(n, 0.0);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 7);
  return x;
}

EngineOptions SnapOptions(const std::string& dir, FileIo* io) {
  EngineOptions options;
  options.seed = 7;
  options.snapshot_path = dir;
  options.file_io = io;
  return options;
}

// Registers three policies and warms their transforms, so a snapshot
// carries policy and transform sections.
void RegisterAndWarm(QueryEngine* engine) {
  ASSERT_TRUE(
      engine->RegisterPolicy("line", LinePolicy(16), Ramp(16), 1e6).ok());
  ASSERT_TRUE(engine
                  ->RegisterPolicy("grid", GridPolicy(DomainShape({6, 6}), 1),
                                   Ramp(36), 1e6)
                  .ok());
  ASSERT_TRUE(engine
                  ->RegisterPolicy("theta", Theta1DPolicy(24, 3), Ramp(24),
                                   1e6)
                  .ok());
  ASSERT_TRUE(engine->OpenSession("s", 1e6).ok());
  const std::vector<std::pair<const char*, size_t>> subjects = {
      {"line", 16}, {"grid", 36}, {"theta", 24}};
  for (const auto& [name, domain] : subjects) {
    QueryRequest request;
    request.session = "s";
    request.policy = name;
    request.workload = IdentityWorkload(domain);
    request.epsilon = 0.01;
    ASSERT_TRUE(engine->Submit(request).ok()) << name;
  }
}

// No tmp file survives, and every published generation verifies clean.
void ExpectCleanStore(const std::string& dir) {
  for (const std::string& name : DirEntries(dir)) {
    EXPECT_FALSE(EndsWith(name, ".tmp")) << "leftover " << name;
  }
  Result<std::vector<std::string>> files = snapshot::ListFiles(dir);
  ASSERT_TRUE(files.ok());
  ASSERT_FALSE(files.ValueOrDie().empty());
  for (const std::string& name : files.ValueOrDie()) {
    snapshot::VerifyReport report;
    ASSERT_TRUE(snapshot::Verify(dir + "/" + name, &report).ok()) << name;
    EXPECT_TRUE(report.errors.empty()) << name << ": " << report.errors[0];
    EXPECT_TRUE(report.footer_ok) << name;
    EXPECT_EQ(report.policies, 3u) << name;
    EXPECT_GT(report.transforms, 0u) << name;
  }
}

// A fresh, fault-free engine restores `generation` with nothing skipped.
void ExpectRestores(const std::string& dir, uint64_t generation) {
  QueryEngine reopened(SnapOptions(dir, nullptr));
  const QueryEngine::SnapshotRestoreStats& stats =
      reopened.snapshot_restore_stats();
  EXPECT_TRUE(stats.loaded);
  EXPECT_EQ(stats.generation, generation);
  EXPECT_EQ(stats.policies_restored, 3u);
  EXPECT_TRUE(stats.skipped_files.empty());
}

struct FaultCase {
  const char* name;
  /// Arms `plan` so the next snapshot write meets the fault; call
  /// indices are global, so they are taken relative to the counters.
  void (*arm)(FileFaultPlan* plan);
  StatusCode expected;  ///< kOk: the write must still succeed
};

uint64_t NextAppend(const FileFaultPlan& plan) {
  return plan.append_calls.load() + 1;
}

const FaultCase kFaults[] = {
    {"append_fails_at_first_call",
     [](FileFaultPlan* p) { p->fail_append_at = NextAppend(*p); },
     StatusCode::kIOError},
    {"append_fails_at_second_call_after_short_write",
     [](FileFaultPlan* p) {
       p->short_append_at = NextAppend(*p);
       p->fail_append_at = NextAppend(*p) + 1;
     },
     StatusCode::kIOError},
    {"torn_write",
     [](FileFaultPlan* p) {
       p->fail_append_at = NextAppend(*p);
       p->torn_bytes_on_failure = 100;
     },
     StatusCode::kIOError},
    {"enospc",
     [](FileFaultPlan* p) {
       p->fail_append_at = NextAppend(*p);
       p->append_error = StatusCode::kUnavailable;
     },
     StatusCode::kUnavailable},
    {"fsync_fails",
     [](FileFaultPlan* p) { p->fail_sync_at = p->sync_calls.load() + 1; },
     StatusCode::kIOError},
    {"rename_fails", [](FileFaultPlan* p) { p->fail_rename = true; },
     StatusCode::kIOError},
    {"tmp_reset_fails", [](FileFaultPlan* p) { p->fail_truncate = true; },
     StatusCode::kIOError},
    {"short_write",
     [](FileFaultPlan* p) { p->short_append_at = NextAppend(*p); },
     StatusCode::kOk},
};

TEST(SnapshotFaultTest, EveryFaultLeavesThePreviousGenerationRestorable) {
  for (const FaultCase& fault : kFaults) {
    SCOPED_TRACE(fault.name);
    const std::string dir = MakeTempDir();
    FileFaultPlan plan;
    FaultInjectingFileIo io(PosixFileIo(), &plan);
    {
      QueryEngine engine(SnapOptions(dir, &io));
      RegisterAndWarm(&engine);
      ASSERT_TRUE(engine.WriteSnapshot().ok());  // generation 1, no fault

      fault.arm(&plan);
      const Status st = engine.WriteSnapshot();
      EXPECT_EQ(st.code(), fault.expected) << st.ToString();
      ExpectCleanStore(dir);
      const uint64_t published = fault.expected == StatusCode::kOk ? 2 : 1;
      ExpectRestores(dir, published);

      // Disarmed, the same engine publishes the next generation.
      plan.fail_append_at = 0;
      plan.short_append_at = 0;
      plan.fail_sync_at = 0;
      plan.fail_rename = false;
      plan.fail_truncate = false;
      ASSERT_TRUE(engine.WriteSnapshot().ok());
      ExpectCleanStore(dir);
      ExpectRestores(dir, published + 1);
    }
    RemoveTree(dir);
  }
}

TEST(SnapshotFaultTest, StaleTmpDoesNotLeakIntoTheNextGeneration) {
  const std::string dir = MakeTempDir();
  FileFaultPlan plan;
  FaultInjectingFileIo io(PosixFileIo(), &plan);
  QueryEngine engine(SnapOptions(dir, &io));
  RegisterAndWarm(&engine);
  ASSERT_TRUE(engine.WriteSnapshot().ok());

  // What a writer killed mid-write leaves: the next generation's tmp,
  // full of bytes that are not a snapshot.
  {
    std::ofstream stale(dir + "/" + snapshot::kFileName.Format(2) + ".tmp",
                        std::ios::binary);
    stale << std::string(4096, '\xAB');
  }
  ASSERT_TRUE(engine.WriteSnapshot().ok());
  ExpectCleanStore(dir);
  ExpectRestores(dir, 2);
  RemoveTree(dir);
}

}  // namespace
}  // namespace blowfish
