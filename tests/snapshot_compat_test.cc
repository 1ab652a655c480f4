// Snapshot files written before spanner certification became cheap
// carry a certified stretch in every plan-hint frame (a u64 after the
// hint's kind), which the restore path once trusted instead of
// re-certifying. The field is now ignored: written as 0, read and
// discarded. These tests take a snapshot from the current writer, put
// a nonzero legacy value into every hint, re-frame it under a valid
// CRC, and check that the file verifies clean (snapshot::Verify is
// what snapshot_fsck runs) and restores warm and bit-identical.
//
// The legacy value is deliberately wrong (99): a restore that still
// trusted it would run the spanner plans at ε/99 and the answers would
// no longer match a cold engine's.

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "core/policy.h"
#include "engine/query_engine.h"
#include "engine/snapshot_store.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

constexpr uint64_t kLegacyStretch = 99;

Vector Ramp(size_t n) {
  Vector x(n, 0.0);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 13);
  return x;
}

std::string MakeTempDir() {
  char tmpl[] = "/tmp/bfsnapcompat.XXXXXX";
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

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
  return v;
}

void StoreU64(char* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

// Byte offsets of every plan hint's stretch field in a policy-section
// payload (layout: snapshot_store.cc EncodePolicySection).
std::vector<size_t> HintFieldOffsets(const char* payload) {
  size_t at = 1;  // section type
  const auto str = [&] {
    at += 2 + (static_cast<uint8_t>(payload[at]) |
               (static_cast<uint8_t>(payload[at + 1]) << 8));
  };
  str();                      // registered name
  str();                      // policy name
  at += 8 + 8;                // version, epsilon cap
  uint32_t ndims = 0;
  std::memcpy(&ndims, payload + at, 4);  // little-endian host
  at += 4 + 8 * ndims;
  at += 8;                                 // num_vertices
  at += 8 + 16 * LoadU64(payload + at);    // edges
  at += 8 + 8 * LoadU64(payload + at);     // data vector
  const uint8_t nhints = static_cast<uint8_t>(payload[at++]);
  std::vector<size_t> offsets;
  for (uint8_t i = 0; i < nhints; ++i) {
    at += 1;  // slot
    str();    // kind
    offsets.push_back(at);
    at += 8;
  }
  return offsets;
}

// Walks the frames of a snapshot file. For each policy section, reads
// every hint's stretch field into `*seen` and, when `legacy` is
// nonzero, overwrites it and recomputes the frame's CRC.
void VisitHintFields(std::string* file, uint64_t legacy,
                     std::vector<uint64_t>* seen) {
  constexpr size_t kHeaderBytes = 24;
  size_t at = kHeaderBytes;
  while (at + 8 <= file->size()) {
    uint32_t len = 0;
    std::memcpy(&len, file->data() + at, 4);
    char* payload = file->data() + at + 8;
    ASSERT_LE(at + 8 + len, file->size());
    if (payload[0] == 1) {  // policy section
      for (size_t off : HintFieldOffsets(payload)) {
        seen->push_back(LoadU64(payload + off));
        if (legacy != 0) StoreU64(payload + off, legacy);
      }
      const uint32_t crc = Crc32cMask(Crc32c(payload, len));
      std::memcpy(file->data() + at + 4, &crc, 4);
    }
    at += 8 + len;
  }
  ASSERT_EQ(at, file->size());
}

// Cycle graph: the planner's spanning-tree fallback (stretch k-1).
Policy RingPolicy(size_t k) {
  std::vector<Graph::Edge> edges;
  for (size_t i = 0; i + 1 < k; ++i) edges.push_back({i, i + 1});
  edges.push_back({0, k - 1});
  return Policy{"C_" + std::to_string(k), DomainShape({k}),
                Graph(k, std::move(edges))};
}

struct Subject {
  const char* name;
  Policy policy;
  size_t domain;
};

// Every plan kind, three of them spanner-backed (θ-line, slab, ring).
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
}

std::vector<QueryRequest> Requests() {
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

EngineOptions Options(const std::string& dir) {
  EngineOptions options;
  options.seed = 2015;
  options.snapshot_path = dir;
  return options;
}

std::string NewestFile(const std::string& dir) {
  Result<std::vector<std::string>> files = snapshot::ListFiles(dir);
  EXPECT_TRUE(files.ok());
  EXPECT_FALSE(files.ValueOrDie().empty());
  return dir + "/" + files.ValueOrDie().back();
}

TEST(SnapshotCompat, WriterStoresZeroInTheIgnoredField) {
  const std::string dir = MakeTempDir();
  {
    QueryEngine engine(Options(dir));
    RegisterAll(&engine);
    ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());
    for (const QueryRequest& request : Requests()) {
      ASSERT_TRUE(engine.Submit(request).ok());
    }
    ASSERT_TRUE(engine.WriteSnapshot().ok());
  }
  std::string file = ReadFile(NewestFile(dir));
  std::vector<uint64_t> fields;
  VisitHintFields(&file, 0, &fields);
  EXPECT_EQ(fields, std::vector<uint64_t>(Subjects().size(), 0));
  RemoveTree(dir);
}

TEST(SnapshotCompat, LegacyStretchHintIsIgnoredOnRestore) {
  const std::string dir = MakeTempDir();
  {
    QueryEngine writer(Options(dir));
    RegisterAll(&writer);
    ASSERT_TRUE(writer.OpenSession("s", 1e6).ok());
    for (const QueryRequest& request : Requests()) {
      ASSERT_TRUE(writer.Submit(request).ok());
    }
    ASSERT_TRUE(writer.WriteSnapshot().ok());
  }

  // Turn the file into one an older build could have written.
  const std::string path = NewestFile(dir);
  std::string file = ReadFile(path);
  std::vector<uint64_t> fields;
  VisitHintFields(&file, kLegacyStretch, &fields);
  ASSERT_EQ(fields.size(), Subjects().size());
  WriteFile(path, file);

  // snapshot_fsck's check: every frame and the footer verify.
  snapshot::VerifyReport report;
  ASSERT_TRUE(snapshot::Verify(path, &report).ok());
  EXPECT_TRUE(report.errors.empty());
  EXPECT_TRUE(report.footer_ok);
  EXPECT_EQ(report.policies, Subjects().size());
  EXPECT_EQ(report.valid_prefix_bytes, file.size());

  QueryEngine restored(Options(dir));
  const QueryEngine::SnapshotRestoreStats& stats =
      restored.snapshot_restore_stats();
  EXPECT_TRUE(stats.loaded);
  EXPECT_EQ(stats.policies_restored, Subjects().size());
  EXPECT_EQ(stats.plans_restored, Subjects().size());
  EXPECT_EQ(stats.items_skipped, 0u);
  ASSERT_TRUE(restored.OpenSession("s", 1e6).ok());

  // Cold reference with the same seed and registration order.
  EngineOptions cold_options;
  cold_options.seed = 2015;
  QueryEngine cold(cold_options);
  RegisterAll(&cold);
  ASSERT_TRUE(cold.OpenSession("s", 1e6).ok());

  for (const QueryRequest& request : Requests()) {
    EXPECT_TRUE(restored.IsWarm(request)) << request.policy;
    Result<QueryResult> warm = restored.Submit(request);
    Result<QueryResult> reference = cold.Submit(request);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_TRUE(warm.ValueOrDie().plan_cache_hit) << request.policy;
    ASSERT_EQ(warm.ValueOrDie().answers.size(),
              reference.ValueOrDie().answers.size());
    for (size_t i = 0; i < warm.ValueOrDie().answers.size(); ++i) {
      EXPECT_EQ(warm.ValueOrDie().answers[i],
                reference.ValueOrDie().answers[i])
          << request.policy << " answer " << i;
    }
  }
  EXPECT_EQ(restored.plan_cache_stats().misses, 0u);
  RemoveTree(dir);
}

}  // namespace
}  // namespace blowfish
