// Warm-restart snapshot store: the second half of the ROADMAP
// durable-state item (the ledger journal of PR 8 is the first). One
// mmap'd file per generation persists the registry's policy snapshots
// and the cached noise-free `ReleasePrecompute` transforms — the
// solver outputs a cold plan pays for — so a restarted replica
// readmits warm traffic without recomputing them. Plans are rebuilt
// from kind hints, re-certifying any spanner stretch.
//
// File format: `snapshot-<generation:016x>.bfs` in the durable-file
// layout the ε-spend journal shares (engine/durable_file.h): a header
// with magic "BFSNAPS1" and the generation, then frames whose
// payload[0] is the section type:
//     kPolicy    1: one registered policy (graph, domain, data,
//                   epsilon cap, version, plan-slot hints)
//     kTransform 2: one cached precompute, keyed
//                   (registered name, version, dd flag, family)
//     kFooter    3: u32 section count + u64 generation echo — a file
//                   without a valid footer is torn, not merely short
//
// Doubles travel as IEEE-754 bit patterns (never text), so a restored
// transform replays bit-identically. Readers mmap the file read-only;
// a corrupt header or frame fails that *file* open, and the caller
// falls back to the previous generation or a cold start — the store
// is fail-open by contract: it can only ever make restart cheaper,
// never turn a valid request into a refusal.
//
// Writers serialize to a buffer and publish through the shared FileIo
// interface: write `<name>.tmp` (emptied first, in case a crash left
// one), fsync, rename, and fsync the directory. A crash mid-write
// leaves at worst a stale tmp file and never touches the previous
// generation; a write that fails with an error removes its tmp.

#ifndef BLOWFISH_ENGINE_SNAPSHOT_STORE_H_
#define BLOWFISH_ENGINE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/blowfish_mechanism.h"
#include "core/policy.h"
#include "engine/durable_file.h"

namespace blowfish {

/// \brief One engine-managed plan slot worth of replan hints. The
/// snapshot never persists a Plan object (mechanisms are code, not
/// data); it persists which slots to replan at restore and the
/// strategy kind that must come back (else the hint is dropped,
/// fail-open). Replanning always re-certifies spanner stretch.
///
/// On disk each hint still carries a u64 after the kind, where older
/// builds stored a certified stretch to skip certification. It is now
/// an ignored field: written as 0, read and discarded on load, so the
/// byte format and every file written before stays valid.
struct SnapshotPlanHint {
  uint8_t slot = 0;  ///< plan-slot index: 0 plain, 1 data-dependent
  std::string kind;  ///< Plan::kind the hint was recorded for
};

/// \brief One registered policy, complete enough to re-register it:
/// graph edges in insertion order (edge index = P_G column, so order
/// is part of the transform's identity), domain dims, the data
/// vector, and the version the engine must claim again.
struct SnapshotPolicy {
  std::string registered_name;  ///< key in the engine's registry
  std::string policy_name;      ///< Policy::name (graph label)
  uint64_t version = 0;
  double epsilon_cap = 0.0;
  std::vector<size_t> dims;
  size_t num_vertices = 0;
  std::vector<Graph::Edge> edges;  ///< v == Graph::kBottom allowed
  Vector data;
  std::vector<SnapshotPlanHint> plan_hints;
};

/// \brief One cached precompute. `family` names the wire schema (e.g.
/// "tree/1"); the payload is opaque vectors + scalars that the owning
/// mechanism's DecodePrecompute validates and rehydrates.
struct SnapshotTransform {
  std::string registered_name;
  uint64_t version = 0;
  bool data_dependent = false;  ///< the dd bit of the cache key
  std::string family;
  BlowfishMechanism::PrecomputePayload payload;
};

/// \brief Everything one generation persists.
struct SnapshotImage {
  uint64_t generation = 0;
  std::vector<SnapshotPolicy> policies;
  std::vector<SnapshotTransform> transforms;
};

namespace snapshot {

/// \brief What OpenLatest found, for telemetry/tests: which file
/// loaded (if any) and every file it had to skip, with the reason.
struct OpenReport {
  bool loaded = false;
  uint64_t generation = 0;
  std::string path;
  /// "file: reason" per skipped generation, newest first.
  std::vector<std::string> skipped;
};

/// \brief Read-only deep-verification result, for snapshot_fsck.
struct VerifyReport {
  uint64_t generation = 0;
  size_t policies = 0;
  size_t transforms = 0;
  size_t sections = 0;
  bool footer_ok = false;
  /// Bytes of valid prefix before the first bad frame (== file size
  /// when clean). A torn tail is `!errors.empty() && footer missing`.
  uint64_t valid_prefix_bytes = 0;
  std::vector<std::string> errors;
};

/// `snapshot-<generation:016x>.bfs`.
inline constexpr NumberedName kFileName{"snapshot", "bfs"};

/// Serializes `image` as the next generation under `dir` (created if
/// missing): generation = newest existing + 1, written atomically
/// (tmp + fsync + rename + dir fsync) through `io` (null = POSIX).
/// Afterwards prunes all but the newest `keep_generations` files
/// (always keeps >= 1). `image.generation` is ignored.
[[nodiscard]] Status Write(const std::string& dir, const SnapshotImage& image,
                           size_t keep_generations, FileIo* io = nullptr);

/// Maps the newest valid generation under `dir` into `*image`.
/// Fail-open: corrupt or torn files are skipped (recorded in
/// `report->skipped`) and older generations tried; if nothing valid
/// remains, returns OK with `report->loaded == false` — a cold start,
/// never an error. Only argument problems return non-OK.
[[nodiscard]] Status OpenLatest(const std::string& dir, SnapshotImage* image,
                                OpenReport* report);

/// Deep read-only check of one snapshot file (header, every frame
/// CRC, section decode, footer). Never writes. IO failures (missing
/// file) return non-OK; corruption is reported via `report->errors`
/// with an OK status so fsck can keep scanning.
[[nodiscard]] Status Verify(const std::string& path, VerifyReport* report);

/// Lists snapshot files under `dir`, oldest first (lexicographic ==
/// generation order by construction). Missing directory is an empty
/// list, not an error.
[[nodiscard]] Result<std::vector<std::string>> ListFiles(
    const std::string& dir, FileIo* io = nullptr);

}  // namespace snapshot

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_SNAPSHOT_STORE_H_
