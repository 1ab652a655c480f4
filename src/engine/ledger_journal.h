// Crash-safe ε-spend journal: the durable half of the accountant.
//
// Everything the engine knows about spent privacy budget lived in
// memory before this file — a crash silently refilled every ledger,
// which inverts the guarantee the whole stack exists to provide. The
// LedgerJournal is a write-ahead log of the accountant's spend and
// refusal decisions with one invariant wired into Charge() (and walled
// in by dp_lint's `journal-before-admit` rule):
//
//   a charge is journaled and fsync'd BEFORE it commits to any
//   in-memory ledger, and noise is drawn only after the charge
//   commits — so every release the engine ever performed is covered
//   by a durable record, and a restart replays to balances at least
//   as spent as anything that was admitted. If the record cannot be
//   made durable within a bounded retry budget, the charge is REFUSED
//   (StatusCode::kUnavailableDurability): the engine fails closed,
//   never open.
//
// On-disk format. A journal is a directory of segment files named
// `journal-<start_seq:016x>.bfj` in the durable-file layout the
// snapshot store shares (engine/durable_file.h): a header with magic
// "BFLJRNL1" and the seq of the segment's first record, then one frame
// per record — spend, refusal, or checkpoint — carrying the same
// fields as the EpsilonAuditLog event (ε, parallel count, workload
// tag, shared plan context, per-ledger post-charge balances) plus a
// dense monotonic seq. Doubles are IEEE bit patterns, so replay is
// bit-exact.
//
// Rotation & compaction. Append() starts a new segment when the
// active one exceeds `segment_bytes`, and flags `checkpoint_due()`;
// the engine then calls BudgetAccountant::WriteCheckpoint(), which
// snapshots every live ledger under all shard locks and hands the
// snapshot to Checkpoint(): a fresh segment whose first record is the
// snapshot, after which every older segment is deleted — so recovery
// replay stays bounded by one checkpoint plus one tail. Recovered
// balances nobody has re-opened yet are folded into the next
// checkpoint, so compaction never forgets a spend.
//
// Recovery. Open() scans segments in seq order, verifies header magic
// and frame CRCs, and demands dense seqs (a gap or duplicate means a
// lost or doubled spend — refused, always). A *torn tail* — a frame
// that runs past EOF, or a CRC-bad final frame, in the final segment
// only — is the expected signature of a crash mid-append; with
// `allow_torn_tail` it is truncated away (the torn record was never
// acknowledged, so dropping it cannot refill anything) and recovery
// proceeds; without it, Open refuses and points at ledger_fsck. A
// CRC-bad frame with valid data after it is corruption, not a tear,
// and always refuses: truncating there would discard acknowledged
// spends — the one direction that is never safe.
//
// I/O runs through the FileIo interface the snapshot store shares,
// so tests inject faults — fail-at-Nth-write, short writes, torn
// writes, fsync errors, ENOSPC — against the exact production code
// paths. Transient errors are
// retried up to `io_retries` with exponential backoff and
// deterministic jitter; a give-up truncates the partial record back
// out of the file (keeping the journal usable) or, if even that
// fails, poisons the journal so every later charge refuses.
//
// Threading: all public methods are internally locked by one mutex.
// The accountant calls Append while holding the charge's shard locks,
// which makes per-ledger journal order identical to spend order (the
// property replay needs). Lock order: accountant shards -> journal ->
// audit ring.

#ifndef BLOWFISH_ENGINE_LEDGER_JOURNAL_H_
#define BLOWFISH_ENGINE_LEDGER_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/durable_file.h"
#include "engine/telemetry.h"

namespace blowfish {

// ------------------------------------------------------------- records

/// \brief One decoded journal record (recovery, fsck, tests). The
/// spend/refusal fields mirror AuditEvent, and a checkpoint carries a
/// full balance snapshot.
struct JournalRecord {
  enum class Type : uint8_t { kSpend = 1, kRefusal = 2, kCheckpoint = 3 };
  struct Line {
    std::string id;
    double remaining = 0.0;  ///< post-charge balance (advisory; replay
                             ///< reconstructs spends from ε alone)
  };
  struct CheckpointLine {
    std::string id;
    double total = -1.0;  ///< < 0: cap unknown (unclaimed recovery carry)
    double spent = 0.0;
  };

  Type type = Type::kSpend;
  uint64_t seq = 0;
  int64_t wall_micros = 0;
  uint8_t refusal = 0;  ///< StatusCode of a refusal; 0 on spends
  uint32_t parallel_count = 1;
  double epsilon = 0.0;
  std::string workload;
  std::string context;
  std::vector<Line> ledgers;              // spend / refusal
  std::vector<CheckpointLine> checkpoint;  // checkpoint
};

/// Segment file names: `journal-<start_seq:016x>.bfj`.
inline constexpr NumberedName kJournalSegmentName{"journal", "bfj"};

/// Wire helpers, exposed for the recovery tests that hand-craft
/// duplicate-seq / gap segments (frames come from AppendFrame).
void JournalEncodeRecord(const JournalRecord& record, std::string* out);
/// The 24-byte segment header for a segment starting at `start_seq`.
std::string JournalSegmentHeader(uint64_t start_seq);

// ---------------------------------------------------------- scan model

/// \brief Replayed state of one ledger id.
struct RecoveredLedger {
  bool has_total = false;
  double total = 0.0;   ///< meaningful only when has_total
  double spent = 0.0;   ///< bit-exact Σε in seq order
  uint64_t records = 0; ///< spend lines replayed into this ledger
};

/// \brief Everything a read-only pass over a journal directory learns.
/// `errors` are hard corruption findings (refuse recovery); a torn
/// tail is reported separately because it is repairable.
struct JournalScanReport {
  struct Segment {
    std::string name;       ///< filename within the journal dir
    uint64_t start_seq = 0;
    uint64_t records = 0;
    uint64_t good_bytes = 0;  ///< header + verified frames
    uint64_t file_bytes = 0;
  };
  std::vector<Segment> segments;
  uint64_t records = 0;  ///< verified records across all segments
  uint64_t spends = 0;
  uint64_t refusals = 0;
  uint64_t checkpoints = 0;
  uint64_t first_seq = 0;
  uint64_t last_seq = 0;
  bool torn_tail = false;
  std::string torn_segment;      ///< filename holding the tear
  uint64_t torn_good_bytes = 0;  ///< truncate target inside it
  std::vector<std::string> errors;    ///< corruption (fatal)
  std::vector<std::string> warnings;  ///< advisory (balance cross-checks)
  std::map<std::string, RecoveredLedger> ledgers;
};

// -------------------------------------------------------- the journal

struct JournalOptions {
  std::string dir;  ///< journal directory (created if missing)
  /// Active-segment size that triggers rotation and flags a
  /// checkpoint/compaction as due.
  size_t segment_bytes = 4u << 20;
  /// Transient I/O errors (EINTR, short write, ENOSPC-then-freed) are
  /// retried this many times before the charge fails closed.
  int io_retries = 4;
  /// Base backoff between retries; attempt k sleeps ~base·2^k plus a
  /// deterministic jitter derived from (seq, attempt) — no RNG, so the
  /// engine's noise discipline is untouched. Each sleep is capped at
  /// 5ms and runs under the journal mutex and the charge's shard
  /// locks, so a dead disk stalls concurrent charges for at most
  /// ~io_retries·5ms (20ms at defaults) before failing closed.
  uint32_t retry_backoff_micros = 200;
  /// Recovery: truncate a torn tail and continue instead of refusing
  /// startup. Gaps and mid-file corruption refuse regardless.
  bool allow_torn_tail = false;
  /// Pluggable I/O (tests inject faults); null = PosixFileIo().
  FileIo* io = nullptr;
  /// When set, the journal registers engine_journal_* counters here.
  MetricsRegistry* metrics = nullptr;
};

/// \brief See the file comment. Created via Open (which performs
/// recovery); owned by QueryEngine; written by BudgetAccountant.
class LedgerJournal {
 public:
  /// A ledger line as the accountant stages it for Append (ids are
  /// borrowed from the slots, valid for the call).
  struct ChargeLine {
    const std::string* id = nullptr;
    double remaining = 0.0;  ///< post-charge (prospective on spends)
  };

  /// Wire-format ceiling on ledger lines per record (the frame carries
  /// a u16 line count). AppendCharge refuses wider charges outright —
  /// fail closed, never a silently truncated spend record.
  static constexpr size_t kMaxChargeLines = 0xFFFF;

  /// Read-only integrity pass: never creates, truncates, or repairs
  /// anything. Populates `report` (including ledger balances replayed
  /// from whatever verifies) and returns non-OK only when the
  /// directory itself is unreadable.
  static Status Scan(const std::string& dir, FileIo* io,
                     JournalScanReport* report);

  /// Opens (creating the directory and first segment if needed) and
  /// recovers: scans, repairs a torn tail when allowed, and exposes
  /// the replayed balances via TakeRecovered. Fails on corruption, on
  /// a torn tail when `allow_torn_tail` is false, and on I/O errors.
  static Result<std::unique_ptr<LedgerJournal>> Open(JournalOptions options);

  ~LedgerJournal();

  /// Write-ahead append of one charge decision, fsync'd before it
  /// returns OK. Called by the accountant BEFORE the in-memory commit,
  /// under every involved shard lock. On failure nothing is considered
  /// journaled: partial bytes are truncated back out (or the journal
  /// is poisoned when even that fails) and kUnavailableDurability is
  /// returned — the caller must refuse the charge.
  Status AppendCharge(bool charged, StatusCode refusal, double epsilon,
                      uint32_t parallel_count, std::string_view workload,
                      const std::string* context, const ChargeLine* lines,
                      size_t count);

  /// Compaction: writes `snapshot` (plus any still-unclaimed recovered
  /// balances) as the first record of a fresh segment, then deletes
  /// every older segment. Caller must guarantee no append can race
  /// (the accountant holds all shard locks). On failure the old
  /// segments are untouched and appends continue to work.
  Status Checkpoint(const std::vector<JournalRecord::CheckpointLine>& snapshot);

  /// The balance replayed for `id`, if recovery saw one; consumed by
  /// the call (each recovered balance is applied to exactly one
  /// freshly opened ledger).
  bool TakeRecovered(const std::string& id, RecoveredLedger* out);

  /// Undoes a TakeRecovered whose balance could not be applied (e.g.
  /// RestoreSpent refused it): the entry goes back into the recovered
  /// map, so a retried OpenLedger sees it again instead of silently
  /// starting from a refilled budget, and the next checkpoint still
  /// carries it. A balance already present for `id` wins.
  void ReturnRecovered(const std::string& id, const RecoveredLedger& led);

  /// True once the active segment has outgrown segment_bytes; cleared
  /// by a successful Checkpoint. The engine polls this after submits.
  bool checkpoint_due() const {
    return checkpoint_due_.load(std::memory_order_relaxed);
  }

  /// Sticky failure state: OK while the journal can accept appends.
  Status health() const;

  struct Stats {
    uint64_t appends = 0;
    uint64_t append_failures = 0;
    uint64_t fsyncs = 0;
    uint64_t retries = 0;
    uint64_t rotations = 0;
    uint64_t checkpoints = 0;
    uint64_t recovered_records = 0;  ///< records replayed at Open
    bool recovered_torn_tail = false;
    uint64_t next_seq = 0;
    uint64_t active_bytes = 0;
    size_t segments = 0;
    size_t unclaimed_recovered = 0;
  };
  Stats stats() const;

  const std::string& dir() const { return options_.dir; }

 private:
  explicit LedgerJournal(JournalOptions options, FileIo* io);

  std::string SegmentPath(const std::string& name) const;
  /// Writes `data` fully with bounded retry/backoff. A failed write
  /// call leaves an unknown number of bytes on disk (a torn write), so
  /// each retry first truncates back to `base_offset` and restarts the
  /// record from its first byte — the file never holds a duplicated
  /// prefix. `*landed` tracks bytes currently in the file even on
  /// failure. Note fsync is NOT retried anywhere: a failed fsync may
  /// silently mark dirty pages clean, so "retry until it reports OK"
  /// can claim durability that never happened; sync failures go
  /// straight to the truncate-repair (fresh bytes, meaningful fsync)
  /// and the charge is refused.
  Status WriteWithRetry(DurableFile* file, const char* data, size_t n,
                        uint64_t base_offset, uint64_t seq, size_t* landed)
      REQUIRES(mu_);
  /// Creates segment `start_seq` (header written + synced); on success
  /// replaces the active segment.
  Status RotateLocked(uint64_t start_seq) REQUIRES(mu_);
  /// Frames and durably appends one encoded record; on failure
  /// restores the tail invariant (truncate) or poisons.
  Status AppendFramedLocked(const JournalRecord& record) REQUIRES(mu_);
  void Backoff(uint64_t seq, int attempt) const;

  const JournalOptions options_;
  FileIo* const io_;

  mutable std::mutex mu_;
  Status health_ GUARDED_BY(mu_);
  std::unique_ptr<DurableFile> active_ GUARDED_BY(mu_);
  std::string active_name_ GUARDED_BY(mu_);
  uint64_t active_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  /// Clamp for non-decreasing wall_micros across journal records (the
  /// system clock may step backwards; seq order is the replay order,
  /// so timestamps must not contradict it).
  int64_t last_wall_micros_ GUARDED_BY(mu_) = 0;
  std::vector<std::string> segment_names_ GUARDED_BY(mu_);  // oldest first
  std::map<std::string, RecoveredLedger> recovered_ GUARDED_BY(mu_);
  std::string scratch_ GUARDED_BY(mu_);  ///< reused encode buffer

  std::atomic<bool> checkpoint_due_{false};

  // Counters: registered when options.metrics is set, else local
  // sinks so increments stay unconditional.
  Counter local_sink_[7];
  Counter* m_appends_;
  Counter* m_append_failures_;
  Counter* m_fsyncs_;
  Counter* m_retries_;
  Counter* m_rotations_;
  Counter* m_checkpoints_;
  Counter* m_recovered_records_;
  uint64_t recovered_records_at_open_ = 0;
  bool recovered_torn_tail_ = false;
};

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_LEDGER_JOURNAL_H_
