// Multi-ledger budget accounting for the serving layer. Builds on
// PrivacyBudget (mech/budget.h), one sequential-composition ledger
// that keeps totals, not history (the ε-audit ring and the journal
// below record each charge); the accountant keys many of them and
// adds the two properties a concurrent engine needs: an
// all-or-nothing Charge() across several ledgers at once, and enough
// internal sharding that unrelated sessions never contend on one
// mutex.
//
// A release in the engine draws from two ledgers simultaneously — the
// per-policy cap (the data owner's total ε across every session) and
// the per-session grant. Charging them one at a time would let a
// failure on the second ledger strand a phantom spend on the first;
// Charge() instead validates the spend on every ledger and commits
// only if all accept, holding the (ordered) shard locks for the whole
// step, so concurrent submits can never jointly overspend a budget
// that each alone would respect.
//
// Handles. OpenLedger returns an opaque LedgerHandle — shard index,
// slot index, and a generation counter packed into 64 bits. A warm
// submit that carries handles charges with zero string construction
// or map hashing: the handle is validated by a generation compare and
// indexes its shard's slot vector directly. The string-id API remains
// as a thin wrapper (it resolves ids through the shard's hash map);
// ids are still the durable names — handles die with the ledger
// (CloseLedger bumps the generation, so stale handles fail with
// kNotFound, never alias a reopened ledger).
//
// Sharding. Ledgers are partitioned by id hash into kShardCount
// independently locked shards. A multi-ledger Charge touching several
// shards locks them in ascending shard-index order, which makes
// concurrent cross-shard charges deadlock-free by the standard
// lock-ordering argument.

#ifndef BLOWFISH_ENGINE_BUDGET_ACCOUNTANT_H_
#define BLOWFISH_ENGINE_BUDGET_ACCOUNTANT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/ledger_journal.h"
#include "engine/telemetry.h"
#include "mech/budget.h"

namespace blowfish {

/// \brief Opaque reference to one open ledger. Cheap to copy, trivially
/// destructible; invalid (default) handles and handles to closed
/// ledgers fail every operation with kNotFound.
class LedgerHandle {
 public:
  LedgerHandle() = default;

  bool valid() const { return bits_ != 0; }
  uint64_t bits() const { return bits_; }

  friend bool operator==(LedgerHandle a, LedgerHandle b) {
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(LedgerHandle a, LedgerHandle b) {
    return a.bits_ != b.bits_;
  }

 private:
  friend class BudgetAccountant;
  /// Bit 63 marks a constructed handle (so valid() is generation-
  /// independent), bits 40..62 the slot (8M slots per shard), bits
  /// 32..39 the shard, bits 0..31 the full generation counter — a
  /// stale handle survives validation only after exactly 2^32
  /// close/reopen cycles of its slot.
  LedgerHandle(uint32_t shard, uint32_t slot, uint32_t generation)
      : bits_((1ull << 63) | (static_cast<uint64_t>(slot) << 40) |
              (static_cast<uint64_t>(shard) << 32) | generation) {}
  uint32_t shard() const { return (bits_ >> 32) & 0xFFu; }
  uint32_t slot() const { return (bits_ >> 40) & 0x7FFFFFu; }
  uint32_t generation() const { return static_cast<uint32_t>(bits_); }

  uint64_t bits_ = 0;  ///< 0 = invalid
};

/// \brief Structured description of one charge, recorded in the audit
/// ring and journal without building a per-charge label string.
/// `workload` is the short per-request part (copied into the event;
/// short names stay in SSO storage); `context` is the shared
/// per-(policy, plan) suffix (one refcount bump). `parallel_count > 1`
/// declares the charge a parallel-composition spend covering that many
/// disjoint-domain releases at max-ε cost.
struct ChargeTag {
  std::string_view workload;
  std::shared_ptr<const std::string> context;
  uint32_t parallel_count = 1;
};

/// \brief ε burn-rate tracking configuration (SRE-style two-window
/// burn alerting, per ledger). A ledger alerts when BOTH windows'
/// spend rates project exhaustion of its remaining budget within
/// `alert_horizon_s` — the fast window reacts to bursts, the slow
/// window keeps a brief spike from paging anyone. The alert clears
/// (and a cleared event is emitted) when a later spend no longer
/// projects exhaustion; an idle ledger keeps its last state.
struct BurnRateConfig {
  bool enabled = false;
  double fast_window_s = 60.0;
  double slow_window_s = 600.0;
  /// "This ledger exhausts in under alert_horizon_s at the current
  /// rate" is the firing condition (default: 10 minutes).
  double alert_horizon_s = 600.0;
  /// Test seam: the tracker's clock, in microseconds. Null uses the
  /// system clock. A scripted clock makes window trip points exact.
  std::function<int64_t()> now_micros;
};

/// \brief Thread-safe, sharded registry of PrivacyBudget ledgers with
/// atomic multi-ledger spends.
class BudgetAccountant {
 public:
  /// Power of two; shard = id-hash & (kShardCount - 1).
  static constexpr size_t kShardCount = 16;

  /// Creates a ledger and returns its handle; kAlreadyExists if the id
  /// is taken, kInvalidArgument unless the budget is positive normal.
  Result<LedgerHandle> OpenLedger(const std::string& id,
                                  double total_epsilon);

  /// Removes a ledger (its totals are discarded); kNotFound if
  /// absent. Outstanding handles to it become stale.
  Status CloseLedger(const std::string& id);
  Status CloseLedger(LedgerHandle handle);

  /// Removes every ledger whose id starts with `prefix` (versioned
  /// policy ledgers on unregister), scanning all shards. Returns the
  /// number closed.
  size_t CloseLedgersWithPrefix(const std::string& prefix);

  /// The current handle for an open ledger; kNotFound if absent.
  Result<LedgerHandle> Resolve(const std::string& id) const;

  /// Atomically spends `epsilon` from every ledger in `handles`
  /// (sequential composition on each; a handle repeated n times must
  /// afford n·epsilon). Either all ledgers record the spend or none
  /// does; over-budget requests fail with kOutOfRange and stale or
  /// invalid handles with kNotFound, in both cases without side
  /// effects. The kOutOfRange message names no ledger (a caller must
  /// not learn another tenant's spend); the refusal's audit event
  /// records which ledgers were involved and their balances. Shard
  /// locks are taken in ascending index order, so concurrent
  /// multi-shard charges cannot deadlock. When `remaining`
  /// is non-null it receives `count` post-charge balances (only on
  /// success), saving the caller a second round of shard locks.
  /// (Analysis opt-out: the ascending-order acquisition runs over a
  /// conditional std::unique_lock array, a dynamic lock set the
  /// checker cannot model; dp_lint's `lock-order` rule pins the
  /// ascending loop instead.)
  Status Charge(const LedgerHandle* handles, size_t count, double epsilon,
                const ChargeTag& tag,
                double* remaining = nullptr) NO_THREAD_SAFETY_ANALYSIS;

  /// Remaining ε; kNotFound if absent/stale.
  Result<double> Remaining(const std::string& id) const;
  Result<double> Remaining(LedgerHandle handle) const;

  /// A copy of the ledger's total, spent ε and spend count, read
  /// under one shard lock; kNotFound if absent.
  Result<PrivacyBudget> Ledger(const std::string& id) const;

  /// Attaches the engine's ε-audit event log (not owned; the engine
  /// guarantees it outlives the accountant). Charge() appends one
  /// spend event per successful charge and one refusal event per
  /// budget/stale refusal *while still holding the involved shard
  /// locks* — so the log's per-ledger event order is exactly each
  /// ledger's spend order, and replaying `spent += ε` over a ledger's
  /// events reproduces its balance bit-for-bit. Null detaches.
  void SetAuditLog(EpsilonAuditLog* log) { audit_log_ = log; }

  /// Attaches the crash-safe spend journal (not owned; the engine
  /// guarantees it outlives the accountant). With a journal attached:
  ///
  ///   - Charge() write-ahead-journals every spend (durably, fsync'd)
  ///     BEFORE the first ledger commits — and refuses the whole
  ///     charge with kUnavailableDurability if the record cannot be
  ///     made durable, so no release ever outruns its spend record;
  ///     refusals are journaled too (best-effort — a lost refusal
  ///     record spends nothing);
  ///   - OpenLedger() consumes the journal's recovered balance for the
  ///     id, restoring the pre-crash spent total onto the fresh ledger
  ///     (recovery never refills a budget).
  ///
  /// Like the audit append, the journal append happens under every
  /// involved shard lock, so the journal's per-ledger record order is
  /// exactly each ledger's spend order — the property that makes
  /// replay bit-exact. Lock order: shard mutexes -> journal -> audit.
  void SetJournal(LedgerJournal* journal) { journal_ = journal; }

  /// Snapshots every open ledger (all shard locks, ascending) into a
  /// journal checkpoint, letting the journal compact its segments.
  /// No-op without a journal. (Analysis opt-out: locks the whole shard
  /// array through a loop, which the checker cannot model; dp_lint's
  /// `lock-order` rule pins the ascending acquisition.)
  Status WriteCheckpoint() NO_THREAD_SAFETY_ANALYSIS;

  /// Configures per-ledger ε burn-rate tracking and attaches the
  /// alert ring (not owned; null log tracks rates but emits nothing).
  /// Burn state updates happen inside Charge's commit loop under the
  /// same shard locks that order audit events, so the alert stream
  /// interleaves consistently with the spend record. Call before
  /// traffic (the engine wires it at construction).
  void SetBurnRate(BurnRateConfig config, BurnAlertLog* alerts) {
    burn_config_ = std::move(config);
    burn_alerts_ = alerts;
  }

  /// Ledgers currently in the alerting state (for the health report;
  /// mirrors BurnAlertLog::active when a log is attached).
  int64_t burn_alerts_active() const {
    return burn_active_.load(std::memory_order_relaxed);
  }

 private:
  /// One sliding window of recent spend, bucketed so advancing the
  /// clock retires old spend in O(kBuckets) worst case and O(1)
  /// steady-state. Covers kBuckets rotating buckets of width
  /// window_s / kBuckets; Sum() over-counts by at most one stale
  /// bucket width — rate estimation, not accounting.
  struct BurnWindow {
    static constexpr size_t kBuckets = 16;
    double spend[kBuckets] = {};
    int64_t newest = -1;  ///< absolute bucket index; -1 = untouched

    void Advance(int64_t now_us, double window_s);
    void Add(double epsilon) {
      spend[static_cast<size_t>(newest) % kBuckets] += epsilon;
    }
    double Sum() const;
  };
  struct BurnState {
    BurnWindow fast;
    BurnWindow slow;
    bool alerting = false;
  };

  struct Slot {
    std::optional<PrivacyBudget> budget;  ///< nullopt = closed/free
    uint32_t generation = 1;              ///< bumped on every close
    std::string id;                       ///< for audits and refusals
    BurnState burn;                       ///< reset on close
  };
  struct Shard {
    mutable std::mutex mu;
    std::vector<Slot> slots GUARDED_BY(mu);
    std::vector<uint32_t> free_slots GUARDED_BY(mu);
    std::unordered_map<std::string, uint32_t> by_id GUARDED_BY(mu);
  };

  static size_t ShardOf(const std::string& id) {
    return std::hash<std::string>{}(id) & (kShardCount - 1);
  }

  /// Slot for a handle inside its (already locked) shard; null if the
  /// handle is stale. The required capability — shards_[handle.shard()]
  /// .mu — is resolved dynamically from the handle, which the analysis
  /// cannot express; callers are REQUIRES-annotated or hold the lock
  /// array from Charge().
  Slot* SlotFor(LedgerHandle handle) NO_THREAD_SAFETY_ANALYSIS;
  const Slot* SlotFor(LedgerHandle handle) const NO_THREAD_SAFETY_ANALYSIS;

  /// Builds and appends one audit event for a charge outcome; caller
  /// holds every involved shard lock (a dynamic set — inexpressible to
  /// the analysis, hence the opt-out). `balances` are post-charge
  /// (spends); refusals read the untouched balances off the slots.
  void RecordAudit(const LedgerHandle* handles, size_t count, double epsilon,
                   const ChargeTag& tag, bool charged, StatusCode refusal,
                   const double* balances) NO_THREAD_SAFETY_ANALYSIS;

  /// Write-ahead append of one charge decision to the journal; caller
  /// holds every involved shard lock (same dynamic-set opt-out as
  /// RecordAudit). For spends the recorded balances are *prospective*:
  /// computed by simulating the commit loop's spend chain, so they
  /// equal the post-charge balances bit-for-bit. Returns the journal's
  /// verdict — kUnavailableDurability means the caller must refuse.
  Status AppendJournalCharge(const LedgerHandle* handles, size_t count,
                             double epsilon, const ChargeTag& tag,
                             bool charged,
                             StatusCode refusal) NO_THREAD_SAFETY_ANALYSIS;

  /// Folds one committed spend into the slot's burn windows and fires
  /// or clears the ledger's alert on a state transition. Called from
  /// Charge's commit loop with the slot's shard lock held (the same
  /// dynamic-set opt-out as RecordAudit); `balance` is the post-charge
  /// remaining ε.
  void UpdateBurn(Slot* slot, double epsilon,
                  double balance) NO_THREAD_SAFETY_ANALYSIS;

  /// Emits a cleared alert for a closing slot stuck in the alerting
  /// state (so the active count never leaks) and resets its burn
  /// state. Caller holds the slot's shard lock.
  void RetireBurn(Slot* slot) NO_THREAD_SAFETY_ANALYSIS;

  Shard shards_[kShardCount];
  EpsilonAuditLog* audit_log_ = nullptr;
  LedgerJournal* journal_ = nullptr;
  BurnRateConfig burn_config_;
  BurnAlertLog* burn_alerts_ = nullptr;
  std::atomic<int64_t> burn_active_{0};
};

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_BUDGET_ACCOUNTANT_H_
