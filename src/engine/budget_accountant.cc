#include "engine/budget_accountant.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

namespace blowfish {

namespace {
int64_t BurnClockMicros(const BurnRateConfig& config) {
  if (config.now_micros) return config.now_micros();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}
}  // namespace

// --------------------------------------------------------- burn rate

void BudgetAccountant::BurnWindow::Advance(int64_t now_us, double window_s) {
  const double width_us = window_s * 1e6 / static_cast<double>(kBuckets);
  const int64_t bucket =
      width_us <= 0.0 ? 0
                      : static_cast<int64_t>(
                            static_cast<double>(now_us) / width_us);
  if (newest < 0) {
    for (double& b : spend) b = 0.0;
    newest = bucket;
    return;
  }
  // A clock stepping backwards just keeps accumulating into the
  // current bucket — rates smear slightly, accounting is unaffected.
  if (bucket <= newest) return;
  const int64_t steps = bucket - newest;
  if (steps >= static_cast<int64_t>(kBuckets)) {
    for (double& b : spend) b = 0.0;
  } else {
    for (int64_t s = 1; s <= steps; ++s) {
      spend[static_cast<size_t>(newest + s) % kBuckets] = 0.0;
    }
  }
  newest = bucket;
}

double BudgetAccountant::BurnWindow::Sum() const {
  double total = 0.0;
  for (const double b : spend) total += b;
  return total;
}

void BudgetAccountant::UpdateBurn(Slot* slot, double epsilon,
                                  double balance) {
  if (!burn_config_.enabled) return;
  const int64_t now_us = BurnClockMicros(burn_config_);
  slot->burn.fast.Advance(now_us, burn_config_.fast_window_s);
  slot->burn.slow.Advance(now_us, burn_config_.slow_window_s);
  slot->burn.fast.Add(epsilon);
  slot->burn.slow.Add(epsilon);
  const double fast_rate =
      slot->burn.fast.Sum() / burn_config_.fast_window_s;
  const double slow_rate =
      slot->burn.slow.Sum() / burn_config_.slow_window_s;
  const double inf = std::numeric_limits<double>::infinity();
  const double projected_fast = fast_rate > 0.0 ? balance / fast_rate : inf;
  const double projected_slow = slow_rate > 0.0 ? balance / slow_rate : inf;
  // Both windows must project exhaustion inside the horizon: the fast
  // window reacts within seconds of a burst, the slow window keeps a
  // single spike from flapping the alert.
  const bool alerting = projected_fast < burn_config_.alert_horizon_s &&
                        projected_slow < burn_config_.alert_horizon_s;
  if (alerting == slot->burn.alerting) return;
  slot->burn.alerting = alerting;
  burn_active_.fetch_add(alerting ? 1 : -1, std::memory_order_relaxed);
  if (burn_alerts_ == nullptr) return;
  BurnAlert alert;
  alert.fired = alerting;
  alert.wall_micros = now_us;
  alert.ledger_id = slot->id;
  alert.remaining = balance;
  alert.fast_rate = fast_rate;
  alert.slow_rate = slow_rate;
  alert.projected_s = projected_fast;
  burn_alerts_->Append(std::move(alert));
}

void BudgetAccountant::RetireBurn(Slot* slot) {
  if (slot->burn.alerting) {
    burn_active_.fetch_sub(1, std::memory_order_relaxed);
    if (burn_alerts_ != nullptr) {
      BurnAlert alert;
      alert.fired = false;
      alert.wall_micros = BurnClockMicros(burn_config_);
      alert.ledger_id = slot->id;
      alert.remaining =
          slot->budget.has_value() ? slot->budget->remaining() : 0.0;
      burn_alerts_->Append(std::move(alert));
    }
  }
  slot->burn = BurnState{};
}

BudgetAccountant::Slot* BudgetAccountant::SlotFor(LedgerHandle handle) {
  return const_cast<Slot*>(
      static_cast<const BudgetAccountant*>(this)->SlotFor(handle));
}

const BudgetAccountant::Slot* BudgetAccountant::SlotFor(
    LedgerHandle handle) const {
  if (!handle.valid() || handle.shard() >= kShardCount) return nullptr;
  const Shard& shard = shards_[handle.shard()];
  if (handle.slot() >= shard.slots.size()) return nullptr;
  const Slot& slot = shard.slots[handle.slot()];
  if (!slot.budget.has_value() ||
      slot.generation != handle.generation()) {
    return nullptr;
  }
  return &slot;
}

Result<LedgerHandle> BudgetAccountant::OpenLedger(const std::string& id,
                                                  double total_epsilon) {
  // NaN, inf and denormals are malformed input (NaN passes `<= 0.0`).
  if (!(std::isnormal(total_epsilon) && total_epsilon > 0.0)) {
    return Status::InvalidArgument(
        "ledger '" + id + "' needs a finite, positive, normal budget");
  }
  const size_t shard_index = ShardOf(id);
  Shard& shard = shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.by_id.count(id) > 0) {
    return Status(StatusCode::kAlreadyExists,
                  "ledger '" + id + "' is already open");
  }
  uint32_t slot_index;
  if (!shard.free_slots.empty()) {
    slot_index = shard.free_slots.back();
    shard.free_slots.pop_back();
  } else {
    slot_index = static_cast<uint32_t>(shard.slots.size());
    shard.slots.emplace_back();
  }
  Slot& slot = shard.slots[slot_index];
  slot.budget.emplace(total_epsilon);
  slot.id = id;
  // Re-opening an id the crash journal has a balance for: restore the
  // pre-crash spent total onto the fresh ledger before any charge can
  // see it. Consumed exactly once — the journal hands the balance out
  // and forgets it (later checkpoints snapshot the live ledger).
  if (journal_ != nullptr) {
    RecoveredLedger recovered;
    if (journal_->TakeRecovered(id, &recovered)) {
      Status restored = slot.budget->RestoreSpent(recovered.spent);
      if (!restored.ok()) {
        // The balance could not be applied — hand it back so a retried
        // OpenLedger fails the same way instead of silently succeeding
        // with a refilled budget, and checkpoints keep carrying it.
        journal_->ReturnRecovered(id, recovered);
        slot.budget.reset();
        slot.id.clear();
        ++slot.generation;
        shard.free_slots.push_back(slot_index);
        return restored;
      }
    }
  }
  shard.by_id.emplace(id, slot_index);
  return LedgerHandle(static_cast<uint32_t>(shard_index), slot_index,
                      slot.generation);
}

Status BudgetAccountant::CloseLedger(const std::string& id) {
  Shard& shard = shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_id.find(id);
  if (it == shard.by_id.end()) {
    return Status::NotFound("ledger '" + id + "' is not open");
  }
  Slot& slot = shard.slots[it->second];
  RetireBurn(&slot);
  slot.budget.reset();
  slot.id.clear();
  ++slot.generation;  // outstanding handles go stale
  shard.free_slots.push_back(it->second);
  shard.by_id.erase(it);
  return Status::OK();
}

Status BudgetAccountant::CloseLedger(LedgerHandle handle) {
  if (!handle.valid() || handle.shard() >= kShardCount) {
    return Status::NotFound("ledger handle is invalid");
  }
  Shard& shard = shards_[handle.shard()];
  std::lock_guard<std::mutex> lock(shard.mu);
  Slot* slot = SlotFor(handle);
  if (slot == nullptr) {
    return Status::NotFound("ledger handle is stale");
  }
  RetireBurn(slot);
  shard.by_id.erase(slot->id);
  slot->budget.reset();
  slot->id.clear();
  ++slot->generation;
  shard.free_slots.push_back(handle.slot());
  return Status::OK();
}

size_t BudgetAccountant::CloseLedgersWithPrefix(const std::string& prefix) {
  // Prefix matches land in arbitrary shards (ids hash individually),
  // so every shard is scanned.
  size_t removed = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.by_id.begin(); it != shard.by_id.end();) {
      if (it->first.compare(0, prefix.size(), prefix) == 0) {
        Slot& slot = shard.slots[it->second];
        RetireBurn(&slot);
        slot.budget.reset();
        slot.id.clear();
        ++slot.generation;
        shard.free_slots.push_back(it->second);
        it = shard.by_id.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
  }
  return removed;
}

Result<LedgerHandle> BudgetAccountant::Resolve(const std::string& id) const {
  const size_t shard_index = ShardOf(id);
  const Shard& shard = shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_id.find(id);
  if (it == shard.by_id.end()) {
    return Status::NotFound("ledger '" + id + "' is not open");
  }
  return LedgerHandle(static_cast<uint32_t>(shard_index), it->second,
                      shard.slots[it->second].generation);
}

Status BudgetAccountant::Charge(const LedgerHandle* handles, size_t count,
                                double epsilon, const ChargeTag& tag,
                                double* remaining) {
  if (count == 0) {
    return Status::InvalidArgument("charge needs at least one ledger");
  }
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("charge must be positive: " +
                                   std::string(tag.workload));
  }
  if (tag.parallel_count == 0) {
    return Status::InvalidArgument("parallel charge needs >= 1 release");
  }
  // Lock every involved shard in ascending index order (deadlock-free
  // against concurrent multi-shard charges).
  bool involved[kShardCount] = {false};
  for (size_t i = 0; i < count; ++i) {
    if (!handles[i].valid() || handles[i].shard() >= kShardCount) {
      return Status::NotFound("ledger handle is invalid");
    }
    involved[handles[i].shard()] = true;
  }
  std::unique_lock<std::mutex> locks[kShardCount];
  for (size_t s = 0; s < kShardCount; ++s) {
    if (involved[s]) locks[s] = std::unique_lock<std::mutex>(shards_[s].mu);
  }
  // Validate everything before committing anything. A repeated handle
  // composes sequentially within the charge, so a ledger named n
  // times must afford n*epsilon. Refusals are audited (still under
  // the shard locks, like spends) — a refused query releases nothing,
  // but the refusal itself is part of the spend record.
  for (size_t i = 0; i < count; ++i) {
    const Slot* slot = SlotFor(handles[i]);
    if (slot == nullptr) {
      // Refusals are journaled best-effort: losing one loses a line of
      // history but spends nothing, so it must not block the refusal.
      (void)AppendJournalCharge(handles, count, epsilon, tag,
                                /*charged=*/false, StatusCode::kNotFound);
      RecordAudit(handles, count, epsilon, tag, /*charged=*/false,
                  StatusCode::kNotFound, nullptr);
      return Status::NotFound("ledger handle is stale or closed");
    }
    size_t times = 1;
    for (size_t j = 0; j < i; ++j) {
      if (handles[j] == handles[i]) ++times;
    }
    if (!slot->budget->CanSpend(static_cast<double>(times) * epsilon)) {
      (void)AppendJournalCharge(handles, count, epsilon, tag,
                                /*charged=*/false, StatusCode::kOutOfRange);
      RecordAudit(handles, count, epsilon, tag, /*charged=*/false,
                  StatusCode::kOutOfRange, nullptr);
      // Generic on purpose: naming the refusing ledger or its
      // spent/total would tell one tenant the policy-wide spend of
      // every other. The audit event above keeps the detail.
      return Status::OutOfRange("epsilon budget exhausted for '" +
                                std::string(tag.workload) + "'");
    }
  }
  // Write-ahead barrier: the spend record must be durable before the
  // first ledger commits (and noise is drawn only after Charge returns
  // OK — dp_lint's `journal-before-admit` and `charge-before-noise`
  // rules pin the two halves of that ordering). A journal that cannot
  // make the record durable refuses the whole charge here, with every
  // ledger still untouched: the engine fails closed.
  if (journal_ != nullptr) {
    Status journaled = AppendJournalCharge(handles, count, epsilon, tag,
                                           /*charged=*/true, StatusCode::kOk);
    if (!journaled.ok()) {
      RecordAudit(handles, count, epsilon, tag, /*charged=*/false,
                  StatusCode::kUnavailableDurability, nullptr);
      return journaled;
    }
  }
  double balances[AuditEvent::kMaxLedgers];
  for (size_t i = 0; i < count; ++i) {
    Slot* slot = SlotFor(handles[i]);
    // Validated above under the same (still-held) shard locks, so the
    // slot cannot have gone stale between the two loops.
    BF_DCHECK(slot != nullptr);
    slot->budget->Spend(epsilon).Check();
    const double balance = slot->budget->remaining();
    if (remaining != nullptr) remaining[i] = balance;
    if (i < AuditEvent::kMaxLedgers) balances[i] = balance;
    // Burn-rate tracking rides the commit loop: same shard locks, so
    // alert order is consistent with audit/spend order.
    UpdateBurn(slot, epsilon, balance);
  }
  // Still under every involved shard lock: the append's position in
  // the log matches this charge's position in each ledger's spend
  // order, which is what makes the JSONL replayable bit-for-bit.
  RecordAudit(handles, count, epsilon, tag, /*charged=*/true, StatusCode::kOk,
              balances);
  return Status::OK();
}

Status BudgetAccountant::AppendJournalCharge(const LedgerHandle* handles,
                                             size_t count, double epsilon,
                                             const ChargeTag& tag,
                                             bool charged,
                                             StatusCode refusal) {
  if (journal_ == nullptr) return Status::OK();
  // Every handle gets its own journal line — unlike the audit ring's
  // fixed-width event, the write-ahead record must cover the whole
  // charge, so wide charges spill to the heap instead of truncating
  // (an un-journaled spend would be refilled by recovery). Charges
  // wider than the wire format's line count are refused by
  // AppendCharge itself, fail closed.
  LedgerJournal::ChargeLine inline_lines[AuditEvent::kMaxLedgers];
  std::vector<LedgerJournal::ChargeLine> heap_lines;
  LedgerJournal::ChargeLine* lines = inline_lines;
  if (count > AuditEvent::kMaxLedgers) {
    heap_lines.resize(count);
    lines = heap_lines.data();
  }
  size_t num_lines = 0;
  for (size_t i = 0; i < count; ++i) {
    const Slot* slot = SlotFor(handles[i]);
    if (slot == nullptr) continue;  // stale handle on a refusal
    LedgerJournal::ChargeLine& line = lines[num_lines++];
    line.id = &slot->id;
    if (!charged) {
      line.remaining = slot->budget->remaining();
      continue;
    }
    // Prospective post-charge balance, computed by replaying the chain
    // of spends the commit loop is about to perform on this ledger (a
    // handle repeated n times composes sequentially). Same doubles in
    // the same order as Spend's `spent += ε`, so the journaled
    // balance is bit-identical to what the ledger will hold — and to
    // what recovery replays.
    double prospective = slot->budget->spent();
    for (size_t j = 0; j <= i; ++j) {
      if (handles[j] == handles[i]) prospective += epsilon;
    }
    line.remaining = slot->budget->total() - prospective;
  }
  return journal_->AppendCharge(charged, refusal, epsilon, tag.parallel_count,
                                tag.workload, tag.context.get(), lines,
                                num_lines);
}

Status BudgetAccountant::WriteCheckpoint() {
  if (journal_ == nullptr) return Status::OK();
  // Every shard locked, ascending (the same deadlock-free order
  // Charge uses), so the snapshot is one consistent cut: no charge can
  // be mid-commit across it, and none can append to the journal while
  // the checkpoint record is placed.
  std::unique_lock<std::mutex> locks[kShardCount];
  for (size_t s = 0; s < kShardCount; ++s) {
    locks[s] = std::unique_lock<std::mutex>(shards_[s].mu);
  }
  std::vector<JournalRecord::CheckpointLine> snapshot;
  for (const Shard& shard : shards_) {
    for (const auto& [id, slot_index] : shard.by_id) {
      const Slot& slot = shard.slots[slot_index];
      snapshot.push_back(JournalRecord::CheckpointLine{
          id, slot.budget->total(), slot.budget->spent()});
    }
  }
  return journal_->Checkpoint(snapshot);
}

void BudgetAccountant::RecordAudit(const LedgerHandle* handles, size_t count,
                                   double epsilon, const ChargeTag& tag,
                                   bool charged, StatusCode refusal,
                                   const double* balances) {
  if (audit_log_ == nullptr || !audit_log_->enabled()) return;
  AuditEvent event;
  event.charged = charged;
  event.refusal = refusal;
  event.epsilon = epsilon;
  event.parallel_count = tag.parallel_count;
  event.workload.assign(tag.workload.data(), tag.workload.size());
  event.context = tag.context;
  for (size_t i = 0; i < count && i < AuditEvent::kMaxLedgers; ++i) {
    const Slot* slot = SlotFor(handles[i]);
    if (slot == nullptr) continue;  // stale handle on a refusal
    AuditEvent::LedgerLine& line = event.ledgers[event.num_ledgers++];
    line.id = slot->id;
    line.remaining =
        balances != nullptr ? balances[i] : slot->budget->remaining();
  }
  audit_log_->Append(std::move(event));
}

Result<double> BudgetAccountant::Remaining(const std::string& id) const {
  const Shard& shard = shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_id.find(id);
  if (it == shard.by_id.end()) {
    return Status::NotFound("ledger '" + id + "' is not open");
  }
  return shard.slots[it->second].budget->remaining();
}

Result<double> BudgetAccountant::Remaining(LedgerHandle handle) const {
  if (!handle.valid() || handle.shard() >= kShardCount) {
    return Status::NotFound("ledger handle is invalid");
  }
  const Shard& shard = shards_[handle.shard()];
  std::lock_guard<std::mutex> lock(shard.mu);
  const Slot* slot = SlotFor(handle);
  if (slot == nullptr) {
    return Status::NotFound("ledger handle is stale");
  }
  return slot->budget->remaining();
}

Result<PrivacyBudget> BudgetAccountant::Ledger(const std::string& id) const {
  const Shard& shard = shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_id.find(id);
  if (it == shard.by_id.end()) {
    return Status::NotFound("ledger '" + id + "' is not open");
  }
  return *shard.slots[it->second].budget;
}

}  // namespace blowfish
