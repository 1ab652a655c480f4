// Shared plan cache. Planning is the expensive part of serving a
// Blowfish query — PolicyTransform::Create runs a reduction plus a
// conjugate-gradient factorization, spanner construction certifies
// its stretch against the policy graph, and the θ-grid strategy builds
// per-slab Privelet systems. None of that depends on the query or the
// data values, only on (policy, planner options), so plans are cached
// and shared: a cache entry is a shared_ptr<const Plan> whose
// mechanism is immutable and whose Run() is const and re-entrant
// (randomness comes from the caller's Rng), making one plan safe for
// any number of concurrent submits.
//
// Keys embed the registry entry's version, so Replace()d policies
// never serve stale plans even before Invalidate() runs.
//
// Retention. By default the cache is unbounded. Constructed with a
// byte budget it becomes an LRU: every entry carries the plan's
// modeled footprint (Plan::approx_bytes) and an insert evicts
// least-recently-used entries — the incoming plan last — until the
// budget holds again, so resident bytes never exceed the budget (a
// plan larger than the whole budget is returned to its caller but not
// retained). Eviction is observable: Stats splits `evictions` (LRU
// removals) from `invalidations` (lifecycle removals via
// Invalidate/Clear), and hits + misses == lookups holds throughout.

#ifndef BLOWFISH_ENGINE_PLAN_CACHE_H_
#define BLOWFISH_ENGINE_PLAN_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "common/thread_annotations.h"
#include "core/planner.h"

namespace blowfish {

/// \brief Thread-safe (policy, options) -> Plan cache with hit/miss
/// accounting.
class PlanCache {
 public:
  /// `byte_budget` of 0 keeps the historical unbounded behavior.
  explicit PlanCache(size_t byte_budget = 0) : byte_budget_(byte_budget) {}

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// LRU removals forced by the byte budget (0 when unbounded).
    uint64_t evictions = 0;
    /// Lifecycle removals via Invalidate() sweeps.
    uint64_t invalidations = 0;
    size_t entries = 0;
    /// Modeled resident bytes of the cached plans (never exceeds a
    /// non-zero budget).
    size_t bytes = 0;
  };

  /// Cache key for a registry entry at a given version and planner
  /// option set.
  static std::string MakeKey(const std::string& policy_name,
                             uint64_t version, bool prefer_data_dependent);

  /// Single-flight get-or-plan: returns the cached plan, or runs
  /// `factory` exactly once per key no matter how many callers miss
  /// concurrently — the first one plans (spanner certification is the
  /// measured ~8 ms cold cost), the rest block and share its result,
  /// success or failure. A failed planning is not cached; the next
  /// caller retries. `*cache_hit` is false only for the caller that
  /// actually ran `factory` (followers count as hits: they were served
  /// without planning), matching the hits+misses == lookups invariant.
  Result<std::shared_ptr<const Plan>> GetOrCompute(
      const std::string& key, const std::function<Result<Plan>()>& factory,
      bool* cache_hit);

  /// Drops every entry belonging to `policy_name` (all versions and
  /// option sets). Returns the number of entries removed.
  size_t Invalidate(const std::string& policy_name);

  /// Counts a lookup served from outside the cache's own map — the
  /// engine's per-snapshot plan slots resolve warm submits without
  /// touching the cache, but the hit/miss accounting must still see
  /// one event per lookup (hits + misses == lookups).
  void RecordHit() { hits_.fetch_add(1, std::memory_order_relaxed); }

  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const Plan> plan;
    size_t bytes = 0;
    uint64_t last_used = 0;  ///< recency stamp; meaningful when budgeted
  };

  /// Publishes a plan under `key` (the key's single-flight leader is
  /// the only caller, so the emplace never races another insert),
  /// then enforces the byte budget.
  std::shared_ptr<const Plan> Insert(const std::string& key,
                                     std::shared_ptr<const Plan> plan);

  /// Evicts LRU entries (the most recent last) until bytes_ fits the
  /// budget. Requires `mu_` held exclusively; no-op when unbounded.
  void EnforceBudgetLocked() REQUIRES(mu_);

  /// One in-progress planning; followers wait on `cv`.
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done GUARDED_BY(mu) = false;
    Status status GUARDED_BY(mu) = Status::OK();
    std::shared_ptr<const Plan> plan GUARDED_BY(mu);
  };

  const size_t byte_budget_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Entry> entries_ GUARDED_BY(mu_);
  std::unordered_map<std::string, std::shared_ptr<Flight>> inflight_
      GUARDED_BY(mu_);
  size_t bytes_ GUARDED_BY(mu_) = 0;
  uint64_t clock_ GUARDED_BY(mu_) = 0;  ///< recency source (exclusive only)
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_PLAN_CACHE_H_
