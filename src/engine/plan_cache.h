// Single-flight planning. Planning is the expensive part of serving a
// Blowfish query — PolicyTransform::Create runs a reduction plus a
// conjugate-gradient factorization, spanner construction certifies
// its stretch against the policy graph, and the θ-grid strategy builds
// per-slab Privelet systems. None of that depends on the query or the
// data values, only on (policy, planner options), so a plan is shared:
// it is a shared_ptr<const Plan> whose mechanism is immutable and
// whose Run() is const and re-entrant (randomness comes from the
// caller's Rng), making one plan safe for any number of concurrent
// submits.
//
// Retention. PlanCache stores no plan. The caller owns the slot a plan
// lives in — the engine passes the registered snapshot's own plan slot
// (RegisteredPolicy::plan_slots), so a plan dies with its snapshot and
// a Replace()d or Unregister()ed policy never serves a stale plan. What
// the cache keeps is what no slot can: the in-flight planning per key
// (concurrent misses run the planner once and share its result or its
// failure) and the hit/miss counts (hits + misses == lookups).

#ifndef BLOWFISH_ENGINE_PLAN_CACHE_H_
#define BLOWFISH_ENGINE_PLAN_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/thread_annotations.h"
#include "core/planner.h"

namespace blowfish {

/// \brief Thread-safe single-flight planner front with hit/miss
/// accounting.
class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Plans resident in slots, and their modeled bytes
    /// (Plan::approx_bytes). The cache holds no slot, so stats()
    /// reports 0 for both; QueryEngine::plan_cache_stats() counts the
    /// plan slots of the live registered snapshots.
    size_t entries = 0;
    size_t bytes = 0;
  };

  /// Single-flight key for a registry entry at a given version and
  /// planner option set.
  static std::string MakeKey(const std::string& policy_name,
                             uint64_t version, bool prefer_data_dependent);

  /// Single-flight get-or-plan. With a `slot`, a plan already in it is
  /// returned as a hit; otherwise `factory` runs exactly once per key
  /// no matter how many callers miss concurrently — the first one
  /// plans and fills `slot`, the rest block and share its result,
  /// success or failure. A failed planning fills nothing; the next
  /// caller retries. Without a slot the call still shares one planning
  /// among concurrent callers but retains nothing afterwards.
  /// `*cache_hit` is false only for the caller that actually ran
  /// `factory` (followers count as hits: they were served without
  /// planning), matching the hits+misses == lookups invariant. `slot`
  /// is read and written with the std::atomic_* shared_ptr functions.
  Result<std::shared_ptr<const Plan>> GetOrCompute(
      const std::string& key, const std::function<Result<Plan>()>& factory,
      bool* cache_hit, std::shared_ptr<const Plan>* slot = nullptr);

  /// Counts a lookup the caller served from its own slot without
  /// calling GetOrCompute — the engine's warm submits probe the
  /// snapshot's plan slot before building a key, but the hit/miss
  /// accounting must still see one event per lookup.
  void RecordHit() { hits_.fetch_add(1, std::memory_order_relaxed); }

  Stats stats() const;

 private:
  /// One in-progress planning; followers wait on `cv`.
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done GUARDED_BY(mu) = false;
    Status status GUARDED_BY(mu) = Status::OK();
    std::shared_ptr<const Plan> plan GUARDED_BY(mu);
  };

  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> inflight_
      GUARDED_BY(mu_);
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_PLAN_CACHE_H_
