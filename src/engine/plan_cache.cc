#include "engine/plan_cache.h"

#include <exception>
#include <mutex>
#include <string>
#include <utility>

namespace blowfish {

namespace {
// ASCII unit separator; the registry rejects names containing it, so
// keys cannot collide across the (name, version, options) fields.
constexpr char kSep = '\x1f';
}  // namespace

std::string PlanCache::MakeKey(const std::string& policy_name,
                               uint64_t version,
                               bool prefer_data_dependent) {
  return policy_name + kSep + std::to_string(version) + kSep +
         (prefer_data_dependent ? "dd" : "di");
}

Result<std::shared_ptr<const Plan>> PlanCache::GetOrCompute(
    const std::string& key, const std::function<Result<Plan>()>& factory,
    bool* cache_hit, std::shared_ptr<const Plan>* slot) {
  // Counters are bumped exactly once per call, only after the call's
  // role is known.
  auto probe = [&]() -> std::shared_ptr<const Plan> {
    if (slot == nullptr) return nullptr;
    return std::atomic_load_explicit(slot, std::memory_order_acquire);
  };
  if (std::shared_ptr<const Plan> plan = probe()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    *cache_hit = true;
    return plan;
  }
  // Join or open the in-flight planning.
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A leader may have filled the slot between the first probe and
    // here: it fills before it retires its flight under mu_.
    if (std::shared_ptr<const Plan> plan = probe()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      *cache_hit = true;
      return plan;
    }
    auto [it, inserted] = inflight_.emplace(key, nullptr);
    if (inserted) {
      it->second = std::make_shared<Flight>();
      leader = true;
      misses_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Follower: served by the leader's planning — a hit.
      hits_.fetch_add(1, std::memory_order_relaxed);
    }
    flight = it->second;
  }
  if (!leader) {
    *cache_hit = true;
    // Explicit wait loop (not the predicate overload): the analysis
    // can then see `done` is only read with flight->mu held.
    std::unique_lock<std::mutex> lock(flight->mu);
    while (!flight->done) flight->cv.wait(lock);
    if (!flight->status.ok()) return flight->status;
    return flight->plan;
  }
  *cache_hit = false;
  // The leader must always complete the flight — a factory that threw
  // (e.g. bad_alloc planning a large domain) would otherwise strand
  // every waiter on a `done` that never comes.
  Result<Plan> planned = [&]() -> Result<Plan> {
    try {
      return factory();
    } catch (const std::exception& e) {
      return Status::Internal(std::string("planner threw: ") + e.what());
    }
  }();
  std::shared_ptr<const Plan> plan;
  if (planned.ok()) {
    plan = std::make_shared<const Plan>(std::move(planned).ValueOrDie());
    if (slot != nullptr) {
      std::atomic_store_explicit(slot, plan, std::memory_order_release);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(key);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->status = planned.status();
    flight->plan = plan;
    flight->done = true;
  }
  flight->cv.notify_all();
  if (!planned.ok()) return planned.status();
  return plan;
}

PlanCache::Stats PlanCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace blowfish
