#include "engine/plan_cache.h"

#include <algorithm>
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

void PlanCache::EnforceBudgetLocked() {
  while (bytes_ > byte_budget_ && !entries_.empty()) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::shared_ptr<const Plan> PlanCache::Insert(
    const std::string& key, std::shared_ptr<const Plan> plan) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Entry entry;
  entry.bytes = std::max(plan->approx_bytes, sizeof(Plan));
  entry.last_used = ++clock_;
  entry.plan = std::move(plan);
  auto [it, inserted] = entries_.emplace(key, std::move(entry));
  if (inserted) {
    bytes_ += it->second.bytes;
    if (byte_budget_ != 0) {
      // LRU sweep, the incoming entry last: resident bytes never
      // exceed the budget, and a plan larger than the whole budget is
      // handed to its caller but not retained.
      std::shared_ptr<const Plan> keep = it->second.plan;
      EnforceBudgetLocked();
      return keep;
    }
  }
  return it->second.plan;
}

size_t PlanCache::Invalidate(const std::string& policy_name) {
  const std::string prefix = policy_name + kSep;
  std::unique_lock<std::shared_mutex> lock(mu_);
  size_t removed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) == 0) {
      bytes_ -= it->second.bytes;
      it = entries_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  invalidations_.fetch_add(removed, std::memory_order_relaxed);
  return removed;
}

Result<std::shared_ptr<const Plan>> PlanCache::GetOrCompute(
    const std::string& key, const std::function<Result<Plan>()>& factory,
    bool* cache_hit) {
  // Counters are bumped exactly once per call, only after the call's
  // role is known.
  if (byte_budget_ == 0) {
    // Unbounded: recency is meaningless, so the probe stays a shared
    // (concurrent) read.
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      *cache_hit = true;
      return it->second.plan;
    }
  } else {
    // Budgeted: the probe stamps recency, which needs the write lock.
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.last_used = ++clock_;
      hits_.fetch_add(1, std::memory_order_relaxed);
      *cache_hit = true;
      return it->second.plan;
    }
  }
  // Join or open the in-flight planning.
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    // A leader may have published between the first probe and here.
    if (auto it = entries_.find(key); it != entries_.end()) {
      if (byte_budget_ != 0) it->second.last_used = ++clock_;
      hits_.fetch_add(1, std::memory_order_relaxed);
      *cache_hit = true;
      return it->second.plan;
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
    plan = Insert(key, std::make_shared<const Plan>(
                           std::move(planned).ValueOrDie()));
  }
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
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
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(mu_);
  stats.entries = entries_.size();
  stats.bytes = bytes_;
  return stats;
}

}  // namespace blowfish
