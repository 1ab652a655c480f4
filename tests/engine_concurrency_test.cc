// Concurrency smoke tests: many threads submitting against one
// QueryEngine must never corrupt accounting (budgets conserve exactly,
// refusals are clean kOutOfRange) and must share cached plans.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

Vector Ramp(size_t n) {
  Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 5);
  return x;
}

TEST(EngineConcurrency, ParallelSubmitsAcrossPoliciesAndSessions) {
  constexpr size_t kThreads = 4;
  constexpr size_t kSubmitsPerThread = 12;
  constexpr double kEps = 0.01;

  QueryEngine engine;
  const char* policies[] = {"line", "grid", "dp"};
  ASSERT_TRUE(
      engine.RegisterPolicy("line", LinePolicy(16), Ramp(16), 100.0).ok());
  ASSERT_TRUE(engine
                  .RegisterPolicy("grid", GridPolicy(DomainShape({4, 4}), 1),
                                  Ramp(16), 100.0)
                  .ok());
  ASSERT_TRUE(
      engine.RegisterPolicy("dp", UnboundedDpPolicy(16), Ramp(16), 100.0)
          .ok());

  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, &policies, &failures, t] {
      const std::string session = "session-" + std::to_string(t);
      if (!engine.OpenSession(session, 10.0).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < kSubmitsPerThread; ++i) {
        QueryRequest request;
        request.session = session;
        request.policy = policies[(t + i) % 3];
        request.workload = IdentityWorkload(16);
        request.epsilon = kEps;
        const Result<QueryResult> result = engine.Submit(request);
        if (!result.ok() || result.ValueOrDie().answers.size() != 16u) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0u);

  // Accounting is exact despite interleaving: every session spent
  // kSubmitsPerThread * kEps, and the three policy caps jointly
  // absorbed all kThreads * kSubmitsPerThread spends.
  double session_spent = 0.0;
  for (size_t t = 0; t < kThreads; ++t) {
    const double remaining =
        *engine.SessionRemaining("session-" + std::to_string(t));
    session_spent += 10.0 - remaining;
  }
  EXPECT_NEAR(session_spent, kThreads * kSubmitsPerThread * kEps, 1e-9);
  double policy_spent = 0.0;
  for (const char* policy : policies) {
    policy_spent += 100.0 - *engine.PolicyRemaining(policy);
  }
  EXPECT_NEAR(policy_spent, kThreads * kSubmitsPerThread * kEps, 1e-9);

  // Each (policy, options) pair planned exactly once; repeats hit.
  const PlanCache::Stats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kSubmitsPerThread);
}

TEST(EngineConcurrency, BudgetedPrecomputeSlotsChurnUnderConcurrentSubmits) {
  // Threads submit across θ>=2 grid policies whose precomputes do not
  // all fit the transform budget, so slot fills, budgeted hits and LRU
  // evictions interleave. Every submit must succeed with all its
  // answers, and once quiet the live slots are back under the budget.
  constexpr size_t kBudget = 2048;
  constexpr size_t kPolicies = 8;
  constexpr size_t kThreads = 4;
  constexpr size_t kSubmitsPerThread = 40;
  EngineOptions options;
  options.seed = 1;
  options.transform_cache_bytes = kBudget;
  QueryEngine engine(options);
  for (size_t i = 0; i < kPolicies; ++i) {
    ASSERT_TRUE(engine
                    .RegisterPolicy("slab" + std::to_string(i),
                                    GridPolicy(DomainShape({8, 8}), 4),
                                    Ramp(64), 1e6)
                    .ok());
  }
  ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());

  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, &failures, t] {
      QueryRequest request;
      request.session = "s";
      request.ranges = RangeWorkload("r", DomainShape({8, 8}),
                                     {{{0, 0}, {3, 3}}, {{2, 1}, {7, 7}}});
      request.epsilon = 0.01;
      for (size_t i = 0; i < kSubmitsPerThread; ++i) {
        request.policy = "slab" + std::to_string((t * 3 + i) % kPolicies);
        const Result<QueryResult> result = engine.Submit(request);
        if (!result.ok() || result.ValueOrDie().answers.size() != 2u ||
            !result.ValueOrDie().range_fast_path) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0u);
  const QueryEngine::TransformCacheStats stats =
      engine.transform_cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, kBudget);
}

TEST(EngineConcurrency, ContendedCapAdmitsExactlyTheBudget) {
  constexpr size_t kThreads = 6;
  constexpr size_t kSubmitsPerThread = 10;
  constexpr double kEps = 0.15;  // 60 demanded, cap 1.0 admits 6

  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterPolicy("scarce", LinePolicy(8), Ramp(8), 1.0).ok());

  std::atomic<size_t> accepted{0};
  std::atomic<size_t> refused{0};
  std::atomic<size_t> unexpected{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string session = "s" + std::to_string(t);
      if (!engine.OpenSession(session, 100.0).ok()) {
        unexpected.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < kSubmitsPerThread; ++i) {
        QueryRequest request;
        request.session = session;
        request.policy = "scarce";
        request.workload = IdentityWorkload(8);
        request.epsilon = kEps;
        const Result<QueryResult> result = engine.Submit(request);
        if (result.ok()) {
          accepted.fetch_add(1);
        } else if (result.status().code() == StatusCode::kOutOfRange) {
          refused.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // No interleaving may jointly overspend: floor(1.0 / 0.15) = 6
  // releases, every other submit refused with kOutOfRange.
  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_EQ(accepted.load(), 6u);
  EXPECT_EQ(refused.load(), kThreads * kSubmitsPerThread - 6u);
  EXPECT_NEAR(*engine.PolicyRemaining("scarce"), 1.0 - 6 * kEps, 1e-9);
}

TEST(EngineConcurrency, SubmitsRaceRegistryChurn) {
  constexpr size_t kWriterRounds = 20;
  constexpr size_t kReaderThreads = 4;

  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterPolicy("stable", LinePolicy(16), Ramp(16), 1e6).ok());
  ASSERT_TRUE(
      engine.RegisterPolicy("churn", LinePolicy(16), Ramp(16), 1e6).ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> unexpected{0};
  std::mutex first_mu;
  std::string first_error;
  const auto note = [&](const Status& status) {
    unexpected.fetch_add(1);
    std::lock_guard<std::mutex> lock(first_mu);
    if (first_error.empty()) first_error = status.ToString();
  };

  // Readers that finished one round over both policies (or gave up).
  // The writer churns only once all have: its rounds can otherwise end
  // before any reader submits, leaving the race untested.
  std::atomic<size_t> readers_ready{0};

  std::thread writer([&] {
    while (readers_ready.load() < kReaderThreads) std::this_thread::yield();
    for (size_t round = 0; round < kWriterRounds; ++round) {
      // Swap between two shapes so cached plans really go stale.
      Policy policy =
          (round % 2 == 0) ? Theta1DPolicy(16, 2) : LinePolicy(16);
      const Status replaced =
          engine.ReplacePolicy("churn", std::move(policy), Ramp(16), 1e6);
      if (!replaced.ok()) note(replaced);
      std::this_thread::yield();
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&, t] {
      const std::string session = "r" + std::to_string(t);
      if (!engine.OpenSession(session, 1e6).ok()) {
        unexpected.fetch_add(1);
        readers_ready.fetch_add(1);
        return;
      }
      for (bool first = true; first || !stop.load(); first = false) {
        for (const char* policy : {"stable", "churn"}) {
          QueryRequest request;
          request.session = session;
          request.policy = policy;
          request.workload = IdentityWorkload(16);
          request.epsilon = 0.1;
          const Result<QueryResult> result = engine.Submit(request);
          if (!result.ok()) {
            note(result.status());
          } else if (result.ValueOrDie().answers.size() != 16u) {
            note(Status::Internal("wrong answer size"));
          }
        }
        if (first) readers_ready.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(unexpected.load(), 0u) << "first error: " << first_error;
  // The stable policy's plan survived the churn; every replaced
  // version planned at most once per option set.
  EXPECT_GT(engine.plan_cache_stats().hits, 0u);
}

TEST(EngineConcurrency, ColdPlanCacheMissesSingleFlight) {
  // All threads miss the same key at once; exactly one may pay the
  // planner cost, the rest must block and share its plan.
  constexpr size_t kThreads = 8;
  PlanCache cache;
  std::shared_ptr<const Plan> slot;
  std::atomic<size_t> invocations{0};
  std::atomic<size_t> failures{0};

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      bool hit = false;
      const Result<std::shared_ptr<const Plan>> plan = cache.GetOrCompute(
          "key",
          [&]() -> Result<Plan> {
            invocations.fetch_add(1);
            // Hold the flight open long enough that every other
            // thread arrives while planning is in progress.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            Plan p;
            p.kind = "slow-plan";
            return p;
          },
          &hit, &slot);
      if (!plan.ok() || (*plan)->kind != "slow-plan") failures.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(invocations.load(), 1u) << "thundering herd ran the planner "
                                    << invocations.load() << " times";
  EXPECT_EQ(failures.load(), 0u);
  const PlanCache::Stats stats = cache.stats();
  // The one plan is retained, in the caller's slot.
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->kind, "slow-plan");
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads - 1);
}

TEST(EngineConcurrency, FailedPlanIsSharedButNotCached) {
  PlanCache cache;
  std::shared_ptr<const Plan> slot;
  std::atomic<size_t> invocations{0};
  bool hit = false;
  const auto failing = [&]() -> Result<Plan> {
    invocations.fetch_add(1);
    return Status::InvalidArgument("unplannable");
  };
  EXPECT_EQ(cache.GetOrCompute("k", failing, &hit, &slot).status().code(),
            StatusCode::kInvalidArgument);
  // The failure was not cached; the next caller retries the planner.
  EXPECT_EQ(cache.GetOrCompute("k", failing, &hit, &slot).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(invocations.load(), 2u);
  EXPECT_EQ(slot, nullptr);
}

TEST(EngineConcurrency, ConcurrentCloseReportsClosedNotExhausted) {
  // A submit that charges successfully and then loses its ledgers to a
  // concurrent UnregisterPolicy must report `policy_remaining` as
  // nullopt ("ledger closed"), never as 0.0 ("exhausted") — the cap
  // here is huge, so any reported value must stay huge.
  constexpr size_t kRounds = 25;
  constexpr double kCap = 1e6;

  for (size_t round = 0; round < kRounds; ++round) {
    QueryEngine engine;
    ASSERT_TRUE(
        engine.RegisterPolicy("fleeting", LinePolicy(8), Ramp(8), kCap).ok());
    ASSERT_TRUE(engine.OpenSession("s", kCap).ok());

    std::atomic<bool> start{false};
    std::atomic<size_t> bad_reports{0};
    std::thread submitter([&] {
      QueryRequest request;
      request.session = "s";
      request.policy = "fleeting";
      request.workload = IdentityWorkload(8);
      request.epsilon = 0.001;
      while (!start.load()) std::this_thread::yield();
      for (int i = 0; i < 50; ++i) {
        const Result<QueryResult> result = engine.Submit(request);
        if (!result.ok()) break;  // policy gone: expected after the race
        const QueryResult& r = result.ValueOrDie();
        // Session stays open the whole time: always a (huge) value.
        if (!r.session_remaining.has_value() ||
            *r.session_remaining < kCap / 2) {
          bad_reports.fetch_add(1);
        }
        // Policy ledger may close mid-flight: nullopt is the only
        // legal way to say so; a present value must still be huge.
        if (r.policy_remaining.has_value() &&
            *r.policy_remaining < kCap / 2) {
          bad_reports.fetch_add(1);
        }
      }
    });
    start.store(true);
    std::this_thread::yield();
    ASSERT_TRUE(engine.UnregisterPolicy("fleeting").ok());
    submitter.join();
    ASSERT_EQ(bad_reports.load(), 0u) << "round " << round;
  }
}

}  // namespace
}  // namespace blowfish
