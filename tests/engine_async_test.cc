// Concurrency battery for the async submission pipeline
// (engine/async_engine.h): single-worker determinism against the
// sequential engine, exact ledger conservation under a multi-thread
// flood, cold/warm lane isolation with plan single-flight,
// cancellation-on-destruction, and deterministic backpressure. Runs
// under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "engine/async_engine.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

using FutureResult = std::future<Result<QueryResult>>;

Vector Ramp(size_t n) {
  Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 7);
  return x;
}

EngineOptions AsyncOptions(uint64_t seed, size_t workers,
                           size_t capacity = 1024,
                           QueueFullPolicy full = QueueFullPolicy::kReject) {
  EngineOptions options;
  options.seed = seed;
  options.async_workers = workers;
  options.async_queue_capacity = capacity;
  options.async_queue_full = full;
  return options;
}

QueryRequest MakeRequest(const std::string& session,
                         const std::string& policy, size_t domain,
                         double epsilon) {
  QueryRequest request;
  request.session = session;
  request.policy = policy;
  request.workload = IdentityWorkload(domain);
  request.epsilon = epsilon;
  return request;
}

bool Pending(const FutureResult& future) {
  return future.wait_for(std::chrono::seconds(0)) !=
         std::future_status::ready;
}

TEST(EngineAsync, SingleWorkerMatchesSequentialBitwise) {
  // One worker + a paused queue: every request is enqueued before any
  // runs, so the worker drains them in submission order and the
  // engine assigns the same per-submit noise streams a sequential
  // Submit loop would — results must be bit-identical.
  constexpr uint64_t kSeed = 20150731;
  constexpr size_t kDomain = 64;

  AsyncQueryEngine async(AsyncOptions(kSeed, /*workers=*/1));
  QueryEngine sequential(AsyncOptions(kSeed, 1));
  for (QueryEngine* engine : {&async.engine(), &sequential}) {
    ASSERT_TRUE(engine
                    ->RegisterPolicy("line", LinePolicy(kDomain),
                                     Ramp(kDomain), 1e6)
                    .ok());
    ASSERT_TRUE(engine->OpenSession("s", 1e6).ok());
  }

  const QueryRequest proto = MakeRequest("s", "line", kDomain, 0.1);
  async.Pause();
  std::vector<FutureResult> futures;
  for (int i = 0; i < 9; ++i) futures.push_back(async.SubmitAsync(proto));
  async.Resume();

  std::vector<Vector> async_answers;
  for (FutureResult& future : futures) {
    async_answers.push_back(future.get().ValueOrDie().answers);
  }

  std::vector<Vector> sequential_answers;
  for (int i = 0; i < 9; ++i) {
    sequential_answers.push_back(
        sequential.Submit(proto).ValueOrDie().answers);
  }

  ASSERT_EQ(async_answers.size(), sequential_answers.size());
  for (size_t i = 0; i < async_answers.size(); ++i) {
    ASSERT_EQ(async_answers[i].size(), sequential_answers[i].size());
    for (size_t j = 0; j < async_answers[i].size(); ++j) {
      // Bitwise equality: same seed, same stream, same noise.
      EXPECT_EQ(async_answers[i][j], sequential_answers[i][j])
          << "submission " << i << " entry " << j;
    }
  }
}

TEST(EngineAsync, FloodConservesLedgersExactly) {
  // 16 workers, 4 submitter threads hammering one scarce policy cap:
  // afterwards the cap balance must be exactly cap - n_admitted * eps
  // (no over- or under-charge from any interleaving), every future
  // must resolve exactly once, and every failure must be a clean
  // kOutOfRange.
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 50;
  constexpr double kEps = 0.01;
  constexpr double kCap = 0.8;  // admits 80 of the 200 demanded

  AsyncQueryEngine async(AsyncOptions(7, /*workers=*/16));
  QueryEngine& engine = async.engine();
  ASSERT_TRUE(
      engine.RegisterPolicy("scarce", LinePolicy(16), Ramp(16), kCap).ok());
  std::vector<QueryRequest> protos(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    const std::string session = "s" + std::to_string(t);
    ASSERT_TRUE(engine.OpenSession(session, 100.0).ok());
    protos[t] = MakeRequest(session, "scarce", 16, kEps);
    if (t % 2 == 0) {
      // Half the threads exercise the handle-carrying path.
      protos[t].session_handle = engine.ResolveSession(session).ValueOrDie();
      protos[t].policy_handle = engine.ResolvePolicy("scarce").ValueOrDie();
    }
  }

  std::vector<std::vector<FutureResult>> futures(kThreads);
  {
    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        futures[t].reserve(kPerThread);
        for (size_t i = 0; i < kPerThread; ++i) {
          futures[t].push_back(async.SubmitAsync(protos[t]));
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
  }

  size_t admitted = 0, refused = 0;
  std::vector<size_t> admitted_per_session(kThreads, 0);
  for (size_t t = 0; t < kThreads; ++t) {
    for (FutureResult& future : futures[t]) {
      ASSERT_TRUE(future.valid());  // resolves exactly once, via get()
      const Result<QueryResult> result = future.get();
      if (result.ok()) {
        ++admitted;
        ++admitted_per_session[t];
      } else {
        ASSERT_EQ(result.status().code(), StatusCode::kOutOfRange)
            << result.status().ToString();
        ++refused;
      }
    }
  }
  EXPECT_EQ(admitted + refused, kThreads * kPerThread);
  EXPECT_EQ(admitted, 80u);

  // cap - sum(eps admitted), exactly.
  EXPECT_NEAR(*engine.PolicyRemaining("scarce"),
              kCap - static_cast<double>(admitted) * kEps, 1e-9);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_NEAR(*engine.SessionRemaining("s" + std::to_string(t)),
                100.0 - static_cast<double>(admitted_per_session[t]) * kEps,
                1e-9);
  }

  const AsyncStats stats = async.stats();
  EXPECT_EQ(stats.warm.completed + stats.cold.completed,
            kThreads * kPerThread);
  EXPECT_EQ(stats.warm.depth + stats.cold.depth, 0u);
}

TEST(EngineAsync, ColdPlanDoesNotBlockWarmLane) {
  // A ~100ms spanner plan runs in the cold lane while a warm flood
  // flows: every warm future must resolve while every cold future is
  // still pending, the queued same-key cold requests must coalesce
  // behind the one in-flight plan (PlanCache sees exactly one miss
  // for the policy), and parked followers must resolve too.
  // Theta1D th=4 plans in ~1.5 µs per bin (Release), so k=65536 keeps
  // the cold window ~100ms wide; the warm flood drains in a few ms.
  constexpr size_t kColdDomain = 65536;
  constexpr size_t kWarmDomain = 64;
  constexpr size_t kWarmFlood = 100;

  AsyncQueryEngine async(AsyncOptions(11, /*workers=*/4));
  QueryEngine& engine = async.engine();
  ASSERT_TRUE(engine
                  .RegisterPolicy("slow", Theta1DPolicy(kColdDomain, 4),
                                  Ramp(kColdDomain), 1e6)
                  .ok());
  ASSERT_TRUE(engine
                  .RegisterPolicy("fast", LinePolicy(kWarmDomain),
                                  Ramp(kWarmDomain), 1e6)
                  .ok());
  ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());

  // Warm the fast policy synchronously (1 plan miss), so the flood is
  // classified warm.
  ASSERT_TRUE(
      engine.Submit(MakeRequest("s", "fast", kWarmDomain, 0.001)).ok());
  ASSERT_EQ(engine.plan_cache_stats().misses, 1u);

  const QueryRequest cold_proto =
      MakeRequest("s", "slow", kColdDomain, 0.001);
  std::vector<FutureResult> cold_futures;
  for (int i = 0; i < 4; ++i) {
    cold_futures.push_back(async.SubmitAsync(cold_proto));
  }

  const QueryRequest warm_proto =
      MakeRequest("s", "fast", kWarmDomain, 0.001);
  std::vector<FutureResult> warm_futures;
  warm_futures.reserve(kWarmFlood);
  for (size_t i = 0; i < kWarmFlood; ++i) {
    warm_futures.push_back(async.SubmitAsync(warm_proto));
  }
  for (FutureResult& future : warm_futures) {
    EXPECT_TRUE(future.get().ok());
  }
  // The whole warm flood (~ms) finished inside the cold plan's
  // ~100ms window: no warm future ever waited on the cold lane.
  for (const FutureResult& future : cold_futures) {
    EXPECT_TRUE(Pending(future))
        << "a cold future resolved before the warm flood drained";
  }
  for (FutureResult& future : cold_futures) {
    EXPECT_TRUE(future.get().ok());
  }

  // Single-flight: 4 queued cold requests, 1 plan. (2 misses total:
  // "fast" warming + "slow".)
  const PlanCache::Stats plan_stats = engine.plan_cache_stats();
  EXPECT_EQ(plan_stats.misses, 2u);
  const AsyncStats stats = async.stats();
  EXPECT_GE(stats.cold_plans_coalesced, 1u);
  EXPECT_EQ(stats.cold.enqueued, 4u);
  EXPECT_EQ(stats.cold.completed, 4u);
  EXPECT_EQ(stats.warm.completed, kWarmFlood);
}

TEST(EngineAsync, DestructionCancelsQueuedFutures) {
  // Destroying the engine with queued work resolves every pending
  // future exactly once with kCancelled — no leaks, no deadlock (the
  // test finishing is the deadlock proof).
  std::vector<FutureResult> queued;
  {
    AsyncQueryEngine async(AsyncOptions(3, /*workers=*/1));
    ASSERT_TRUE(async.engine()
                    .RegisterPolicy("p", LinePolicy(16), Ramp(16), 1e6)
                    .ok());
    ASSERT_TRUE(async.engine().OpenSession("s", 1e6).ok());
    async.Pause();
    for (int i = 0; i < 8; ++i) {
      queued.push_back(async.SubmitAsync(MakeRequest("s", "p", 16, 0.01)));
    }
    const AsyncStats stats = async.stats();
    ASSERT_EQ(stats.warm.depth + stats.cold.depth, 8u);
  }  // destructor: kCancelPending
  for (FutureResult& future : queued) {
    ASSERT_TRUE(future.valid());
    const Result<QueryResult> result = future.get();
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << result.status().ToString();
  }
}

TEST(EngineAsync, DestructionLetsInFlightTaskFinishAndCancelsRest) {
  // A slow cold plan is mid-flight when the engine dies: the in-flight
  // task completes normally (its charge is real — the answer must be
  // delivered), the queued tasks behind it are cancelled.
  // Theta1D th=4 plans in ~1.5 µs per bin (Release), so k=65536 keeps
  // the worker busy ~100ms; the five enqueues below take microseconds.
  constexpr size_t kColdDomain = 65536;
  AsyncStats stats;
  FutureResult inflight;
  std::vector<FutureResult> queued;
  {
    AsyncQueryEngine async(AsyncOptions(5, /*workers=*/1));
    QueryEngine& engine = async.engine();
    ASSERT_TRUE(engine
                    .RegisterPolicy("slow", Theta1DPolicy(kColdDomain, 4),
                                    Ramp(kColdDomain), 1e6)
                    .ok());
    ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());
    const QueryRequest cold = MakeRequest("s", "slow", kColdDomain, 0.01);
    inflight = async.SubmitAsync(cold);
    // Give the single worker time to pop the cold task; the queue
    // behind it then cannot start until the ~100ms plan finishes.
    while (async.stats().cold_in_flight == 0 && Pending(inflight)) {
      std::this_thread::yield();
    }
    for (int i = 0; i < 5; ++i) queued.push_back(async.SubmitAsync(cold));
    stats = async.stats();
  }  // destructor while the plan runs
  ASSERT_TRUE(inflight.valid());
  EXPECT_TRUE(inflight.get().ok());
  size_t cancelled = 0;
  for (FutureResult& future : queued) {
    const Result<QueryResult> result = future.get();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
      ++cancelled;
    }
  }
  // The worker was busy for the cold plan's ~100ms; the 5 queued
  // tasks behind it die with the engine. (>= tolerates the in-flight
  // race where the worker slipped one more task in.)
  EXPECT_GE(cancelled, 4u);
}

TEST(EngineAsync, ShutdownRacesParkedColdFollowers) {
  // Repeatedly destroy the engine while a cold leader is mid-plan
  // with same-key followers parked behind it: whichever side of the
  // FinishCold/Shutdown race wins, every future must still resolve
  // exactly once (ok or kCancelled — a broken promise would throw
  // std::future_error in get()).
  constexpr size_t kRounds = 25;
  for (size_t round = 0; round < kRounds; ++round) {
    std::vector<FutureResult> futures;
    {
      AsyncQueryEngine async(AsyncOptions(round, /*workers=*/4));
      ASSERT_TRUE(async.engine()
                      .RegisterPolicy("slow", Theta1DPolicy(512, 4),
                                      Ramp(512), 1e6)
                      .ok());
      ASSERT_TRUE(async.engine().OpenSession("s", 1e6).ok());
      for (int i = 0; i < 6; ++i) {
        futures.push_back(
            async.SubmitAsync(MakeRequest("s", "slow", 512, 0.001)));
      }
      // Vary the destruction point across the leader's ~2.5ms plan.
      for (size_t spin = 0; spin < round * 50; ++spin) {
        std::this_thread::yield();
      }
    }  // destructor races the in-flight plan and its parked followers
    for (FutureResult& future : futures) {
      ASSERT_TRUE(future.valid());
      const Result<QueryResult> result = future.get();
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
            << "round " << round << ": " << result.status().ToString();
      }
    }
  }
}

TEST(EngineAsync, BackpressureRejectsDeterministically) {
  // capacity=4, paused worker: the 5th submission must be refused
  // with kUnavailable (already-resolved future), and everything
  // accepted must still resolve after Resume().
  AsyncQueryEngine async(AsyncOptions(13, /*workers=*/1, /*capacity=*/4));
  QueryEngine& engine = async.engine();
  ASSERT_TRUE(
      engine.RegisterPolicy("p", LinePolicy(16), Ramp(16), 1e6).ok());
  ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());
  // Warm synchronously so async tasks take the warm lane.
  ASSERT_TRUE(engine.Submit(MakeRequest("s", "p", 16, 0.01)).ok());

  const QueryRequest proto = MakeRequest("s", "p", 16, 0.01);
  async.Pause();
  std::vector<FutureResult> accepted;
  for (int i = 0; i < 4; ++i) {
    accepted.push_back(async.SubmitAsync(proto));
    EXPECT_TRUE(Pending(accepted.back()));
  }

  // Queue now full: single submits are refused, deterministically.
  FutureResult overflow = async.SubmitAsync(proto);
  ASSERT_FALSE(Pending(overflow));
  EXPECT_EQ(overflow.get().status().code(), StatusCode::kUnavailable);

  AsyncStats stats = async.stats();
  EXPECT_EQ(stats.warm.depth, 4u);
  EXPECT_EQ(stats.warm.peak_depth, 4u);
  EXPECT_EQ(stats.warm.rejected + stats.cold.rejected, 1u);

  async.Resume();
  for (FutureResult& future : accepted) EXPECT_TRUE(future.get().ok());
}

TEST(EngineAsync, BackpressureBlockModeWaitsForSpace) {
  // QueueFullPolicy::kBlock: a submitter against a full queue blocks
  // until a worker frees a slot, then its request is accepted and
  // resolves normally.
  AsyncQueryEngine async(AsyncOptions(17, /*workers=*/1, /*capacity=*/2,
                                      QueueFullPolicy::kBlock));
  QueryEngine& engine = async.engine();
  ASSERT_TRUE(
      engine.RegisterPolicy("p", LinePolicy(16), Ramp(16), 1e6).ok());
  ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());
  ASSERT_TRUE(engine.Submit(MakeRequest("s", "p", 16, 0.01)).ok());

  const QueryRequest proto = MakeRequest("s", "p", 16, 0.01);
  async.Pause();
  std::vector<FutureResult> accepted;
  for (int i = 0; i < 2; ++i) accepted.push_back(async.SubmitAsync(proto));

  std::atomic<bool> returned{false};
  FutureResult blocked_future;
  std::thread blocked([&] {
    // Queue is full: this call blocks until Resume() drains a slot.
    blocked_future = async.SubmitAsync(proto);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load()) << "kBlock submitter did not block";

  async.Resume();
  blocked.join();
  EXPECT_TRUE(returned.load());
  for (FutureResult& future : accepted) EXPECT_TRUE(future.get().ok());
  EXPECT_TRUE(blocked_future.get().ok());
}

TEST(EngineAsync, ShutdownWakesBlockedSubmitterWithCancelled) {
  // A submitter blocked on a full queue during shutdown must not
  // deadlock the destructor: it wakes with a kCancelled future.
  std::atomic<bool> returned{false};
  FutureResult blocked_future;
  std::thread blocked;
  std::vector<FutureResult> queued;
  {
    AsyncQueryEngine async(AsyncOptions(19, /*workers=*/1, /*capacity=*/1,
                                        QueueFullPolicy::kBlock));
    ASSERT_TRUE(async.engine()
                    .RegisterPolicy("p", LinePolicy(16), Ramp(16), 1e6)
                    .ok());
    ASSERT_TRUE(async.engine().OpenSession("s", 1e6).ok());
    async.Pause();
    queued.push_back(async.SubmitAsync(MakeRequest("s", "p", 16, 0.01)));
    blocked = std::thread([&] {
      blocked_future = async.SubmitAsync(MakeRequest("s", "p", 16, 0.01));
      returned.store(true);
    });
    // Ensure the submitter reached the blocking wait before shutdown.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }  // destructor cancels the queue and wakes the blocked submitter
  blocked.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(blocked_future.get().status().code(), StatusCode::kCancelled);
  EXPECT_EQ(queued[0].get().status().code(), StatusCode::kCancelled);
}

TEST(EngineAsync, DrainRunsTheQueueDry) {
  AsyncQueryEngine async(AsyncOptions(29, /*workers=*/2));
  QueryEngine& engine = async.engine();
  ASSERT_TRUE(
      engine.RegisterPolicy("p", LinePolicy(16), Ramp(16), 1e6).ok());
  ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());
  std::vector<FutureResult> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(async.SubmitAsync(MakeRequest("s", "p", 16, 0.001)));
  }
  async.Drain();
  for (FutureResult& future : futures) {
    ASSERT_FALSE(Pending(future)) << "Drain returned with work pending";
    EXPECT_TRUE(future.get().ok());
  }
  const AsyncStats stats = async.stats();
  EXPECT_EQ(stats.warm.depth + stats.cold.depth, 0u);
  EXPECT_EQ(stats.warm.completed + stats.cold.completed, 32u);
}

}  // namespace
}  // namespace blowfish
