// Telemetry-layer tests: the metrics registry's counting invariants,
// sampled stage tracing (including the rate-0 zero-allocation hot
// path), and the ε-audit log's bit-level reconciliation against the
// accountant under a multi-threaded flood.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "engine/async_engine.h"
#include "engine/telemetry.h"
#include "workload/builders.h"

#include "alloc_counter.h"

namespace blowfish {
namespace {

Vector Ramp(size_t n) {
  Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 7);
  return x;
}

QueryRequest MakeRequest(const std::string& session, const std::string& policy,
                         double epsilon) {
  QueryRequest request;
  request.session = session;
  request.policy = policy;
  request.workload = IdentityWorkload(16);
  request.epsilon = epsilon;
  return request;
}

// ---- registry ------------------------------------------------------

TEST(MetricsRegistry, GetOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.counter("x_total");
  Counter* b = registry.counter("x_total");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(3u, b->value());

  LatencyHistogram* h = registry.histogram("x_ms");
  EXPECT_EQ(h, registry.histogram("x_ms"));

  Gauge* g = registry.gauge("x_level");
  g->Set(-5);
  EXPECT_EQ(-5, registry.gauge("x_level")->value());

  DoubleCounter* d = registry.double_counter("x_eps");
  d->Add(0.25);
  d->Add(0.5);
  EXPECT_DOUBLE_EQ(0.75, registry.double_counter("x_eps")->value());
}

TEST(MetricsRegistry, HistogramSnapshotCountsAndPercentiles) {
  LatencyHistogram hist;
  for (int i = 0; i < 100; ++i) hist.Record(1.0);  // 1000 us -> bucket 10
  hist.Record(1000.0);                             // 1e6 us outlier
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(101u, snap.count);
  EXPECT_NEAR(1100.0, snap.sum_ms, 1e-9);
  EXPECT_DOUBLE_EQ(1000.0, snap.max_ms);
  // p50 is the bucket upper bound for 1000 us = 2^10 us = 1.024 ms.
  EXPECT_NEAR(1.024, snap.p50_ms, 1e-9);
}

TEST(MetricsRegistry, SnapshotJsonAndPrometheusText) {
  MetricsRegistry registry;
  registry.counter("a_total")->Add(2);
  registry.gauge("b_level")->Set(7);
  registry.double_counter("c_eps")->Add(0.5);
  registry.histogram("d_ms")->Record(3.0);
  registry.gauge_callback("e_cb", [] { return 42.0; });
  registry.counter_callback("f_cb_total", [] { return 9.0; });

  const std::string json = registry.SnapshotJson();
  EXPECT_NE(std::string::npos, json.find("\"a_total\":2"));
  EXPECT_NE(std::string::npos, json.find("\"b_level\":7"));
  EXPECT_NE(std::string::npos, json.find("\"c_eps\":0.5"));
  EXPECT_NE(std::string::npos, json.find("\"e_cb\":42"));
  EXPECT_NE(std::string::npos, json.find("\"d_ms\":{\"count\":1"));
  // A counter callback is listed with the counters, not the gauges.
  EXPECT_LT(json.find("\"f_cb_total\":9"), json.find("\"gauges\""));

  const std::string prom = registry.PrometheusText();
  EXPECT_NE(std::string::npos, prom.find("# TYPE a_total counter"));
  EXPECT_NE(std::string::npos, prom.find("a_total 2"));
  EXPECT_NE(std::string::npos, prom.find("# TYPE b_level gauge"));
  EXPECT_NE(std::string::npos, prom.find("# TYPE d_ms histogram"));
  EXPECT_NE(std::string::npos, prom.find("d_ms_bucket{le=\"+Inf\"} 1"));
  EXPECT_NE(std::string::npos, prom.find("d_ms_count 1"));
  EXPECT_NE(std::string::npos, prom.find("e_cb 42"));
  EXPECT_NE(std::string::npos, prom.find("# TYPE e_cb gauge"));
  EXPECT_NE(std::string::npos, prom.find("# TYPE f_cb_total counter"));
  EXPECT_NE(std::string::npos, prom.find("f_cb_total 9"));
}

// ---- engine counting invariants ------------------------------------

TEST(EngineTelemetry, SubmitLatencyHistogramCountsEveryAttempt) {
  EngineOptions options;
  options.seed = 7;
  QueryEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterPolicy("line", LinePolicy(16), Ramp(16), 100.0).ok());
  ASSERT_TRUE(engine.OpenSession("s", 1.0).ok());

  constexpr int kOk = 12;
  for (int i = 0; i < kOk; ++i) {
    ASSERT_TRUE(engine.Submit(MakeRequest("s", "line", 0.01)).ok());
  }
  // Two refusals: unknown policy (admission failure) and an over-budget
  // charge. Both are attempts and must be counted.
  EXPECT_FALSE(engine.Submit(MakeRequest("s", "nope", 0.01)).ok());
  EXPECT_FALSE(engine.Submit(MakeRequest("s", "line", 50.0)).ok());

  MetricsRegistry& metrics = engine.telemetry().metrics();
  EXPECT_EQ(static_cast<uint64_t>(kOk) + 2,
            metrics.counter("engine_submits_total")->value());
  EXPECT_EQ(static_cast<uint64_t>(kOk) + 2,
            metrics.histogram("engine_submit_latency_ms")->count());
  EXPECT_EQ(2u, metrics.counter("engine_submit_failures_total")->value());
  EXPECT_EQ(1u, metrics.counter("engine_refused_budget_total")->value());
  EXPECT_NEAR(kOk * 0.01,
              metrics.double_counter("engine_epsilon_charged_total")->value(),
              1e-12);
}

// ---- ε-audit reconciliation ----------------------------------------

// Replays a ledger's audit events (`spent += ε` in log order) and
// compares the running balance bit-for-bit with what each event
// recorded and with the accountant's final answer. The log was
// appended under the charge's shard locks, so per-ledger log order is
// the ledger's spend order — float accumulation order matches exactly.
TEST(EngineTelemetry, AuditReplayReconcilesBitLevelUnderFlood) {
  constexpr size_t kThreads = 4;
  constexpr int kPerThread = 64;
  constexpr double kPolicyCap = 500.0;
  constexpr double kSessionGrant = 100.0;

  EngineOptions options;
  options.seed = 11;
  QueryEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterPolicy("line", LinePolicy(16), Ramp(16), kPolicyCap)
          .ok());
  std::vector<std::string> sessions;
  for (size_t t = 0; t < kThreads; ++t) {
    sessions.push_back("s" + std::to_string(t));
    ASSERT_TRUE(engine.OpenSession(sessions.back(), kSessionGrant).ok());
  }

  // Mixed ε values that do not accumulate associatively in floating
  // point, so an order mismatch in the replay would show.
  const double eps_mix[] = {0.01, 0.003, 0.0007, 0.02};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        engine.Submit(MakeRequest(sessions[t], "line", eps_mix[(t + i) % 4]))
            .status()
            .Check();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::vector<AuditEvent> events = engine.telemetry().audit().Snapshot();
  ASSERT_EQ(kThreads * kPerThread, events.size());

  // Replay every ledger: running spent per id, checked against each
  // event's recorded post-charge balance with exact equality.
  std::map<std::string, double> spent;
  std::map<std::string, double> last_remaining;
  uint64_t previous_seq = 0;
  for (const AuditEvent& event : events) {
    EXPECT_EQ(previous_seq + 1, event.seq);  // dense, in order
    previous_seq = event.seq;
    ASSERT_TRUE(event.charged);
    ASSERT_EQ(2u, event.num_ledgers);
    for (size_t i = 0; i < event.num_ledgers; ++i) {
      const AuditEvent::LedgerLine& line = event.ledgers[i];
      spent[line.id] += event.epsilon;
      const double total =
          line.id.rfind("session/", 0) == 0 ? kSessionGrant : kPolicyCap;
      const double replayed_remaining = total - spent[line.id];
      // Bit-level: the replay reproduces PrivacyBudget's arithmetic
      // (total - (((0 + ε1) + ε2) + ...)) in the same order.
      EXPECT_EQ(replayed_remaining, line.remaining)
          << "ledger " << line.id << " diverged at seq " << event.seq;
      last_remaining[line.id] = line.remaining;
    }
  }

  // The final replayed balances match the accountant's live answers
  // exactly.
  for (const std::string& session : sessions) {
    EXPECT_EQ(last_remaining["session/" + session],
              engine.SessionRemaining(session).ValueOrDie());
  }
  const auto policy_line = last_remaining.lower_bound("policy/line");
  ASSERT_NE(last_remaining.end(), policy_line);
  EXPECT_EQ(policy_line->second,
            engine.PolicyRemaining("line").ValueOrDie());
}

TEST(EngineTelemetry, RefusalsAreAuditedWithUntouchedBalances) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterPolicy("line", LinePolicy(16), Ramp(16), 100.0).ok());
  ASSERT_TRUE(engine.OpenSession("s", 0.5).ok());
  ASSERT_TRUE(engine.Submit(MakeRequest("s", "line", 0.25)).ok());
  EXPECT_FALSE(engine.Submit(MakeRequest("s", "line", 1.0)).ok());

  const std::vector<AuditEvent> events = engine.telemetry().audit().Snapshot();
  ASSERT_EQ(2u, events.size());
  EXPECT_TRUE(events[0].charged);
  const AuditEvent& refusal = events[1];
  EXPECT_FALSE(refusal.charged);
  EXPECT_EQ(StatusCode::kOutOfRange, refusal.refusal);
  EXPECT_DOUBLE_EQ(1.0, refusal.epsilon);
  // The refused charge left balances untouched: the session line shows
  // the post-first-charge level.
  bool saw_session = false;
  for (size_t i = 0; i < refusal.num_ledgers; ++i) {
    if (refusal.ledgers[i].id == "session/s") {
      saw_session = true;
      EXPECT_EQ(0.5 - 0.25, refusal.ledgers[i].remaining);
    }
  }
  EXPECT_TRUE(saw_session);

  const std::string jsonl = engine.telemetry().audit().ExportJsonl();
  EXPECT_NE(std::string::npos, jsonl.find("\"outcome\":\"refused\""));
  EXPECT_NE(std::string::npos, jsonl.find("\"refusal\":\"budget_exhausted\""));
}

TEST(EpsilonAuditLog, RingWrapKeepsNewestAndCountsDrops) {
  EpsilonAuditLog log(4);
  for (int i = 0; i < 10; ++i) {
    AuditEvent event;
    event.epsilon = 0.1 * (i + 1);
    log.Append(std::move(event));
  }
  EXPECT_EQ(10u, log.total_events());
  EXPECT_EQ(6u, log.dropped());
  const std::vector<AuditEvent> kept = log.Snapshot();
  ASSERT_EQ(4u, kept.size());
  EXPECT_EQ(7u, kept.front().seq);
  EXPECT_EQ(10u, kept.back().seq);
}

TEST(EpsilonAuditLog, ZeroCapacityDisablesCapture) {
  EpsilonAuditLog log(0);
  EXPECT_FALSE(log.enabled());
  AuditEvent event;
  log.Append(std::move(event));
  EXPECT_EQ(0u, log.total_events());
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_TRUE(log.ExportJsonl().empty());
}

// ---- tracing -------------------------------------------------------

TEST(EngineTelemetry, RateZeroTracingAllocatesNothingOnTheHotPath) {
  EngineTelemetry telemetry(/*trace_sample_rate=*/0.0, /*audit_capacity=*/64);
  Counter* counter = telemetry.metrics().counter("hot_total");
  LatencyHistogram* hist = telemetry.metrics().histogram("hot_ms");

  // Warm-up (first-touch laziness anywhere would show in the measured
  // loop otherwise).
  {
    RequestTrace trace = telemetry.MaybeStartTrace();
    TraceStageTimer timer(&trace, TraceStage::kValidate);
    counter->Add(1);
    hist->Record(0.5);
    telemetry.FinishTrace(&trace, true);
  }

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    RequestTrace trace = telemetry.MaybeStartTrace();
    EXPECT_FALSE(trace.active());
    TraceStageTimer validate(&trace, TraceStage::kValidate);
    TraceStageTimer charge(&trace, TraceStage::kCharge);
    counter->Add(1);
    hist->Record(0.25);
    telemetry.FinishTrace(&trace, true);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after);
  EXPECT_TRUE(telemetry.SnapshotTraces().empty());
}

TEST(EngineTelemetry, RateOneTracesEverySubmitThroughAllStages) {
  EngineOptions options;
  options.seed = 3;
  options.trace_sample_rate = 1.0;
  QueryEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterPolicy("line", LinePolicy(16), Ramp(16), 100.0).ok());
  ASSERT_TRUE(engine.OpenSession("s", 10.0).ok());

  constexpr int kSubmits = 5;
  for (int i = 0; i < kSubmits; ++i) {
    ASSERT_TRUE(engine.Submit(MakeRequest("s", "line", 0.01)).ok());
  }

  EngineTelemetry& telemetry = engine.telemetry();
  const std::vector<TraceRecord> traces = telemetry.SnapshotTraces();
  ASSERT_EQ(static_cast<size_t>(kSubmits), traces.size());
  for (const TraceRecord& trace : traces) {
    EXPECT_TRUE(trace.ok);
    for (TraceStage stage :
         {TraceStage::kValidate, TraceStage::kResolve, TraceStage::kPlan,
          TraceStage::kCharge, TraceStage::kRelease}) {
      EXPECT_GE(trace.stage_ms[static_cast<size_t>(stage)], 0.0)
          << TraceStageName(stage);
    }
    // Async-only stages never ran on the synchronous path.
    EXPECT_LT(trace.stage_ms[static_cast<size_t>(TraceStage::kQueueWait)],
              0.0);
  }
  EXPECT_EQ(static_cast<uint64_t>(kSubmits),
            telemetry.stage_histogram(TraceStage::kValidate)->count());
  EXPECT_EQ(static_cast<uint64_t>(kSubmits),
            telemetry.stage_histogram(TraceStage::kRelease)->count());
  const std::string jsonl = telemetry.TracesJsonl();
  EXPECT_NE(std::string::npos, jsonl.find("\"validate\""));
  EXPECT_NE(std::string::npos, jsonl.find("\"ok\":true"));
}

TEST(EngineTelemetry, TraceRingWrapKeepsNewestAndCountsDrops) {
  EngineTelemetry telemetry(/*trace_sample_rate=*/1.0, /*audit_capacity=*/0);
  constexpr uint64_t kTraces = 300;
  for (uint64_t i = 0; i < kTraces; ++i) {
    RequestTrace trace = telemetry.MaybeStartTrace();
    ASSERT_TRUE(trace.active());
    telemetry.FinishTrace(&trace, true);
  }
  EXPECT_EQ(kTraces, telemetry.trace_total());
  EXPECT_EQ(44u, telemetry.trace_dropped());  // 300 - 256 retained

  const std::vector<TraceRecord> kept = telemetry.SnapshotTraces();
  ASSERT_EQ(256u, kept.size());
  // Oldest first: the 44 dropped traces were ids 1..44.
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(45u + i, kept[i].trace_id) << "position " << i;
    if (i > 0) {
      EXPECT_GE(kept[i].wall_micros, kept[i - 1].wall_micros);
    }
  }
}

TEST(EngineTelemetry, RateOneTracesEverySubmitBatchCall) {
  EngineOptions options;
  options.seed = 3;
  options.trace_sample_rate = 1.0;
  QueryEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterPolicy("line", LinePolicy(16), Ramp(16), 100.0).ok());
  ASSERT_TRUE(engine.OpenSession("s", 10.0).ok());

  const std::vector<QueryRequest> batch = {MakeRequest("s", "line", 0.01),
                                           MakeRequest("s", "line", 0.02),
                                           MakeRequest("s", "line", 0.03)};
  for (const Result<QueryResult>& result : engine.SubmitBatch(batch)) {
    ASSERT_TRUE(result.ok());
  }

  // One span per call, covering every entry's stages.
  const std::vector<TraceRecord> traces = engine.telemetry().SnapshotTraces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0].ok);
  for (TraceStage stage :
       {TraceStage::kValidate, TraceStage::kResolve, TraceStage::kPlan,
        TraceStage::kCharge, TraceStage::kRelease}) {
    EXPECT_GE(traces[0].stage_ms[static_cast<size_t>(stage)], 0.0)
        << TraceStageName(stage);
  }
}

// ---- async pipeline coverage (also exercised under TSan in CI) -----

TEST(EngineTelemetry, AsyncPipelineFeedsRegistryAndTraces) {
  EngineOptions options;
  options.seed = 5;
  options.trace_sample_rate = 1.0;
  options.async_workers = 3;
  AsyncQueryEngine async(options);
  QueryEngine& engine = async.engine();
  ASSERT_TRUE(
      engine.RegisterPolicy("line", LinePolicy(16), Ramp(16), 100.0).ok());
  ASSERT_TRUE(engine.OpenSession("s", 10.0).ok());

  constexpr int kAsyncSubmits = 16;
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < kAsyncSubmits; ++i) {
    futures.push_back(async.SubmitAsync(MakeRequest("s", "line", 0.01)));
  }
  for (auto& future : futures) ASSERT_TRUE(future.get().ok());

  std::shared_ptr<ResultStream> stream =
      async.SubmitStreamAsync(MakeRequest("s", "line", 0.01));
  StreamChunk chunk;
  while (stream->Next(&chunk).ValueOrDie() != StreamNext::kDone) {
  }
  async.Drain();

  MetricsRegistry& metrics = engine.telemetry().metrics();
  const uint64_t warm =
      metrics.histogram("engine_async_warm_latency_ms")->count();
  const uint64_t cold =
      metrics.histogram("engine_async_cold_latency_ms")->count();
  EXPECT_EQ(static_cast<uint64_t>(kAsyncSubmits), warm + cold);
  EXPECT_EQ(
      static_cast<uint64_t>(kAsyncSubmits) + 1,  // +1 for the stream task
      metrics.histogram("engine_async_queue_wait_warm_ms")->count() +
          metrics.histogram("engine_async_queue_wait_cold_ms")->count());
  EXPECT_GE(metrics.counter("engine_stream_chunks_total")->value(), 1u);

  // Every async submit and the stream carried a sampled trace with a
  // queue-wait stage.
  const std::vector<TraceRecord> traces = engine.telemetry().SnapshotTraces();
  EXPECT_EQ(static_cast<size_t>(kAsyncSubmits) + 1, traces.size());
  for (const TraceRecord& trace : traces) {
    EXPECT_GE(trace.stage_ms[static_cast<size_t>(TraceStage::kQueueWait)],
              0.0);
  }

  // The legacy stats() API is served from the same histograms.
  const AsyncStats stats = async.stats();
  EXPECT_EQ(warm, stats.warm.completed);
  EXPECT_EQ(cold, stats.cold.completed);
}

}  // namespace
}  // namespace blowfish
