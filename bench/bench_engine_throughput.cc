// BENCH_ENGINE: serving-layer throughput. Measures queries/second
// through QueryEngine::Submit for each planner family, separating the
// cold path (first submit pays planner + transform + spanner/matrix
// construction) from the warm path (plan-slot hit; only the release
// itself). Warm throughput is measured on the handle-carrying request
// path (zero string construction / map hashing per submit) and, for
// comparison, on the string-id path; sessions are opened and handles
// resolved BEFORE the stopwatch starts, so qps measures submits only.
//
// Sections:
//   1. per-policy cold ms + warm qps at 1 / 4 / 16 threads
//   2. grouped SubmitBatch vs a Submit loop, plus the
//      parallel-composition (disjoint-domain) charge accounting
//   3. θ>=2 grid: single-pass scatter histogram release vs the legacy
//      per-cell reconstruction, and the per-query range fast path
//   4. async pipeline: warm submit-to-resolve latency through
//      AsyncQueryEngine with and without a concurrent ~100ms cold
//      plan in the cold lane (head-of-line isolation), plus the
//      per-lane queue-depth / latency digests from AsyncStats
//   5. result streaming: SubmitStream vs the materializing Submit on
//      the θ-grid fast path (k=256, 10k ranges) — time-to-first-chunk
//      and peak resident chunk bytes vs the full answer vector
//   6. warm-restart snapshot store: cold start (register + certify +
//      transform + first submit) vs restart from a snapshot (mmap +
//      decode + first submit) for the spanner-backed theta subject
//   7. observability overhead: the warm x4 flood with the obs plane
//      stripped (no tenant families / flight recorder / burn tracker)
//      vs the full plane with a live 1 Hz /metrics scraper attached
//
// Exit status enforces the performance floor (skipped with --smoke):
//   - each policy plans exactly once (cache accounting)
//   - geomean warm single-thread speedup over the embedded PR-2
//     baselines >= 3x
//   - 16-thread scaling: >= 8x single-thread on >=16-core hosts, and
//     no contention collapse (>= 0.35x per core, capped) elsewhere
//   - scatter release beats the legacy per-cell reconstruction >= 50x
//   - grouped batch is not slower than the submit loop
//   - a disjoint-domain batch charges max(eps), not sum(eps)
//   - cold-plan-under-warm-flood: warm p99 with a concurrent cold
//     plan <= max(2x the no-cold baseline, half the cold plan cost)
//     — warm queries must never pay the head-of-line price
//   - streaming: time-to-first-chunk <= 1/10 of the materialized
//     submit's latency, with every answer delivered (bit-level
//     equality vs Submit is pinned by engine_stream_test, not here —
//     the two runs here are distinct submits with distinct noise)
//   - warm restart from a snapshot admits the spanner-backed subject
//     >= 10x faster than its cold start, with zero plan-cache misses
//   - the obs plane is free at the advertised price: warm x4 geomean
//     with obs + scraper >= 0.95x of the stripped engine
//
// Structural checks enforced even in --smoke (a zero would mean the
// bench measured nothing, not that the code is slow):
//   - the async section's same-key cold followers must coalesce
//     behind the leader (cold_plans_coalesced >= 1)
//   - the restarted engine must actually load the snapshot
//
// Flags: --smoke  tiny iteration counts, perf-floor gates off
//        --json   also write BENCH_engine.json (machine-readable)

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/mechanisms_kd.h"
#include "engine/async_engine.h"
#include "engine/query_engine.h"
#include "engine/snapshot_store.h"
#include "workload/builders.h"

using namespace blowfish;

namespace {

/// Default options with a fixed seed; plans are built on first use.
EngineOptions SeededOptions(uint64_t seed) {
  EngineOptions options;
  options.seed = seed;
  options.warm_plan_cache = false;
  return options;
}

Vector Ramp(size_t n) {
  Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 11);
  return x;
}

struct Subject {
  const char* label;
  const char* policy_name;
  Policy policy;
  size_t domain;
  /// PR-2 warm single-thread qps on the reference box (string-id
  /// path, the only path PR-2 had). The 3x floor is taken against
  /// these.
  double baseline_pr2_qps;
};

struct WarmResult {
  double qps = 0.0;
};

/// Warm throughput. Sessions are opened and handles resolved before
/// the stopwatch starts; workers spin on a start flag so the timed
/// region contains only submits.
double WarmQps(QueryEngine* engine, const Subject& subject, size_t lane,
               size_t threads, size_t submits_per_thread, bool use_handles) {
  // Session names carry the nominal lane (1/4/16), not the actual
  // thread count: in --smoke the x4/x16 lanes both clamp to the core
  // count, and naming by actual threads would collide on the second
  // OpenSession.
  std::vector<QueryRequest> requests(threads);
  for (size_t t = 0; t < threads; ++t) {
    const std::string session = std::string(subject.policy_name) + "-x" +
                                std::to_string(lane) + "-w" +
                                std::to_string(t) +
                                (use_handles ? "-h" : "-s");
    engine->OpenSession(session, 1e9).Check();
    QueryRequest& request = requests[t];
    request.session = session;
    request.policy = subject.policy_name;
    request.workload = IdentityWorkload(subject.domain);
    request.epsilon = 0.1;
    if (use_handles) {
      request.session_handle = engine->ResolveSession(session).ValueOrDie();
      request.policy_handle =
          engine->ResolvePolicy(subject.policy_name).ValueOrDie();
    }
  }
  std::atomic<size_t> ready{0};
  std::atomic<bool> start{false};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (size_t i = 0; i < submits_per_thread; ++i) {
        engine->Submit(requests[t]).ValueOrDie();
      }
    });
  }
  while (ready.load() != threads) std::this_thread::yield();
  Stopwatch watch;
  start.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();
  return static_cast<double>(threads * submits_per_thread) /
         watch.ElapsedSeconds();
}

double Geomean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// One async flood run: `flood` warm submits through a fresh
/// AsyncQueryEngine, optionally with a ~100ms cold spanner plan
/// injected into the cold lane first. Latency is measured externally
/// (submit stamp -> ordered wait), so the numbers are exact rather
/// than the AsyncStats digest's power-of-2 upper bounds; the digest
/// and queue depths are returned alongside for the JSON record.
struct AsyncFloodResult {
  double warm_p50_ms = 0.0;
  double warm_p99_ms = 0.0;
  double cold_plan_ms = 0.0;  ///< cold submit-to-resolve (0 if none)
  AsyncStats stats;
};

AsyncFloodResult AsyncWarmFlood(bool with_cold, size_t flood) {
  using Clock = std::chrono::steady_clock;
  constexpr size_t kWarmDomain = 1024;
  constexpr size_t kColdDomain = 4096;

  EngineOptions options;
  options.seed = 2015;
  options.async_workers = 4;  // cold_limit 2: >= 2 workers stay warm
  options.async_queue_capacity = flood + 16;
  AsyncQueryEngine async(options);
  QueryEngine& engine = async.engine();
  engine.RegisterPolicy("warm", LinePolicy(kWarmDomain), Ramp(kWarmDomain), 1e9)
      .Check();
  engine
      .RegisterPolicy("slowplan", Theta1DPolicy(kColdDomain, 4),
                      Ramp(kColdDomain), 1e9)
      .Check();
  engine.OpenSession("flood", 1e9).Check();

  QueryRequest warm_request;
  warm_request.session = "flood";
  warm_request.policy = "warm";
  warm_request.workload = IdentityWorkload(kWarmDomain);
  warm_request.epsilon = 0.01;
  warm_request.session_handle = engine.ResolveSession("flood").ValueOrDie();
  warm_request.policy_handle = engine.ResolvePolicy("warm").ValueOrDie();
  // Warm the fast policy so the flood classifies warm.
  engine.Submit(warm_request).ValueOrDie();

  AsyncFloodResult result;
  std::future<Result<QueryResult>> cold_future;
  std::vector<std::future<Result<QueryResult>>> cold_followers;
  std::thread cold_waiter;
  if (with_cold) {
    QueryRequest cold_request;
    cold_request.session = "flood";
    cold_request.policy = "slowplan";
    cold_request.workload = IdentityWorkload(kColdDomain);
    cold_request.epsilon = 0.01;
    const Clock::time_point cold_submit = Clock::now();
    cold_future = async.SubmitAsync(cold_request);
    // Stamped by a dedicated waiter at resolve time, so cold_plan_ms
    // is the true submit-to-resolve cost — measuring it after the
    // warm wait loop would report max(cold, flood) and inflate the
    // gate's half-cold-cost ceiling.
    cold_waiter = std::thread([&result, &cold_future, cold_submit] {
      cold_future.wait();
      result.cold_plan_ms = std::chrono::duration<double, std::milli>(
                                Clock::now() - cold_submit)
                                .count();
    });
    // The flood must overlap the plan: wait for the cold leader to
    // claim a worker before submitting warm traffic.
    while (async.stats().cold_in_flight == 0 &&
           cold_future.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready) {
      std::this_thread::yield();
    }
    // Two same-key followers submitted while the leader still owns the
    // certification (~100ms): workers must park them behind the
    // in-flight plan instead of re-running it. This is the only way
    // `cold_plans_coalesced` can become nonzero — a single cold
    // submission (the old shape of this bench) reported a structural 0
    // that said nothing about coalescing, even on one-core hosts where
    // worker threads still interleave.
    for (int i = 0; i < 2; ++i) {
      cold_followers.push_back(async.SubmitAsync(cold_request));
    }
  }

  std::vector<Clock::time_point> submitted(flood);
  std::vector<std::future<Result<QueryResult>>> futures;
  futures.reserve(flood);
  for (size_t i = 0; i < flood; ++i) {
    submitted[i] = Clock::now();
    futures.push_back(async.SubmitAsync(warm_request));
  }
  std::vector<double> latencies_ms(flood);
  for (size_t i = 0; i < flood; ++i) {
    futures[i].wait();
    latencies_ms[i] = std::chrono::duration<double, std::milli>(
                          Clock::now() - submitted[i])
                          .count();
    futures[i].get().ValueOrDie();
  }
  if (with_cold) {
    cold_waiter.join();
    cold_future.get().ValueOrDie();
    for (std::future<Result<QueryResult>>& follower : cold_followers) {
      follower.get().ValueOrDie();
    }
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  result.warm_p50_ms = latencies_ms[flood / 2];
  result.warm_p99_ms = latencies_ms[std::min(flood - 1, flood * 99 / 100)];
  result.stats = async.stats();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool write_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) write_json = true;
  }
  const bool full = bench::FullMode();
  const size_t warm_submits = smoke ? 50 : (full ? 2000 : 500);
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  // Smoke mode runs on CI shells as small as one core, where "x4" and
  // "x16" would measure scheduler thrash, not engine scaling. Clamp
  // the submitter counts to the hardware and record the clamp in the
  // JSON so downstream readers never mistake a 1-thread number for a
  // 16-thread one. Full mode keeps the nominal counts: oversubscribing
  // is part of what the contention gates probe there.
  const size_t threads_x4 = smoke ? std::min<size_t>(4, cores) : 4;
  const size_t threads_x16 = smoke ? std::min<size_t>(16, cores) : 16;
  bool failed = false;

  std::vector<Subject> subjects;
  subjects.push_back(
      {"line G^1_1024 (tree)", "line", LinePolicy(1024), 1024, 16200.0});
  subjects.push_back({"theta G^4_1024 (spanner)", "theta",
                      Theta1DPolicy(1024, 4), 1024, 20300.0});
  subjects.push_back({"grid 16x16 (matrix)", "grid",
                      GridPolicy(DomainShape({16, 16}), 1), 256, 3420.0});
  subjects.push_back({"grid 16x16 th=4 (slab)", "slab",
                      GridPolicy(DomainShape({16, 16}), 4), 256, 1270.0});
  subjects.push_back(
      {"unbounded DP 1024", "dp", UnboundedDpPolicy(1024), 1024, 26600.0});

  bench::PrintHeader(
      "BENCH_ENGINE engine throughput (identity workload, eps=0.1, " +
          std::to_string(warm_submits) + " warm submits/thread, handles)",
      {"cold ms", "qps x1 str", "qps x1", "qps x4", "qps x16", "vs PR-2"});

  struct SubjectRow {
    std::string name;
    double cold_ms = 0.0;
    double qps1_string = 0.0;
    double qps1 = 0.0;
    double qps4 = 0.0;
    double qps16 = 0.0;
    double speedup = 0.0;
  };
  std::vector<SubjectRow> rows;
  std::vector<double> speedups;

  for (Subject& subject : subjects) {
    QueryEngine engine(SeededOptions(2015));
    engine
        .RegisterPolicy(subject.policy_name, subject.policy,
                        Ramp(subject.domain), 1e9)
        .Check();
    engine.OpenSession("cold", 1e9).Check();

    QueryRequest request;
    request.session = "cold";
    request.policy = subject.policy_name;
    request.workload = IdentityWorkload(subject.domain);
    request.epsilon = 0.1;

    Stopwatch watch;
    const QueryResult cold = engine.Submit(request).ValueOrDie();
    const double cold_ms = watch.ElapsedMillis();
    if (cold.plan_cache_hit) {
      std::fprintf(stderr, "unexpected cache hit on cold submit\n");
      return 1;
    }

    SubjectRow row;
    row.name = subject.policy_name;
    row.cold_ms = cold_ms;
    row.qps1_string =
        WarmQps(&engine, subject, 1, 1, warm_submits, /*use_handles=*/false);
    row.qps1 =
        WarmQps(&engine, subject, 1, 1, warm_submits, /*use_handles=*/true);
    row.qps4 =
        WarmQps(&engine, subject, 4, threads_x4, warm_submits / 2, true);
    row.qps16 =
        WarmQps(&engine, subject, 16, threads_x16, warm_submits / 4, true);
    row.speedup = row.qps1 / subject.baseline_pr2_qps;
    speedups.push_back(row.speedup);
    bench::PrintRow(subject.label,
                    {bench::Fmt(row.cold_ms), bench::Fmt(row.qps1_string),
                     bench::Fmt(row.qps1), bench::Fmt(row.qps4),
                     bench::Fmt(row.qps16),
                     bench::Fmt(row.speedup) + "x"});
    rows.push_back(row);

    const PlanCache::Stats stats = engine.plan_cache_stats();
    if (stats.misses != 1) {
      std::fprintf(stderr, "expected exactly one plan per policy, saw %llu\n",
                   static_cast<unsigned long long>(stats.misses));
      return 1;
    }
    // 16-thread scaling floor: near-linear where the hardware has the
    // cores, and no contention collapse anywhere (a sharded hot path
    // must not be slower with 16 submitters than with one).
    const double scale16 = row.qps16 / row.qps1;
    const double floor16 =
        cores >= 16 ? 8.0
                    : 0.35 * static_cast<double>(std::min<size_t>(cores, 16));
    if (!smoke && scale16 < floor16) {
      std::fprintf(stderr,
                   "%s: 16-thread scaling %.2fx below floor %.2fx "
                   "(%zu cores)\n",
                   subject.policy_name, scale16, floor16, cores);
      failed = true;
    }
  }

  const double geomean_speedup = Geomean(speedups);
  std::printf(
      "  geomean warm x1 speedup vs PR-2 baseline: %.2fx (floor 3x; "
      "%zu-core host)\n",
      geomean_speedup, cores);
  if (!smoke && geomean_speedup < 3.0) {
    std::fprintf(stderr,
                 "geomean warm speedup %.2fx is below the 3x floor\n",
                 geomean_speedup);
    failed = true;
  }

  // ------------------------------------------------------------------
  // Grouped SubmitBatch vs a Submit loop (one plan resolution + one
  // atomic charge per (session, policy) group), and the
  // parallel-composition charge rule.
  double loop_qps = 0.0, batch_qps = 0.0, batch_ratio = 0.0;
  double parallel_spent = 0.0, sequential_spent = 0.0;
  {
    const size_t domain = 256;
    const size_t batch_size = 64;
    const size_t rounds = smoke ? 4 : 40;
    QueryEngine engine(SeededOptions(2015));
    engine.RegisterPolicy("batch", LinePolicy(domain), Ramp(domain), 1e9)
        .Check();
    engine.OpenSession("loop", 1e9).Check();
    engine.OpenSession("batch", 1e9).Check();

    QueryRequest proto;
    proto.workload = IdentityWorkload(domain);
    proto.policy = "batch";
    proto.epsilon = 0.001;

    std::vector<QueryRequest> batch(batch_size, proto);
    for (QueryRequest& r : batch) {
      r.session = "batch";
      r.session_handle = engine.ResolveSession("batch").ValueOrDie();
      r.policy_handle = engine.ResolvePolicy("batch").ValueOrDie();
    }
    QueryRequest loop_request = proto;
    loop_request.session = "loop";
    loop_request.session_handle = engine.ResolveSession("loop").ValueOrDie();
    loop_request.policy_handle = engine.ResolvePolicy("batch").ValueOrDie();
    engine.Submit(loop_request).ValueOrDie();  // warm the plan

    Stopwatch watch;
    for (size_t round = 0; round < rounds; ++round) {
      for (size_t i = 0; i < batch_size; ++i) {
        engine.Submit(loop_request).ValueOrDie();
      }
    }
    loop_qps = static_cast<double>(rounds * batch_size) /
               watch.ElapsedSeconds();

    watch.Restart();
    for (size_t round = 0; round < rounds; ++round) {
      const std::vector<Result<QueryResult>> results =
          engine.SubmitBatch(batch);
      for (const Result<QueryResult>& result : results) {
        result.ValueOrDie();
      }
    }
    batch_qps = static_cast<double>(rounds * batch_size) /
                watch.ElapsedSeconds();
    batch_ratio = batch_qps / loop_qps;

    bench::PrintHeader(
        "BENCH_ENGINE grouped batch (64 requests, one (session,policy) "
        "group)",
        {"loop qps", "batch qps", "ratio"});
    bench::PrintRow("submit loop vs SubmitBatch",
                    {bench::Fmt(loop_qps), bench::Fmt(batch_qps),
                     bench::Fmt(batch_ratio) + "x"});
    // Floor at 0.9x: the win per entry (one charge + one plan lookup
    // per group) is a few percent on large-domain releases, within
    // the measurement noise of a busy host, so the gate only rejects
    // a real regression.
    if (!smoke && batch_ratio < 0.9) {
      std::fprintf(stderr,
                   "grouped SubmitBatch (%.0f qps) is slower than the "
                   "submit loop (%.0f qps)\n",
                   batch_qps, loop_qps);
      failed = true;
    }

    // Parallel-composition accounting: a declared-disjoint batch of m
    // requests must charge max(eps), a plain batch sum(eps). This is
    // exact arithmetic — enforced even in smoke mode.
    engine.OpenSession("par", 1e9).Check();
    engine.OpenSession("seq", 1e9).Check();
    std::vector<QueryRequest> tiny(3, proto);
    tiny[0].epsilon = 0.3;
    tiny[1].epsilon = 0.5;
    tiny[2].epsilon = 0.2;
    for (QueryRequest& r : tiny) r.session = "par";
    BatchOptions disjoint;
    disjoint.disjoint_domains = true;
    for (const auto& result : engine.SubmitBatch(tiny, disjoint)) {
      result.ValueOrDie();
    }
    parallel_spent = 1e9 - *engine.SessionRemaining("par");
    for (QueryRequest& r : tiny) r.session = "seq";
    for (const auto& result : engine.SubmitBatch(tiny)) {
      result.ValueOrDie();
    }
    sequential_spent = 1e9 - *engine.SessionRemaining("seq");
    std::printf(
        "  disjoint batch charged %.3f eps (max), plain batch %.3f eps "
        "(sum)\n",
        parallel_spent, sequential_spent);
    if (std::abs(parallel_spent - 0.5) > 1e-9 ||
        std::abs(sequential_spent - 1.0) > 1e-9) {
      std::fprintf(stderr,
                   "parallel-composition charge wrong: max %.6f "
                   "(want 0.5), sum %.6f (want 1.0)\n",
                   parallel_spent, sequential_spent);
      return 1;
    }
  }

  // ------------------------------------------------------------------
  // θ>=2 grid: the single-pass scatter histogram release vs the legacy
  // per-cell reconstruction it replaced (O(edges) vs O(k²·edges)), and
  // the per-query range fast path, which now exists for its utility —
  // per-range error scales with the range perimeter instead of its
  // area — rather than for speed.
  double scatter_ms = 0.0, legacy_est_ms = 0.0, fastpath_ms = 0.0;
  {
    const size_t k = smoke ? 64 : 256;
    const size_t theta = 4;
    const size_t num_ranges = smoke ? 100 : 500;
    const size_t warm_range_submits = smoke ? 3 : (full ? 20 : 5);
    const size_t legacy_cells = smoke ? 64 : 256;  // sampled, then scaled

    QueryEngine engine(SeededOptions(7));
    engine
        .RegisterPolicy("bigslab", GridPolicy(DomainShape({k, k}), theta),
                        Ramp(k * k), 1e9)
        .Check();
    engine.OpenSession("ranges", 1e9).Check();

    Rng workload_rng(11);
    QueryRequest request;
    request.session = "ranges";
    request.policy = "bigslab";
    request.ranges =
        RandomRanges(DomainShape({k, k}), num_ranges, &workload_rng);
    request.epsilon = 0.1;

    bench::PrintHeader(
        "BENCH_ENGINE theta-grid releases (grid " + std::to_string(k) + "x" +
            std::to_string(k) + " th=" + std::to_string(theta) + ", q=" +
            std::to_string(num_ranges) + " ranges)",
        {"cold ms", "warm ms"});

    Stopwatch watch;
    QueryResult cold = engine.Submit(request).ValueOrDie();
    const double range_cold_ms = watch.ElapsedMillis();
    if (!cold.range_fast_path) {
      std::fprintf(stderr, "range request missed the fast path\n");
      return 1;
    }
    watch.Restart();
    for (size_t i = 0; i < warm_range_submits; ++i) {
      engine.Submit(request).ValueOrDie();
    }
    fastpath_ms =
        watch.ElapsedMillis() / static_cast<double>(warm_range_submits);
    bench::PrintRow("range fast path (utility-optimal)",
                    {bench::Fmt(range_cold_ms), bench::Fmt(fastpath_ms)});

    // Dense histogram release through the scatter reconstruction.
    QueryRequest dense = request;
    dense.ranges.reset();
    dense.workload = IdentityWorkload(k * k);
    watch.Restart();
    for (size_t i = 0; i < warm_range_submits; ++i) {
      QueryResult full_release = engine.Submit(dense).ValueOrDie();
      if (full_release.range_fast_path || !full_release.plan_cache_hit) {
        std::fprintf(stderr, "dense submit took an unexpected path\n");
        return 1;
      }
    }
    scatter_ms =
        watch.ElapsedMillis() / static_cast<double>(warm_range_submits);
    bench::PrintRow("dense release (scatter)",
                    {"-", bench::Fmt(scatter_ms)});

    // Legacy per-cell reconstruction, sampled on `legacy_cells` cells
    // and scaled to the full k² (running all cells takes ~50 s at
    // k=256 — the cost this PR removed).
    {
      Rng rng(13);
      auto mech = GridThetaRangeMechanism::Create(k, theta).ValueOrDie();
      const Vector data = Ramp(k * k);
      const Vector xg = mech->PrecomputeTransformed(data);
      std::vector<RangeQuery> cells;
      for (size_t i = 0; i < legacy_cells; ++i) {
        const size_t r = i / k, c = i % k;
        cells.push_back({{r, c}, {r, c}});
      }
      const RangeWorkload sampled("cells", DomainShape({k, k}),
                                  std::move(cells));
      watch.Restart();
      mech->AnswerRangesOnTransformed(sampled, xg, Sum(data), 0.1, &rng);
      legacy_est_ms = watch.ElapsedMillis() *
                      static_cast<double>(k * k) /
                      static_cast<double>(legacy_cells);
      bench::PrintRow("legacy per-cell release (est.)",
                      {"-", bench::Fmt(legacy_est_ms)});
    }

    const double release_speedup = legacy_est_ms / scatter_ms;
    std::printf("  scatter release speedup over per-cell: %.0fx\n",
                release_speedup);
    if (!smoke && release_speedup < 50.0) {
      std::fprintf(stderr,
                   "scatter release speedup %.1fx below the 50x floor\n",
                   release_speedup);
      failed = true;
    }
  }

  // ------------------------------------------------------------------
  // Async pipeline: warm submit-to-resolve latency with and without a
  // concurrent cold plan. The cold lane runs a ~100ms spanner
  // certification (theta-1D 4096) while the warm lane floods; if the
  // lanes isolate properly, warm p99 barely moves.
  AsyncFloodResult async_base, async_cold;
  {
    const size_t flood = smoke ? 200 : 2000;
    async_base = AsyncWarmFlood(/*with_cold=*/false, flood);
    async_cold = AsyncWarmFlood(/*with_cold=*/true, flood);

    bench::PrintHeader(
        "BENCH_ENGINE async pipeline (4 workers, " + std::to_string(flood) +
            " warm submits, cold = theta-1D 4096 spanner plan)",
        {"warm p50 ms", "warm p99 ms", "cold ms", "peak depth"});
    bench::PrintRow("warm flood alone",
                    {bench::Fmt(async_base.warm_p50_ms),
                     bench::Fmt(async_base.warm_p99_ms), "-",
                     std::to_string(async_base.stats.warm.peak_depth)});
    bench::PrintRow("warm flood + cold plan",
                    {bench::Fmt(async_cold.warm_p50_ms),
                     bench::Fmt(async_cold.warm_p99_ms),
                     bench::Fmt(async_cold.cold_plan_ms),
                     std::to_string(async_cold.stats.warm.peak_depth)});

    // "Unaffected" gate: warm p99 under a concurrent cold plan stays
    // within 2x the no-cold baseline. The half-cold-cost floor keeps
    // the gate meaningful on one- and two-core hosts, where the cold
    // plan steals CPU (scheduler quanta land in the tail) even though
    // no warm query ever queues behind it — the property the gate
    // protects is "never pay the head-of-line price", and paying less
    // than half the plan cost while sharing one core proves it.
    const double p99_ceiling = std::max(2.0 * async_base.warm_p99_ms,
                                        0.5 * async_cold.cold_plan_ms);
    std::printf(
        "  warm p99 %.3f ms -> %.3f ms under cold plan (ceiling %.3f ms)\n",
        async_base.warm_p99_ms, async_cold.warm_p99_ms, p99_ceiling);
    if (!smoke && async_cold.warm_p99_ms > p99_ceiling) {
      std::fprintf(stderr,
                   "cold plan blocked the warm lane: p99 %.3f ms vs "
                   "ceiling %.3f ms (baseline %.3f ms, cold %.1f ms)\n",
                   async_cold.warm_p99_ms, p99_ceiling,
                   async_base.warm_p99_ms, async_cold.cold_plan_ms);
      failed = true;
    }
    // The flood and the cold submit must both have used their lanes.
    if (async_cold.stats.cold.enqueued == 0 ||
        async_cold.stats.warm.enqueued == 0) {
      std::fprintf(stderr, "async lanes were not exercised\n");
      return 1;
    }
    // Structural, not perf (enforced in smoke too): the two same-key
    // followers overlapped the leader's certification, so at least one
    // must have parked-and-coalesced. Zero means the run measured
    // nothing about coalescing and its JSON field would be a lie.
    if (async_cold.stats.cold_plans_coalesced == 0) {
      std::fprintf(stderr,
                   "cold_plans_coalesced == 0: same-key cold followers "
                   "did not overlap the leader's plan\n");
      return 1;
    }
    std::printf("  cold plans coalesced behind the leader: %llu\n",
                static_cast<unsigned long long>(
                    async_cold.stats.cold_plans_coalesced));
  }

  // ------------------------------------------------------------------
  // Result streaming: stream vs materialize on the θ-grid fast path.
  // The materialized submit holds the caller until all q answers
  // exist; the stream delivers the first chunk after only the noisy
  // releases plus one chunk's reconstruction, with resident answer
  // memory bounded by the chunk buffer instead of q.
  double materialize_ms = 0.0, stream_ttfc_ms = 0.0, stream_total_ms = 0.0;
  size_t stream_peak_bytes = 0, materialized_bytes = 0;
  {
    const size_t k = smoke ? 64 : 256;
    const size_t num_ranges = smoke ? 1000 : 10000;
    EngineOptions stream_engine_options;
    stream_engine_options.seed = 2015;
    // Sample every submit so the telemetry dump below carries stage
    // traces (this section is few submits; sampling is not on the
    // timed inner loops above).
    stream_engine_options.trace_sample_rate = 1.0;
    QueryEngine engine(stream_engine_options);
    engine
        .RegisterPolicy("streamed", GridPolicy(DomainShape({k, k}), 4),
                        Ramp(k * k), 1e9)
        .Check();
    engine.OpenSession("s", 1e9).Check();
    Rng workload_rng(23);
    QueryRequest request;
    request.session = "s";
    request.policy = "streamed";
    request.ranges =
        RandomRanges(DomainShape({k, k}), num_ranges, &workload_rng);
    request.epsilon = 0.1;
    engine.Submit(request).ValueOrDie();  // warm the plan + transform

    Stopwatch watch;
    const QueryResult full = engine.Submit(request).ValueOrDie();
    materialize_ms = watch.ElapsedMillis();
    materialized_bytes = full.answers.size() * sizeof(double);

    StreamOptions stream_options;
    stream_options.chunk_queries = 256;
    watch.Restart();
    const std::shared_ptr<ResultStream> stream =
        engine.SubmitStream(request, stream_options).ValueOrDie();
    StreamChunk chunk;
    size_t received = 0;
    if (stream->Next(&chunk).ValueOrDie() != StreamNext::kChunk) {
      std::fprintf(stderr, "stream produced no first chunk\n");
      return 1;
    }
    stream_ttfc_ms = watch.ElapsedMillis();
    received += chunk.values.size();
    for (;;) {
      const StreamNext next = stream->Next(&chunk).ValueOrDie();
      if (next == StreamNext::kDone) break;
      received += chunk.values.size();
    }
    stream_total_ms = watch.ElapsedMillis();
    stream_peak_bytes = stream->peak_resident_bytes();
    if (received != num_ranges) {
      std::fprintf(stderr, "stream delivered %zu of %zu answers\n", received,
                   num_ranges);
      return 1;
    }

    bench::PrintHeader(
        "BENCH_ENGINE result streaming (grid " + std::to_string(k) + "x" +
            std::to_string(k) + " th=4, q=" + std::to_string(num_ranges) +
            " ranges, chunk 256)",
        {"total ms", "first ms", "resident KB"});
    bench::PrintRow("materializing Submit",
                    {bench::Fmt(materialize_ms), bench::Fmt(materialize_ms),
                     bench::Fmt(static_cast<double>(materialized_bytes) /
                                1024.0)});
    bench::PrintRow("SubmitStream",
                    {bench::Fmt(stream_total_ms), bench::Fmt(stream_ttfc_ms),
                     bench::Fmt(static_cast<double>(stream_peak_bytes) /
                                1024.0)});
    std::printf(
        "  time-to-first-chunk %.2f ms vs %.2f ms materialized (gate: "
        "<= 1/10)\n",
        stream_ttfc_ms, materialize_ms);
    if (!smoke && stream_ttfc_ms > materialize_ms / 10.0) {
      std::fprintf(stderr,
                   "time-to-first-chunk %.2f ms exceeds 1/10 of the "
                   "materialized latency %.2f ms\n",
                   stream_ttfc_ms, materialize_ms);
      failed = true;
    }

    if (write_json) {
      // Telemetry artifacts from this section's engine: the unified
      // metrics snapshot and the ε-audit JSONL (what CI uploads).
      const auto dump = [](const char* path, const std::string& body) {
        FILE* f = std::fopen(path, "w");
        if (f == nullptr) {
          std::fprintf(stderr, "cannot write %s\n", path);
          return;
        }
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
        std::printf("  wrote %s\n", path);
      };
      dump("BENCH_engine_metrics.json",
           engine.telemetry().metrics().SnapshotJson());
      dump("BENCH_engine_audit.jsonl", engine.telemetry().audit().ExportJsonl());
    }
  }

  // ------------------------------------------------------------------
  // Warm-restart snapshot store: the full cold path (construct,
  // register, plan + certify + transform on first submit) vs a
  // restart that mmaps the snapshot written by the first engine and
  // readmits the same request with everything pre-populated. The
  // subject is the spanner-backed theta policy, whose CertifySpanner
  // pass dominates cold admission — exactly the cost the snapshot's
  // certified-stretch hint removes.
  double snap_cold_ms = 0.0, snap_warm_ms = 0.0, snap_speedup = 0.0;
  uint64_t snap_generation = 0;
  {
    const size_t k = smoke ? 1024 : 4096;
    char tmpl[] = "/tmp/bfsnapbench.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::fprintf(stderr, "cannot create snapshot bench dir\n");
      return 1;
    }
    const std::string dir = tmpl;

    EngineOptions snap_options;
    snap_options.seed = 2015;
    snap_options.snapshot_path = dir;

    QueryRequest request;
    request.session = "s";
    request.policy = "theta";
    Rng workload_rng(29);
    request.ranges = RandomRanges(DomainShape({k}), 16, &workload_rng);
    request.epsilon = 0.01;

    Stopwatch watch;
    {
      QueryEngine engine(snap_options);
      engine
          .RegisterPolicy("theta", Theta1DPolicy(k, 4), Ramp(k), 1e9)
          .Check();
      engine.OpenSession("s", 1e9).Check();
      engine.Submit(request).ValueOrDie();
      snap_cold_ms = watch.ElapsedMillis();
      engine.WriteSnapshot().Check();
    }

    watch.Restart();
    QueryEngine engine(snap_options);
    engine.OpenSession("s", 1e9).Check();
    const QueryResult warm = engine.Submit(request).ValueOrDie();
    snap_warm_ms = watch.ElapsedMillis();
    snap_generation = engine.snapshot_restore_stats().generation;
    snap_speedup = snap_cold_ms / snap_warm_ms;

    bench::PrintHeader(
        "BENCH_ENGINE warm restart (theta G^4_" + std::to_string(k) +
            " spanner, snapshot store)",
        {"cold start ms", "warm restart ms", "speedup"});
    bench::PrintRow("register+certify vs mmap+decode",
                    {bench::Fmt(snap_cold_ms), bench::Fmt(snap_warm_ms),
                     bench::Fmt(snap_speedup) + "x"});

    // Structural (smoke too): the restart must have restored from the
    // snapshot and admitted with zero cold work, or the timing above
    // compared nothing.
    if (!engine.snapshot_restore_stats().loaded || !warm.plan_cache_hit ||
        engine.plan_cache_stats().misses != 0) {
      std::fprintf(stderr,
                   "warm restart did not restore from the snapshot "
                   "(loaded=%d hit=%d misses=%llu)\n",
                   engine.snapshot_restore_stats().loaded ? 1 : 0,
                   warm.plan_cache_hit ? 1 : 0,
                   static_cast<unsigned long long>(
                       engine.plan_cache_stats().misses));
      return 1;
    }
    if (!smoke && snap_speedup < 10.0) {
      std::fprintf(stderr,
                   "warm-restart speedup %.1fx below the 10x floor "
                   "(cold %.1f ms, warm %.1f ms)\n",
                   snap_speedup, snap_cold_ms, snap_warm_ms);
      failed = true;
    }

    Result<std::vector<std::string>> files = snapshot::ListFiles(dir);
    if (files.ok()) {
      for (const std::string& name : files.ValueOrDie()) {
        ::unlink((dir + "/" + name).c_str());
      }
    }
    ::rmdir(dir.c_str());
  }

  // ------------------------------------------------------------------
  // Observability overhead. The per-request obs work (tenant family
  // updates, flight record, burn window arithmetic) plus a live
  // scraper must cost < 5% of warm x4 throughput — otherwise "always
  // on" is a lie operators pay for. `off` strips the plane entirely
  // (the pre-obs engine); `on` runs the defaults plus an in-process
  // scrape server polled at 1 Hz, the deployment this PR recommends.
  double obs_geomean_ratio = 0.0;
  struct ObsRow {
    std::string name;
    double qps_off = 0.0;
    double qps_on = 0.0;
    double ratio = 0.0;
  };
  std::vector<ObsRow> obs_rows;
  uint64_t obs_scrapes = 0;
  {
    bench::PrintHeader(
        "BENCH_ENGINE observability overhead (warm x" +
            std::to_string(threads_x4) + ", obs plane + 1 Hz /metrics "
            "scraper vs stripped engine)",
        {"qps obs off", "qps obs on", "ratio"});
    std::vector<double> ratios;
    for (Subject& subject : subjects) {
      const auto prime = [&](QueryEngine* engine) {
        engine
            ->RegisterPolicy(subject.policy_name, subject.policy,
                             Ramp(subject.domain), 1e9)
            .Check();
        engine->OpenSession("prime", 1e9).Check();
        QueryRequest request;
        request.session = "prime";
        request.policy = subject.policy_name;
        request.workload = IdentityWorkload(subject.domain);
        request.epsilon = 0.1;
        engine->Submit(request).ValueOrDie();  // plan once, off the clock
      };

      EngineOptions off_options;
      off_options.seed = 2015;
      off_options.warm_plan_cache = false;
      off_options.tenant_metrics_capacity = 0;
      off_options.flight_recorder_capacity = 0;
      off_options.burn_alerts_enabled = false;
      QueryEngine engine_off(off_options);
      prime(&engine_off);
      ObsRow row;
      row.name = subject.policy_name;
      row.qps_off = WarmQps(&engine_off, subject, 4, threads_x4,
                            warm_submits / 2, /*use_handles=*/true);

      EngineOptions on_options;  // obs defaults: families + flight on
      on_options.seed = 2015;
      on_options.warm_plan_cache = false;
      on_options.obs_port = 0;
      QueryEngine engine_on(on_options);
      if (engine_on.obs_server() == nullptr) {
        std::fprintf(stderr, "obs server failed to start: %s\n",
                     engine_on.obs_error().ToString().c_str());
        return 1;
      }
      prime(&engine_on);
      const int port = engine_on.obs_server()->port();
      std::atomic<bool> stop_scraper{false};
      std::thread scraper([port, &stop_scraper, &obs_scrapes] {
        while (!stop_scraper.load(std::memory_order_acquire)) {
          const Result<HttpResponse> scrape = ObsHttpGet(port, "/metrics");
          if (scrape.ok() && scrape.ValueOrDie().status == 200) {
            ++obs_scrapes;
          }
          // 1 Hz, polled in 50 ms slices so teardown is prompt.
          for (int i = 0; i < 20 && !stop_scraper.load(); ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
        }
      });
      row.qps_on = WarmQps(&engine_on, subject, 4, threads_x4,
                           warm_submits / 2, /*use_handles=*/true);
      stop_scraper.store(true, std::memory_order_release);
      scraper.join();

      row.ratio = row.qps_on / row.qps_off;
      ratios.push_back(row.ratio);
      bench::PrintRow(subject.label,
                      {bench::Fmt(row.qps_off), bench::Fmt(row.qps_on),
                       bench::Fmt(row.ratio) + "x"});
      obs_rows.push_back(row);
    }
    obs_geomean_ratio = Geomean(ratios);
    std::printf(
        "  obs-plane geomean throughput ratio: %.3fx (floor 0.95x), "
        "%llu live scrapes\n",
        obs_geomean_ratio, static_cast<unsigned long long>(obs_scrapes));
    // Structural (smoke too): the scraper must have actually scraped a
    // live server at least once per subject, or the "on" lane measured
    // an idle obs plane.
    if (obs_scrapes < subjects.size()) {
      std::fprintf(stderr,
                   "scraper landed %llu scrapes over %zu subjects — the "
                   "obs lane was not exercised\n",
                   static_cast<unsigned long long>(obs_scrapes),
                   subjects.size());
      return 1;
    }
    if (!smoke && obs_geomean_ratio < 0.95) {
      std::fprintf(stderr,
                   "obs plane costs %.1f%% of warm x4 throughput "
                   "(geomean ratio %.3f, floor 0.95)\n",
                   (1.0 - obs_geomean_ratio) * 100.0, obs_geomean_ratio);
      failed = true;
    }
  }

  if (write_json) {
    FILE* out = std::fopen("BENCH_engine.json", "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_engine.json\n");
      return 1;
    }
    std::fprintf(out, "{\n  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(out, "  \"hardware_concurrency\": %zu,\n", cores);
    // The actual submitter counts behind warm_qps_x4/x16 (clamped to
    // the hardware in smoke mode; nominal 4/16 otherwise).
    std::fprintf(out,
                 "  \"warm_threads_x4\": %zu,\n  \"warm_threads_x16\": %zu,\n"
                 "  \"smoke_thread_clamp\": %s,\n",
                 threads_x4, threads_x16,
                 (threads_x4 < 4 || threads_x16 < 16) ? "true" : "false");
    std::fprintf(out, "  \"subjects\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const SubjectRow& row = rows[i];
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"cold_ms\": %.4f, "
                   "\"warm_qps_x1_string\": %.1f, \"warm_qps_x1\": %.1f, "
                   "\"warm_qps_x4\": %.1f, \"warm_qps_x16\": %.1f, "
                   "\"speedup_vs_pr2\": %.3f}%s\n",
                   row.name.c_str(), row.cold_ms,
                   row.qps1_string, row.qps1, row.qps4, row.qps16,
                   row.speedup, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"geomean_speedup_vs_pr2\": %.3f,\n",
                 geomean_speedup);
    std::fprintf(out,
                 "  \"batch\": {\"loop_qps\": %.1f, \"batch_qps\": %.1f, "
                 "\"ratio\": %.3f},\n",
                 loop_qps, batch_qps, batch_ratio);
    std::fprintf(out,
                 "  \"parallel_composition\": {\"disjoint_spent_eps\": %.6f, "
                 "\"sequential_spent_eps\": %.6f},\n",
                 parallel_spent, sequential_spent);
    std::fprintf(out,
                 "  \"theta_grid\": {\"fast_path_warm_ms\": %.3f, "
                 "\"scatter_release_ms\": %.3f, "
                 "\"legacy_percell_est_ms\": %.3f},\n",
                 fastpath_ms, scatter_ms, legacy_est_ms);
    std::fprintf(out, "  \"async\": {\n");
    std::fprintf(out,
                 "    \"workers\": %zu,\n"
                 "    \"warm_p50_ms_base\": %.4f, \"warm_p99_ms_base\": "
                 "%.4f,\n"
                 "    \"warm_p50_ms_under_cold\": %.4f, "
                 "\"warm_p99_ms_under_cold\": %.4f,\n"
                 "    \"cold_plan_ms\": %.2f,\n",
                 async_cold.stats.workers, async_base.warm_p50_ms,
                 async_base.warm_p99_ms, async_cold.warm_p50_ms,
                 async_cold.warm_p99_ms, async_cold.cold_plan_ms);
    std::fprintf(out,
                 "    \"warm_peak_queue_depth\": %zu, "
                 "\"cold_peak_queue_depth\": %zu,\n"
                 "    \"cold_plans_coalesced\": %llu,\n",
                 async_cold.stats.warm.peak_depth,
                 async_cold.stats.cold.peak_depth,
                 static_cast<unsigned long long>(
                     async_cold.stats.cold_plans_coalesced));
    std::fprintf(out,
                 "    \"digest_warm_p50_ms\": %.4f, \"digest_warm_p99_ms\": "
                 "%.4f,\n"
                 "    \"digest_cold_p50_ms\": %.4f, \"digest_cold_p99_ms\": "
                 "%.4f\n  },\n",
                 async_cold.stats.warm.p50_ms, async_cold.stats.warm.p99_ms,
                 async_cold.stats.cold.p50_ms, async_cold.stats.cold.p99_ms);
    std::fprintf(out,
                 "  \"stream\": {\"materialize_ms\": %.3f, "
                 "\"stream_total_ms\": %.3f, \"time_to_first_chunk_ms\": "
                 "%.3f,\n"
                 "    \"peak_resident_chunk_bytes\": %zu, "
                 "\"materialized_answer_bytes\": %zu},\n",
                 materialize_ms, stream_total_ms, stream_ttfc_ms,
                 stream_peak_bytes, materialized_bytes);
    std::fprintf(out,
                 "  \"snapshot\": {\"cold_start_ms\": %.3f, "
                 "\"warm_restart_ms\": %.3f, \"speedup\": %.2f, "
                 "\"generation\": %llu},\n",
                 snap_cold_ms, snap_warm_ms, snap_speedup,
                 static_cast<unsigned long long>(snap_generation));
    std::fprintf(out, "  \"obs\": {\n    \"subjects\": [\n");
    for (size_t i = 0; i < obs_rows.size(); ++i) {
      const ObsRow& row = obs_rows[i];
      std::fprintf(out,
                   "      {\"name\": \"%s\", \"warm_qps_x4_obs_off\": %.1f, "
                   "\"warm_qps_x4_obs_on\": %.1f, \"ratio\": %.4f}%s\n",
                   row.name.c_str(), row.qps_off, row.qps_on, row.ratio,
                   i + 1 < obs_rows.size() ? "," : "");
    }
    std::fprintf(out,
                 "    ],\n    \"geomean_ratio\": %.4f, "
                 "\"scrapes\": %llu, \"scrape_hz\": 1\n  }\n",
                 obs_geomean_ratio,
                 static_cast<unsigned long long>(obs_scrapes));
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("  wrote BENCH_engine.json\n");
  }

  return failed ? 1 : 0;
}
