// End-to-end runs: the four workloads measured from the client side
// with no tracing, plus the output checks that fail a run.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <thread>

#include "process_stats.h"
#include "bench.h"
#include "core/mechanisms_kd.h"
#include "core/planner.h"
#include "summary.h"

namespace perfbench {

using blowfish::AsyncQueryEngine;
using blowfish::EngineOptions;
using blowfish::QueryEngine;
using blowfish::QueryRequest;
using blowfish::QueryResult;
using blowfish::Result;
using blowfish::Rng;
using blowfish::Vector;

namespace {

[[noreturn]] void Die(const std::string& what, const blowfish::Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(2);
}

uint32_t ClampNs(uint64_t ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
}

}  // namespace

WorkloadConfig ConfigFor(const std::string& workload) {
  WorkloadConfig c;
  if (workload == "admit-small") {
    c.clients = 2;
    c.rate = 100000;
    c.setup_reps = 21;
    c.rmse_every = 8;
    c.reference_draws = 20000;
    c.cold_probes = 1000;
    c.stream_probes = 20000;
  } else if (workload == "journal-small") {
    c.clients = 3;
    c.rate = 6500;
    c.journal = true;
    c.setup_reps = 11;
    c.reference_draws = 20000;
    c.cold_probes = 200;
    c.stream_probes = 1000;
  } else if (workload == "release-heavy") {
    c.clients = 1;
    c.rate = 1000;
    c.stream_share = 0.5;
    c.setup_reps = 11;
    c.reference_draws = 1500;
    c.cold_probes = 80;
  } else {  // cold-churn
    c.clients = 1;
    c.rate = 2500;
    c.async = true;
    c.setup_reps = 5;
    c.reference_draws = 6000;
    c.stream_probes = 2000;
  }
  return c;
}

CacheBudgets ChurnBudgets(const Fixture& f) {
  size_t plan_bytes = 0, transform_bytes = 0;
  for (const PolicySpec& spec : f.policies) {
    Result<blowfish::Plan> plan =
        blowfish::PlanMechanism(blowfish::PlanRequest{spec.policy, false, {}});
    if (!plan.ok()) Die("planning " + spec.name, plan.status());
    plan_bytes += plan->approx_bytes;
    auto pre = plan->mechanism->PrecomputeRelease(spec.data);
    if (pre != nullptr) transform_bytes += pre->ApproxBytes();
  }
  return CacheBudgets{plan_bytes / 2, transform_bytes / 2};
}

EngineOptions OptionsFor(const WorkloadConfig& config,
                         const std::string& journal_dir,
                         const CacheBudgets& budgets) {
  EngineOptions o;
  // Fixed so noise draws repeat run to run (never do this in a
  // deployment: see EngineOptions::seed).
  o.seed = 0xB10F15Dull;
  o.warm_plan_cache = true;
  o.plan_cache_bytes = budgets.plan_bytes;
  o.transform_cache_bytes = budgets.transform_bytes;
  o.async_workers = 2;
  o.async_queue_capacity = 1 << 14;
  if (config.journal) {
    o.journal_path = journal_dir;
    // Small segments so a run rotates and checkpoints several times.
    o.journal_segment_bytes = 2 << 20;
  }
  return o;
}

Deployment Deploy(const Fixture& f, const WorkloadConfig& config,
                  const EngineOptions& options) {
  Deployment d;
  if (config.async) {
    d.async = std::make_unique<AsyncQueryEngine>(options);
    d.engine = &d.async->engine();
  } else {
    Result<std::unique_ptr<QueryEngine>> opened = QueryEngine::Open(options);
    if (!opened.ok()) Die("opening engine", opened.status());
    d.sync = std::move(opened).ValueOrDie();
    d.engine = d.sync.get();
  }
  for (const PolicySpec& spec : f.policies) {
    const blowfish::Status s = d.engine->RegisterPolicy(
        spec.name, spec.policy, spec.data, CapForGeneration(0));
    if (!s.ok()) Die("registering " + spec.name, s);
    d.policies.push_back(d.engine->ResolvePolicy(spec.name).ValueOrDie());
  }
  d.sessions.reserve(f.sessions.size());
  for (const std::string& id : f.sessions) {
    const blowfish::Status s = d.engine->OpenSession(id, kSessionBudget);
    if (!s.ok()) Die("opening session " + id, s);
    d.sessions.push_back(d.engine->ResolveSession(id).ValueOrDie());
  }
  return d;
}

double TimedSetup(const Fixture& f, const WorkloadConfig& config,
                  const std::string& dir, const CacheBudgets& budgets, int rep,
                  Deployment* out, std::string* journal_dir) {
  const std::string jdir = dir + "/journal-" + std::to_string(rep);
  std::filesystem::remove_all(jdir);
  const EngineOptions options = OptionsFor(config, jdir, budgets);
  const uint64_t t0 = NowNs();
  Deployment d = Deploy(f, config, options);
  const double secs = static_cast<double>(NowNs() - t0) * 1e-9;
  if (out != nullptr) {
    *out = std::move(d);
    *journal_dir = jdir;
  } else {
    d = Deployment();
    std::filesystem::remove_all(jdir);
  }
  return secs;
}

/// Share of requests that name their session and policy by string id
/// instead of by handle.
constexpr double kStringShare = 0.1;

std::vector<Op> MakeOps(const Fixture& f, const WorkloadConfig& config,
                        size_t count, Rng* rng) {
  const std::vector<double> cumulative = Cumulative(f.weights);
  std::vector<Op> ops(count);
  for (Op& op : ops) {
    op.tmpl = static_cast<uint32_t>(DrawWeighted(cumulative, rng));
    op.session = static_cast<uint32_t>(
        rng->UniformInt(0, static_cast<int64_t>(f.sessions.size()) - 1));
    op.by_string = rng->Uniform() < kStringShare;
    op.stream = rng->Uniform() < config.stream_share;
  }
  return ops;
}

void Address(const Op& op, const Fixture& f, const Deployment& d,
             QueryRequest* r) {
  if (op.by_string) {
    r->session = f.sessions[op.session];
    r->session_handle = blowfish::LedgerHandle();
    r->policy_handle = blowfish::PolicyHandle();
  } else {
    r->session.clear();
    r->session_handle = d.sessions[op.session];
    r->policy_handle = d.policies[f.templates[op.tmpl].policy];
  }
}

namespace {

// ------------------------------------------------------------ tallies

/// One timed request: its latency and the template or policy it
/// exercised.
struct Sample {
  uint32_t ns = 0;
  uint32_t key = 0;
};

/// Per-client record of a phase; merged after the clients join.
struct Tally {
  std::vector<Sample> latency;  ///< keyed by template
  std::vector<Sample> ttfc;     ///< keyed by template
  std::vector<Sample> cold;     ///< keyed by policy
  std::vector<uint64_t> session_acks;
  std::vector<uint64_t> policy_acks;
  std::vector<double> sq_err;     ///< per template
  std::vector<uint64_t> err_n;    ///< answers per template
  std::vector<uint64_t> err_req;  ///< sampled requests per template
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t bad_answers = 0;
  std::string first_error;

  void Init(const Fixture& f) {
    session_acks.assign(f.sessions.size(), 0);
    policy_acks.assign(f.policies.size(), 0);
    sq_err.assign(f.templates.size(), 0);
    err_n.assign(f.templates.size(), 0);
    err_req.assign(f.templates.size(), 0);
  }

  void Merge(const Tally& o) {
    latency.insert(latency.end(), o.latency.begin(), o.latency.end());
    ttfc.insert(ttfc.end(), o.ttfc.begin(), o.ttfc.end());
    cold.insert(cold.end(), o.cold.begin(), o.cold.end());
    for (size_t i = 0; i < session_acks.size(); ++i) session_acks[i] += o.session_acks[i];
    for (size_t i = 0; i < policy_acks.size(); ++i) policy_acks[i] += o.policy_acks[i];
    for (size_t i = 0; i < sq_err.size(); ++i) {
      sq_err[i] += o.sq_err[i];
      err_n[i] += o.err_n[i];
      err_req[i] += o.err_req[i];
    }
    attempted += o.attempted;
    failed += o.failed;
    bad_answers += o.bad_answers;
    if (first_error.empty()) first_error = o.first_error;
  }

  void Fail(const blowfish::Status& s) {
    ++failed;
    if (first_error.empty()) first_error = s.ToString();
  }

  /// Checks one answer vector (length, finiteness) and, when sampled,
  /// folds its squared error against the truth at `generation` into
  /// the RMSE accumulators.
  void Answers(const Vector& answers, const Template& t, int generation,
               bool sample, size_t tmpl) {
    bool good = answers.size() == t.truth.size();
    for (double a : answers) good = good && std::isfinite(a);
    if (!good) {
      ++bad_answers;
      return;
    }
    if (!sample) return;
    double sq = 0;
    for (size_t i = 0; i < answers.size(); ++i) {
      const double e = answers[i] - (t.truth[i] + generation * t.cells[i]);
      sq += e * e;
    }
    sq_err[tmpl] += sq;
    err_n[tmpl] += answers.size();
    err_req[tmpl] += 1;
  }

  void Ack(const Op& op, const Fixture& f) {
    ++session_acks[op.session];
    ++policy_acks[f.templates[op.tmpl].policy];
  }
};

/// Drains a stream, returning the concatenated answers; `first_ns`
/// receives the clock when the first chunk arrived.
blowfish::Status Drain(blowfish::ResultStream* stream, Vector* answers,
                       uint64_t* first_ns) {
  answers->clear();
  const Result<blowfish::StreamHeader> header = stream->header();
  if (header.ok()) answers->reserve(header->total_answers);
  blowfish::StreamChunk chunk;
  for (;;) {
    Result<blowfish::StreamNext> next = stream->Next(&chunk);
    if (!next.ok()) return next.status();
    if (*next == blowfish::StreamNext::kDone) return blowfish::Status::OK();
    if (*first_ns == 0) *first_ns = NowNs();
    answers->insert(answers->end(), chunk.values.begin(), chunk.values.end());
  }
}

// -------------------------------------------------------- closed loop

/// One closed-loop client: sends ops[begin], ops[begin + stride], ...
/// each after the previous returned, timing each call.
void ClientLoop(QueryEngine* engine, const Fixture& f, const Deployment& d,
                const WorkloadConfig& config, const std::vector<Op>& ops,
                size_t begin, size_t stride, Tally* tally) {
  std::vector<QueryRequest> requests;
  for (const Template& t : f.templates) requests.push_back(t.request);
  tally->latency.reserve(ops.size() / stride + 1);
  auto sample = [](uint64_t t0, uint64_t t1, uint32_t key) {
    return Sample{ClampNs(t1 - t0), key};
  };
  Vector streamed;
  size_t seen = 0;
  for (size_t i = begin; i < ops.size(); i += stride, ++seen) {
    const Op& op = ops[i];
    QueryRequest& r = requests[op.tmpl];
    Address(op, f, d, &r);
    const bool rmse = seen % config.rmse_every == 0;
    ++tally->attempted;
    if (!op.stream) {
      const uint64_t t0 = NowNs();
      Result<QueryResult> res = engine->Submit(r);
      const uint64_t t1 = NowNs();
      tally->latency.push_back(sample(t0, t1, op.tmpl));
      if (!res.ok()) {
        tally->Fail(res.status());
        continue;
      }
      tally->Ack(op, f);
      tally->Answers(res->answers, f.templates[op.tmpl], 0, rmse, op.tmpl);
    } else {
      QueryRequest copy = r;  // SubmitStream consumes its request
      uint64_t first = 0;
      const uint64_t t0 = NowNs();
      Result<std::shared_ptr<blowfish::ResultStream>> s =
          engine->SubmitStream(std::move(copy));
      if (!s.ok()) {
        tally->latency.push_back(sample(t0, NowNs(), op.tmpl));
        tally->Fail(s.status());
        continue;
      }
      const blowfish::Status drained = Drain(s->get(), &streamed, &first);
      const uint64_t t1 = NowNs();
      tally->latency.push_back(sample(t0, t1, op.tmpl));
      tally->Ack(op, f);  // admission charged, even if draining failed
      if (!drained.ok()) {
        tally->Fail(drained);
        continue;
      }
      tally->ttfc.push_back(sample(t0, first, op.tmpl));
      tally->Answers(streamed, f.templates[op.tmpl], 0, rmse, op.tmpl);
    }
  }
}

/// Runs `ops` with config.clients threads; returns wall seconds.
double ClosedLoop(const Fixture& f, const Deployment& d,
                  const WorkloadConfig& config, const std::vector<Op>& ops,
                  Tally* merged) {
  std::vector<Tally> tallies(static_cast<size_t>(config.clients));
  for (Tally& t : tallies) t.Init(f);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < config.clients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      ClientLoop(d.engine, f, d, config, ops, static_cast<size_t>(c),
                 static_cast<size_t>(config.clients), &tallies[c]);
    });
  }
  const uint64_t t0 = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double wall = static_cast<double>(NowNs() - t0) * 1e-9;
  for (const Tally& t : tallies) merged->Merge(t);
  return wall;
}

// ------------------------------------------------------------ probes

/// SubmitStream probes from one client: time to first chunk. Probe
/// i (counting from `first`) uses template i mod #templates, so every
/// template gets the same share.
void StreamProbes(const Fixture& f, const Deployment& d, size_t first, size_t count,
                  Rng* rng, Tally* tally) {
  WorkloadConfig uniform;
  std::vector<Op> ops = MakeOps(f, uniform, count, rng);
  for (size_t i = 0; i < ops.size(); ++i) {
    ops[i].tmpl = static_cast<uint32_t>((first + i) % f.templates.size());
  }
  Vector answers;
  for (Op& op : ops) {
    QueryRequest r = f.templates[op.tmpl].request;
    Address(op, f, d, &r);
    ++tally->attempted;
    uint64_t first_chunk = 0;
    const uint64_t t0 = NowNs();
    std::shared_ptr<blowfish::ResultStream> stream;
    if (d.async != nullptr) {
      stream = d.async->SubmitStreamAsync(std::move(r));
    } else {
      Result<std::shared_ptr<blowfish::ResultStream>> s =
          d.engine->SubmitStream(std::move(r));
      if (!s.ok()) {
        tally->Fail(s.status());
        continue;
      }
      stream = std::move(s).ValueOrDie();
    }
    const blowfish::Status drained = Drain(stream.get(), &answers, &first_chunk);
    if (!drained.ok()) {
      tally->Fail(drained);
      continue;
    }
    tally->ttfc.push_back(Sample{ClampNs(first_chunk - t0), op.tmpl});
    tally->Ack(op, f);
    tally->Answers(answers, f.templates[op.tmpl], 0, false, op.tmpl);
  }
}

/// Cold probes: ReplacePolicy (same policy and data, fresh ledger of
/// the next generation), then one timed Submit that must plan cold.
/// Probe i (counting from `first`) targets policy i mod #policies.
/// `charged` counts, per policy, the acknowledged charges on its
/// current generation: a replacement restarts it.
void ColdProbes(const Fixture& f, const Deployment& d, size_t first, size_t count,
                Rng* rng, Tally* tally, std::vector<int>* generation,
                std::vector<uint64_t>* charged) {
  for (size_t i = first; i < first + count; ++i) {
    const size_t p = i % f.policies.size();
    const PolicySpec& spec = f.policies[p];
    const int g = ++(*generation)[p];
    const blowfish::Status replaced = d.engine->ReplacePolicy(
        spec.name, spec.policy, spec.data, CapForGeneration(g));
    if (!replaced.ok()) Die("replacing " + spec.name, replaced);
    (*charged)[p] = 0;
    size_t tmpl = 0;
    while (f.templates[tmpl].policy != p) ++tmpl;
    Op op;
    op.tmpl = static_cast<uint32_t>(tmpl);
    op.session = static_cast<uint32_t>(
        rng->UniformInt(0, static_cast<int64_t>(f.sessions.size()) - 1));
    QueryRequest r = f.templates[tmpl].request;
    Address(op, f, d, &r);
    ++tally->attempted;
    const uint64_t t0 = NowNs();
    Result<QueryResult> res = d.engine->Submit(r);
    const uint64_t t1 = NowNs();
    if (!res.ok()) {
      tally->Fail(res.status());
      continue;
    }
    tally->Ack(op, f);
    ++(*charged)[p];
    if (!res->plan_cache_hit) {
      tally->cold.push_back(Sample{ClampNs(t1 - t0), static_cast<uint32_t>(p)});
    }
    tally->Answers(res->answers, f.templates[tmpl], 0, false, tmpl);
  }
}

/// One block's probes, sent from their own thread while the block's
/// clients run: `colds` cold probes and `streams` stream probes
/// (numbered from `cold_first` and `stream_first`) in `colds` bursts
/// paced evenly over `span_ns`, each burst one cold probe followed by
/// an equal share of the stream probes back to back. The thread's own
/// allocations and CPU time go to `allocs` and `cpu_ns`, for the
/// caller to take out of the clients' figures.
void ProbeBlock(const Fixture& f, const Deployment& d, size_t stream_first,
                size_t streams, size_t cold_first, size_t colds, uint64_t span_ns,
                Rng* rng, Tally* tally, std::vector<int>* generation,
                std::vector<uint64_t>* charged, uint64_t* allocs, uint64_t* cpu_ns) {
  const uint64_t allocs0 = ThreadAllocations();
  const uint64_t cpu0 = ThreadCpuNs();
  const size_t bursts = std::max<size_t>(colds, 1);
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < bursts; ++i) {
    std::this_thread::sleep_until(start + std::chrono::nanoseconds(span_ns * i / bursts));
    if (i < colds) ColdProbes(f, d, cold_first + i, 1, rng, tally, generation, charged);
    const size_t first = streams * i / bursts;
    const std::vector<uint64_t> acked = tally->policy_acks;
    StreamProbes(f, d, stream_first + first, streams * (i + 1) / bursts - first, rng, tally);
    for (size_t p = 0; p < acked.size(); ++p) (*charged)[p] += tally->policy_acks[p] - acked[p];
  }
  *allocs = ThreadAllocations() - allocs0;
  *cpu_ns = ThreadCpuNs() - cpu0;
}

// ------------------------------------------------------------- checks

/// Engine RMSE over the sampled answers divided by the RMSE of the
/// same plans' core mechanisms run directly at the same ε, weighted by
/// the sampled answer counts per template. Computed outside timing.
double RmseRatio(const Fixture& f, const WorkloadConfig& config,
                 const Tally& tally, uint64_t seed) {
  uint64_t sampled = 0;
  for (uint64_t n : tally.err_req) sampled += n;
  if (sampled == 0) return 0;
  std::vector<std::shared_ptr<blowfish::Plan>> plans(f.policies.size());
  Rng rng(seed ^ 0xA11CEull);
  double engine_sum = 0, ref_sum = 0;
  for (size_t t = 0; t < f.templates.size(); ++t) {
    if (tally.err_req[t] == 0) continue;
    const Template& tmpl = f.templates[t];
    const PolicySpec& spec = f.policies[tmpl.policy];
    if (plans[tmpl.policy] == nullptr) {
      Result<blowfish::Plan> plan =
          blowfish::PlanMechanism(blowfish::PlanRequest{spec.policy, false, {}});
      if (!plan.ok()) Die("reference plan " + spec.name, plan.status());
      plans[tmpl.policy] =
          std::make_shared<blowfish::Plan>(std::move(plan).ValueOrDie());
    }
    const blowfish::Plan& plan = *plans[tmpl.policy];
    // Reference draws in proportion to this template's share of the
    // sample, at least 20.
    const size_t draws = std::max<size_t>(
        20, config.reference_draws * tally.err_req[t] / sampled);
    double sq = 0;
    size_t n = 0;
    for (size_t k = 0; k < draws; ++k) {
      const QueryRequest& r = tmpl.request;
      Vector answers;
      if (r.ranges && plan.range_mechanism != nullptr &&
          r.ranges->domain().dims() == spec.policy.domain.dims()) {
        answers = plan.range_mechanism->AnswerRanges(*r.ranges, spec.data,
                                                     r.epsilon, &rng);
      } else {
        const Vector est = plan.mechanism->Run(spec.data, r.epsilon, &rng);
        answers = r.ranges ? r.ranges->Answer(est) : r.workload.Answer(est);
      }
      for (size_t i = 0; i < answers.size(); ++i) {
        const double e = answers[i] - tmpl.truth[i];
        sq += e * e;
      }
      n += answers.size();
    }
    const double weight = static_cast<double>(tally.err_n[t]);
    engine_sum += tally.sq_err[t];  // = weight * engine MSE
    ref_sum += weight * sq / static_cast<double>(n);
  }
  return std::sqrt(engine_sum / ref_sum);
}

/// Σ acknowledged ε per session equals the engine's reported spend.
void CheckSessions(const Fixture& f, const QueryEngine& engine,
                   const std::vector<uint64_t>& acks, const char* name,
                   Outcome* out) {
  size_t bad = 0;
  std::string example;
  for (size_t s = 0; s < f.sessions.size(); ++s) {
    Result<double> rem = engine.SessionRemaining(f.sessions[s]);
    const double want = kSessionBudget - static_cast<double>(acks[s]) * kEpsilon;
    if (!rem.ok() || *rem != want) {
      if (bad++ == 0) {
        example = f.sessions[s] + " reports " +
                  (rem.ok() ? std::to_string(*rem) : rem.status().ToString()) +
                  ", acknowledged spend leaves " + std::to_string(want);
      }
    }
  }
  out->Check(bad == 0, name,
             std::to_string(bad) + " sessions disagree, e.g. " + example);
}

/// Σ acknowledged ε per policy equals the spend on its current
/// version's cap ledger.
void CheckPolicies(const Fixture& f, const QueryEngine& engine,
                   const std::vector<uint64_t>& acks,
                   const std::vector<int>& generation, const char* name,
                   Outcome* out) {
  for (size_t p = 0; p < f.policies.size(); ++p) {
    Result<double> rem = engine.PolicyRemaining(f.policies[p].name);
    const double want =
        CapForGeneration(generation[p]) - static_cast<double>(acks[p]) * kEpsilon;
    out->Check(rem.ok() && *rem == want, name,
               f.policies[p].name + " reports " +
                   (rem.ok() ? std::to_string(*rem) : rem.status().ToString()) +
                   ", acknowledged spend leaves " + std::to_string(want));
  }
}

constexpr size_t kBlocks = 10;

/// One block of a timed phase: the latencies of the requests it
/// completed and its wall time.
struct Block {
  std::vector<uint32_t> ns;
  double wall_s = 0;
};

/// Throughput, p50 and p99 per block, each reported as the median over
/// the blocks, so a slow spell on a shared machine that covers less
/// than half the run does not move it. Whole-run figures go to the
/// detail line.
void AddLatency(std::vector<Block> blocks, Outcome* out) {
  std::vector<double> qps, p50, p99;
  std::vector<uint32_t> all;
  size_t fewest = SIZE_MAX;
  double wall = 0;
  for (Block& b : blocks) {
    fewest = std::min(fewest, b.ns.size());
    wall += b.wall_s;
    qps.push_back(static_cast<double>(b.ns.size()) / b.wall_s);
    all.insert(all.end(), b.ns.begin(), b.ns.end());
    const Summary s = Summarize(std::move(b.ns));
    p50.push_back(s.median.value_or(0));
    p99.push_back(s.p99.value_or(0));
  }
  const Summary whole = Summarize(std::move(all));
  out->Detail("latency_samples", static_cast<double>(whole.count));
  out->Detail("latency_samples_fewest_block", static_cast<double>(fewest));
  out->Detail("timed_wall_s", wall);
  out->Detail("throughput_qps_whole_run", static_cast<double>(whole.count) / wall);
  out->Detail("throughput_qps_slowest_block", *std::min_element(qps.begin(), qps.end()));
  out->Detail("throughput_qps_fastest_block", *std::max_element(qps.begin(), qps.end()));
  out->Detail("latency_p50_us_whole_run", whole.median.value_or(0) * 1e-3);
  out->Detail("latency_p99_us_whole_run", whole.p99.value_or(0) * 1e-3);
  out->Add("throughput_qps", Median(qps), "1/s");
  out->Add("latency_p50_us", Median(p50) * 1e-3, "us");
  out->Add("latency_p99_us", Median(p99) * 1e-3, "us");
  out->Check(Supports(0.99, fewest), "latency_samples",
             "a block has too few samples for a p99: " + std::to_string(fewest));
}

/// Mean over keys (templates or policies) of each key's median, so the
/// figure does not jump when the median falls between two request
/// kinds of different cost. Every key present needs enough samples
/// for its median.
std::optional<double> BalancedMedian(const std::vector<Sample>& samples) {
  std::map<uint32_t, std::vector<uint32_t>> by_key;
  for (const Sample& s : samples) by_key[s.key].push_back(s.ns);
  if (by_key.empty()) return std::nullopt;
  double sum = 0;
  for (auto& [key, ns] : by_key) {
    const std::optional<double> m = Quantile(&ns, 0.5);
    if (!m) return std::nullopt;
    sum += *m;
  }
  return sum / static_cast<double>(by_key.size());
}

/// `balanced_cold`: closed-loop probes cycle the policies evenly, so
/// their cold figure is balanced per policy; cold-churn's cold
/// requests follow its skewed mix and take the plain median.
void AddProbeMetrics(const Tally& probes, bool balanced_cold, Outcome* out) {
  std::optional<double> cold;
  if (balanced_cold) {
    cold = BalancedMedian(probes.cold);
  } else {
    std::vector<uint32_t> ns;
    for (const Sample& c : probes.cold) ns.push_back(c.ns);
    cold = Summarize(std::move(ns)).median;
  }
  out->Detail("cold_samples", static_cast<double>(probes.cold.size()));
  out->Add("cold_latency_p50_ms", cold.value_or(0) * 1e-6, "ms");
  out->Check(cold.has_value(), "cold_samples",
             "too few cold requests for a median: " + std::to_string(probes.cold.size()));
  const std::optional<double> ttfc = BalancedMedian(probes.ttfc);
  out->Detail("stream_samples", static_cast<double>(probes.ttfc.size()));
  out->Add("stream_ttfc_p50_us", ttfc.value_or(0) * 1e-3, "us");
  out->Check(ttfc.has_value(), "stream_samples",
             "too few streams for a median: " + std::to_string(probes.ttfc.size()));
}

void AddCommonChecks(const Tally& all, Outcome* out) {
  out->Check(all.bad_answers == 0, "answers",
             std::to_string(all.bad_answers) +
                 " answer vectors had the wrong length or a non-finite value");
  out->Check(all.failed == 0, "requests",
             std::to_string(all.failed) + " requests failed, first: " +
                 all.first_error);
}

void AddRmse(double ratio, Outcome* out) {
  out->Add("answer_rmse_ratio", ratio, "ratio");
  out->Check(std::fabs(ratio - 1.0) <= 0.1, "answer_rmse_ratio",
             "engine/reference RMSE " + std::to_string(ratio) +
                 " is outside 1 +- 0.1");
}

// ------------------------------------------------------- closed loops

Outcome ClosedLoopWorkload(const Args& args, const Fixture& f,
                           const WorkloadConfig& config) {
  Outcome out;
  Deployment d;
  std::string journal_dir;
  // The set-up that serves the run, then config.setup_reps - 1 more,
  // spread between the timed blocks and torn down at once: the host's
  // speed drifts within seconds, and set-ups taken across the run see
  // the same conditions as its requests.
  std::vector<double> setup_secs = {
      TimedSetup(f, config, args.dir, CacheBudgets(), 0, &d, &journal_dir)};
  const size_t extra_setups = static_cast<size_t>(config.setup_reps - 1);
  // The stream and cold probes go to a second engine of the same
  // configuration, from their own thread while each block's clients
  // run. Probes sent alone between blocks (one thread on an otherwise
  // idle machine) read up to 30% apart from run to run on a shared
  // host while the clients' figures did not; and a cold probe's
  // ReplacePolicy must not empty a plan slot under the clients.
  Deployment probe_d;
  std::string probe_journal;
  TimedSetup(f, config, args.dir, CacheBudgets(), config.setup_reps, &probe_d,
             &probe_journal);

  Rng rng(args.seed);
  const size_t count =
      static_cast<size_t>(std::llround(config.rate * args.seconds));
  const std::vector<Op> warm_ops =
      MakeOps(f, config, std::max<size_t>(200, count / 50), &rng);
  const std::vector<Op> ops = MakeOps(f, config, count, &rng);

  Tally warm;
  warm.Init(f);
  const double warm_s = ClosedLoop(f, d, config, warm_ops, &warm);
  // Expected wall time of a block, for pacing its probes.
  double block_s = warm_s * static_cast<double>(count) /
                   static_cast<double>(warm_ops.size() * kBlocks);
  // Acknowledged charges per policy. The serving engine's policies are
  // never replaced; the probe engine's restart at each replacement.
  std::vector<uint64_t> charged = warm.policy_acks;
  std::vector<int> probe_generation(f.policies.size(), 0);
  std::vector<uint64_t> probe_charged(f.policies.size(), 0);

  // The timed phase runs in kBlocks slices, each with one slice of the
  // probes running alongside.
  const blowfish::PlanCache::Stats plan0 = d.engine->plan_cache_stats();
  const blowfish::PlanCache::Stats probe_plan0 = probe_d.engine->plan_cache_stats();
  const size_t streams = static_cast<size_t>(config.stream_probes) / kBlocks;
  const size_t colds = static_cast<size_t>(config.cold_probes) / kBlocks;
  const blowfish::LedgerJournal::Stats j0 =
      d.engine->journal() ? d.engine->journal()->stats()
                          : blowfish::LedgerJournal::Stats();
  uint64_t allocs = 0, cpu = 0;
  int64_t heap = 0;
  Tally timed, probes;
  timed.Init(f);
  probes.Init(f);
  std::vector<Block> blocks(kBlocks);
  for (size_t b = 0; b < kBlocks; ++b) {
    const std::vector<Op> slice(ops.begin() + ops.size() * b / kBlocks,
                                ops.begin() + ops.size() * (b + 1) / kBlocks);
    const uint64_t allocs0 = TotalAllocations();
    const int64_t heap0 = static_cast<int64_t>(HeapBytesInUse());
    const uint64_t cpu0 = ProcessCpuNs();
    Tally part, probe;
    part.Init(f);
    probe.Init(f);
    uint64_t probe_allocs = 0, probe_cpu = 0;
    std::thread prober([&, b] {
      ProbeBlock(f, probe_d, streams * b, streams, colds * b, colds,
                 static_cast<uint64_t>(0.7 * block_s * 1e9), &rng, &probe,
                 &probe_generation, &probe_charged, &probe_allocs, &probe_cpu);
    });
    blocks[b].wall_s = ClosedLoop(f, d, config, slice, &part);
    prober.join();
    cpu += ProcessCpuNs() - cpu0 - probe_cpu;
    allocs += TotalAllocations() - allocs0 - probe_allocs;
    heap += static_cast<int64_t>(HeapBytesInUse()) - heap0;
    block_s = blocks[b].wall_s;
    for (const Sample& s : part.latency) blocks[b].ns.push_back(s.ns);
    for (size_t p = 0; p < f.policies.size(); ++p) charged[p] += part.policy_acks[p];
    timed.Merge(part);
    probes.Merge(probe);
    for (size_t k = extra_setups * b / kBlocks; k < extra_setups * (b + 1) / kBlocks; ++k) {
      setup_secs.push_back(TimedSetup(f, config, args.dir, CacheBudgets(),
                                      static_cast<int>(k) + 1, nullptr, nullptr));
    }
  }
  const blowfish::PlanCache::Stats plan1 = d.engine->plan_cache_stats();
  const uint64_t ok = timed.attempted - timed.failed;
  const double n = static_cast<double>(timed.attempted);

  out.Add("setup_s", Median(setup_secs), "s");
  out.Detail("setup_reps", static_cast<double>(setup_secs.size()));
  AddLatency(std::move(blocks), &out);
  out.Add("cpu_us_per_req", static_cast<double>(cpu) * 1e-3 / n, "us");
  out.Add("success_ratio", static_cast<double>(ok) / n, "ratio");
  out.Detail("heap_bytes_per_req", static_cast<double>(heap) / n);
  // Work that depends only on workload, seed and length: two runs that
  // differ here did not do the same work.
  out.Exact("timed_requests", timed.attempted);
  out.Exact("stream_probes", probes.ttfc.size());
  out.Exact("cold_probes", probes.cold.size());
  out.Exact("plan_cache_misses", plan1.misses - plan0.misses);
  out.Exact("probe_plan_cache_misses",
            probe_d.engine->plan_cache_stats().misses - probe_plan0.misses);
  out.Approx("allocs_per_req", static_cast<double>(allocs) / n);
  if (d.engine->journal() != nullptr) {
    const blowfish::LedgerJournal::Stats j1 = d.engine->journal()->stats();
    const double appends = static_cast<double>(j1.appends - j0.appends);
    out.Approx("fsyncs_per_charge", static_cast<double>(j1.fsyncs - j0.fsyncs) / appends);
    out.Detail("journal_rotations", static_cast<double>(j1.rotations - j0.rotations));
    out.Detail("journal_checkpoints",
               static_cast<double>(j1.checkpoints - j0.checkpoints));
  }
  if (config.stream_share > 0) {
    probes.ttfc = timed.ttfc;  // release-heavy streams in the mix
  }
  AddProbeMetrics(probes, true, &out);

  Tally served = warm;
  served.Merge(timed);
  const std::vector<int> first_generation(f.policies.size(), 0);
  CheckPolicies(f, *d.engine, charged, first_generation, "policy_epsilon_conserved", &out);
  CheckSessions(f, *d.engine, served.session_acks, "session_epsilon_conserved", &out);
  CheckPolicies(f, *probe_d.engine, probe_charged, probe_generation,
                "probe_policy_epsilon_conserved", &out);
  CheckSessions(f, *probe_d.engine, probes.session_acks, "probe_session_epsilon_conserved",
                &out);
  probe_d = Deployment();
  std::filesystem::remove_all(probe_journal);
  AddRmse(RmseRatio(f, config, timed, args.seed), &out);
  Tally all = served;
  all.Merge(probes);
  AddCommonChecks(all, &out);
  out.attempted = all.attempted;
  out.failed = all.failed + all.bad_answers;

  if (config.journal) {
    // Crash-free restart: reopening the journal must recover exactly
    // the acknowledged spend (sessions, and each policy's generation-0
    // version, which re-registers under the same ledger id).
    EngineOptions reopen = d.engine->options();
    reopen.warm_plan_cache = false;
    d = Deployment();
    Deployment r = Deploy(f, config, reopen);
    CheckSessions(f, *r.engine, served.session_acks, "journal_recovers_sessions", &out);
    CheckPolicies(f, *r.engine, charged, first_generation, "journal_recovers_policies", &out);
    out.Detail("journal_recovered_records",
               static_cast<double>(r.engine->journal()->stats().recovered_records));
  }
  d = Deployment();
  std::filesystem::remove_all(journal_dir);
  out.Add("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

// ------------------------------------------------------- cold-churn

/// One open-loop request as the generator saw it.
struct Sent {
  uint32_t op = 0;
  uint64_t due = 0;
  uint64_t sent = 0;
  uint64_t done = 0;
  int generation = -1;  ///< version the result was charged to
  bool ok = false;
  bool cold = false;
};

struct Replacement {
  size_t policy = 0;
  int generation = 0;
  uint64_t due = 0;
  uint64_t done = 0;
  uint64_t call_ns = 0;
};

Outcome ColdChurn(const Args& args, const Fixture& f, const WorkloadConfig& config,
                  bool traced, std::vector<Metric>* layer_metrics) {
  Outcome out;
  const CacheBudgets budgets = ChurnBudgets(f);
  Deployment d;
  std::string journal_dir;
  std::vector<double> setup_secs;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    const bool keep = rep + 1 == config.setup_reps;
    setup_secs.push_back(TimedSetup(f, config, args.dir, budgets, rep,
                                    keep ? &d : nullptr, &journal_dir));
  }
  const double setup_s = Median(std::move(setup_secs));
  AsyncQueryEngine& async = *d.async;

  Rng rng(args.seed);
  const size_t count = static_cast<size_t>(std::llround(config.rate * args.seconds));
  const std::vector<Op> ops = MakeOps(f, config, count, &rng);
  const uint64_t period = static_cast<uint64_t>(1e9 / config.rate);

  // Admin schedule: one ReplacePolicy every 40 ms on a seeded policy.
  std::vector<Replacement> replaces;
  std::vector<int> generation(f.policies.size(), 0);
  const uint64_t replace_period = 40'000'000;
  for (uint64_t t = replace_period; t < count * period; t += replace_period) {
    Replacement r;
    r.policy = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(f.policies.size()) - 1));
    r.generation = ++generation[r.policy];
    r.due = t;
    replaces.push_back(r);
  }

  // Warm-up: every template once, resolved before timing starts.
  {
    std::vector<std::future<Result<QueryResult>>> futures;
    for (size_t t = 0; t < f.templates.size(); ++t) {
      Op op;
      op.tmpl = static_cast<uint32_t>(t);
      QueryRequest r = f.templates[t].request;
      Address(op, f, d, &r);
      futures.push_back(async.SubmitAsync(std::move(r)));
    }
    for (auto& fu : futures) {
      Result<QueryResult> res = fu.get();
      if (!res.ok()) Die("warm-up", res.status());
    }
  }
  // The warm-up charged session 0 once per template.
  const uint64_t warm_acks = f.templates.size();

  const blowfish::PlanCache::Stats plan0 = d.engine->plan_cache_stats();
  const auto transform0 = d.engine->transform_cache_stats();
  const uint64_t allocs0 = TotalAllocations();
  const uint64_t heap0 = HeapBytesInUse();

  std::vector<Sent> sent(count);
  std::vector<QueryRequest> requests;
  for (const Template& t : f.templates) requests.push_back(t.request);
  std::vector<uint8_t> warm_at_submit(traced ? count : 0);

  const uint64_t start = NowNs() + 2'000'000;
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t generator_cpu0 = ThreadCpuNs();
  std::thread admin([&] {
    for (Replacement& r : replaces) {
      while (NowNs() < start + r.due) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const PolicySpec& spec = f.policies[r.policy];
      blowfish::Vector data = DataAt(spec, r.generation);
      const uint64_t t0 = NowNs();
      const blowfish::Status s = d.engine->ReplacePolicy(
          spec.name, spec.policy, std::move(data), CapForGeneration(r.generation));
      r.done = NowNs();
      r.call_ns = r.done - t0;
      if (!s.ok()) Die("replacing " + spec.name, s);
    }
  });

  // Generator: sends on schedule and, between sends, polls the
  // outstanding futures so each completion is stamped when it lands.
  struct Pending {
    uint32_t index;
    std::future<Result<QueryResult>> future;
  };
  std::vector<Pending> pending;
  Tally tally;
  tally.Init(f);
  auto poll = [&] {
    for (size_t i = 0; i < pending.size();) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      Sent& s = sent[pending[i].index];
      s.done = NowNs();
      Result<QueryResult> res = pending[i].future.get();
      const Op& op = ops[s.op];
      if (res.ok()) {
        s.ok = true;
        s.cold = !res->plan_cache_hit;
        s.generation = static_cast<int>(
            std::floor(res->policy_remaining.value_or(0) / kCapStep));
        tally.Ack(op, f);
        tally.Answers(res->answers, f.templates[op.tmpl], s.generation,
                      pending[i].index % config.rmse_every == 0, op.tmpl);
      } else {
        tally.Fail(res.status());
      }
      pending[i] = std::move(pending.back());
      pending.pop_back();
    }
  };
  for (size_t i = 0; i < count; ++i) {
    Sent& s = sent[i];
    s.op = static_cast<uint32_t>(i);
    s.due = start + i * period;
    while (NowNs() < s.due) poll();
    const Op& op = ops[i];
    QueryRequest& r = requests[op.tmpl];
    Address(op, f, d, &r);
    if (traced) warm_at_submit[i] = d.engine->IsWarm(r) ? 1 : 0;
    s.sent = NowNs();
    ++tally.attempted;
    pending.push_back(Pending{static_cast<uint32_t>(i), async.SubmitAsync(r)});
  }
  while (!pending.empty()) poll();
  // The generator spins between sends; its CPU is the harness's, not
  // the engine's.
  const uint64_t generator_cpu = ThreadCpuNs() - generator_cpu0;
  admin.join();
  const uint64_t cpu1 = ProcessCpuNs();
  const uint64_t allocs1 = TotalAllocations();
  const uint64_t heap1 = HeapBytesInUse();
  const blowfish::PlanCache::Stats plan1 = d.engine->plan_cache_stats();
  const auto transform1 = d.engine->transform_cache_stats();

  // Latency runs from each request's due time, so generator lateness
  // and queueing behind a stall both count.
  // Blocks are equal spans of completion time.
  std::vector<Sample> cold;
  std::vector<uint32_t> lag;
  uint64_t last_done = 0;
  for (const Sent& s : sent) last_done = std::max(last_done, s.done);
  std::vector<Block> blocks(kBlocks);
  for (Block& b : blocks) b.wall_s = static_cast<double>(last_done - start) * 1e-9 / kBlocks;
  for (const Sent& s : sent) {
    const size_t b = std::min(kBlocks - 1, static_cast<size_t>((s.done - start) * kBlocks /
                                                              (last_done - start + 1)));
    blocks[b].ns.push_back(ClampNs(s.done - s.due));
    lag.push_back(ClampNs(s.sent - s.due));
    if (s.ok && s.cold) cold.push_back(Sample{ClampNs(s.done - s.due), ops[s.op].tmpl});
  }
  const uint64_t ok = tally.attempted - tally.failed;
  out.Add("setup_s", setup_s, "s");
  AddLatency(std::move(blocks), &out);
  out.Add("cpu_us_per_req",
          static_cast<double>(cpu1 - cpu0 - generator_cpu) * 1e-3 /
              static_cast<double>(tally.attempted),
          "us");
  out.Add("success_ratio",
          static_cast<double>(ok) / static_cast<double>(tally.attempted), "ratio");
  out.Detail("allocs_per_req", static_cast<double>(allocs1 - allocs0) /
                                   static_cast<double>(tally.attempted));
  out.Exact("timed_requests", tally.attempted);
  out.Detail("heap_bytes_per_req",
             (static_cast<double>(heap1) - static_cast<double>(heap0)) /
                 static_cast<double>(tally.attempted));
  out.Detail("plan_cache_misses", static_cast<double>(plan1.misses - plan0.misses));
  out.Detail("transform_cache_evictions",
             static_cast<double>(transform1.evictions - transform0.evictions));
  out.Exact("replacements", replaces.size());
  const Summary lag_s = Summarize(lag);
  out.Detail("generator_lag_p99_us", lag_s.p99.value_or(0) * 1e-3);

  // Every ReplacePolicy is followed by answers from the new version:
  // a request sent after a replacement returned must be charged to
  // that generation or a later one.
  {
    size_t stale = 0;
    std::vector<std::vector<const Replacement*>> by_policy(f.policies.size());
    for (const Replacement& r : replaces) by_policy[r.policy].push_back(&r);
    for (const Sent& s : sent) {
      if (!s.ok) continue;
      const size_t p = f.templates[ops[s.op].tmpl].policy;
      int floor_gen = 0;
      for (const Replacement* r : by_policy[p]) {
        if (r->done < s.sent) floor_gen = std::max(floor_gen, r->generation);
      }
      if (s.generation < floor_gen) ++stale;
    }
    out.Check(stale == 0, "replace_serves_new_version",
              std::to_string(stale) + " requests sent after a ReplacePolicy "
                                      "were answered by an older version");
  }

  // Policy spend on each current version; warm-up charges hit
  // generation 0 before any replacement.
  {
    std::vector<uint64_t> acks(f.policies.size(), 0);
    for (size_t t = 0; t < f.templates.size(); ++t) {
      if (generation[f.templates[t].policy] == 0) ++acks[f.templates[t].policy];
    }
    for (const Sent& s : sent) {
      const size_t p = f.templates[ops[s.op].tmpl].policy;
      if (s.ok && s.generation == generation[p]) ++acks[p];
    }
    CheckPolicies(f, *d.engine, acks, generation, "policy_epsilon_conserved", &out);
  }

  Tally probes;
  probes.Init(f);
  StreamProbes(f, d, 0, static_cast<size_t>(config.stream_probes), &rng, &probes);
  probes.cold = cold;
  AddProbeMetrics(probes, false, &out);

  Tally all = tally;
  all.Merge(probes);
  all.session_acks[0] += warm_acks;
  CheckSessions(f, *d.engine, all.session_acks, "session_epsilon_conserved", &out);
  AddRmse(RmseRatio(f, config, tally, args.seed), &out);
  AddCommonChecks(all, &out);
  out.attempted = all.attempted;
  out.failed = all.failed + all.bad_answers;

  if (traced) {
    const blowfish::AsyncStats stats = async.stats();
    size_t warm_n = 0;
    for (uint8_t w : warm_at_submit) warm_n += w;
    std::vector<double> replace_us;
    for (const Replacement& r : replaces) replace_us.push_back(r.call_ns * 1e-3);
    const double lookups = static_cast<double>((plan1.hits + plan1.misses) -
                                               (plan0.hits + plan0.misses));
    layer_metrics->push_back({"transform_cache.hit_ratio",
                              static_cast<double>(warm_n) / count, "ratio"});
    layer_metrics->push_back(
        {"plan_cache.hit_ratio",
         lookups > 0 ? static_cast<double>(plan1.hits - plan0.hits) / lookups : 1.0,
         "ratio"});
    layer_metrics->push_back({"query_engine.replace_us", Median(replace_us), "us"});
    layer_metrics->push_back({"async_engine.peak_depth",
                              static_cast<double>(std::max(stats.warm.peak_depth,
                                                           stats.cold.peak_depth)),
                              "count"});
    layer_metrics->push_back({"async_engine.coalesced",
                              static_cast<double>(stats.cold_plans_coalesced), "count"});
    layer_metrics->push_back({"generator.lag_p99_us", lag_s.p99.value_or(0) * 1e-3, "us"});
    std::vector<uint32_t> warm_latency;
    for (const Sent& s : sent) {
      if (s.ok && !s.cold) warm_latency.push_back(ClampNs(s.done - s.sent));
    }
    layer_metrics->push_back(
        {"async_engine.resolve_us",
         Summarize(warm_latency).median.value_or(0) * 1e-3, "us"});
  }
  d = Deployment();
  out.Add("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

}  // namespace

PhaseResult RunPhase(const Fixture& f, const Deployment& d,
                     const WorkloadConfig& config, const std::vector<Op>& ops,
                     bool warm_up) {
  PhaseResult r;
  if (warm_up) {
    Tally warm;
    warm.Init(f);
    ClosedLoop(f, d, config,
               std::vector<Op>(ops.begin(), ops.begin() + std::min<size_t>(ops.size(), 200)),
               &warm);
    r.attempted += warm.attempted;
    r.failed += warm.failed + warm.bad_answers;
  }
  const uint64_t allocs0 = TotalAllocations();
  const uint64_t heap0 = HeapBytesInUse();
  Tally t;
  t.Init(f);
  ClosedLoop(f, d, config, ops, &t);
  r.allocs = TotalAllocations() - allocs0;
  r.heap_bytes = static_cast<int64_t>(HeapBytesInUse()) - static_cast<int64_t>(heap0);
  r.attempted += t.attempted;
  r.failed += t.failed + t.bad_answers;
  for (const Sample& s : t.latency) {
    r.latency_ns.push_back(s.ns);
    r.templates.push_back(s.key);
  }
  return r;
}

Outcome RunEndToEnd(const Args& args) {
  const Fixture f = MakeFixture(args.workload, args.seed);
  const WorkloadConfig config = ConfigFor(args.workload);
  if (config.async) return ColdChurn(args, f, config, false, nullptr);
  return ClosedLoopWorkload(args, f, config);
}

Outcome RunColdChurnTraced(const Args& args, std::vector<Metric>* layers) {
  const Fixture f = MakeFixture(args.workload, args.seed);
  return ColdChurn(args, f, ConfigFor(args.workload), true, layers);
}

}  // namespace perfbench
