// Traced runs: the per-layer table.
//
// No tracing lives in the engine. Instead the benchmark rebuilds the
// warm Submit path out of the layers' own public APIs — a standalone
// PolicyRegistry, PlanCache, BudgetAccountant (with the engine's audit
// ring, burn-rate tracker and, for journal-small, a LedgerJournal),
// the plan's BlowfishMechanism / GridThetaRangeMechanism, the request's
// Workload / RangeWorkload, and the engine's MetricFamily set plus a
// FlightRecorder — and replays the workload's request mix through them
// with the same client count, timing a span around each call and
// around the query engine's own glue between them. The same run also
// measures plain Submit with no spans, so the table can say how much
// of the end-to-end time the layers account for
// (layers.coverage_ratio) and what the spans themselves cost
// (trace.overhead_ratio).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <filesystem>
#include <map>
#include <shared_mutex>
#include <thread>
#include <unordered_map>

#include "process_stats.h"
#include "bench.h"
#include "core/grid_theta_adapter.h"
#include "core/mechanisms_kd.h"
#include "core/planner.h"
#include "engine/budget_accountant.h"
#include "engine/ledger_journal.h"
#include "engine/plan_cache.h"
#include "engine/policy_registry.h"
#include "engine/telemetry.h"
#include "summary.h"

namespace perfbench {

using blowfish::LedgerHandle;
using blowfish::Plan;
using blowfish::QueryRequest;
using blowfish::Result;
using blowfish::Rng;
using blowfish::Vector;

namespace {

using PrecomputePtr =
    std::shared_ptr<const blowfish::BlowfishMechanism::ReleasePrecompute>;

constexpr uint64_t kStreamStep = 0x9E3779B97F4A7C15ull;

/// How far layers.coverage_ratio may leave 1 before the traced run
/// fails.
constexpr double kCoverageTolerance = 0.15;

[[noreturn]] void Die(const std::string& what, const blowfish::Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(), s.ToString().c_str());
  std::exit(2);
}

double MedianUs(std::vector<uint32_t> ns) { return Median(std::move(ns)) * 1e-3; }

/// Cost of one clock read, subtracted from the spans (see kClockReads).
uint64_t ClockCostNs() {
  std::vector<uint32_t> d(20000);
  for (uint32_t& x : d) {
    const uint64_t a = NowNs();
    x = static_cast<uint32_t>(NowNs() - a);
  }
  return static_cast<uint64_t>(Median(std::move(d)));
}

std::string_view TenantOf(const std::string& id) {
  const size_t cut = id.find_first_of(":/#@");
  return std::string_view(id).substr(0, cut == std::string::npos ? id.size() : cut);
}

// ------------------------------------------------------- layer stack

/// The engine's layers, assembled as the engine assembles them, but
/// owned by the benchmark so each call can be timed on its own.
/// Member order mirrors QueryEngine's: logs and journal before the
/// accountant that points at them.
struct LayerStack {
  blowfish::MetricsRegistry metrics;
  blowfish::Counter* submits = nullptr;
  blowfish::DoubleCounter* charged = nullptr;
  blowfish::LatencyHistogram* submit_latency = nullptr;
  blowfish::EpsilonAuditLog audit{4096};
  blowfish::BurnAlertLog burn{256};
  blowfish::FlightRecorder flight{4096};
  std::unique_ptr<blowfish::LedgerJournal> journal;
  blowfish::BudgetAccountant accountant;
  blowfish::PolicyRegistry registry;
  blowfish::PlanCache plan_cache;
  blowfish::CounterFamily* requests = nullptr;
  blowfish::DoubleCounterFamily* epsilon = nullptr;
  blowfish::HistogramFamily* latency = nullptr;
  std::vector<blowfish::PolicyHandle> policies;
  std::vector<LedgerHandle> sessions;
  /// Release precomputes by policy version, probed under a shared
  /// lock as the engine's unbudgeted transform cache is.
  mutable std::shared_mutex transforms_mu;
  std::unordered_map<uint64_t, PrecomputePtr> transforms;
  /// Session ledgers by id (for requests that name their session by
  /// string) and the tenant class per ledger (for handle-only ones),
  /// as the engine keeps them.
  mutable std::shared_mutex sessions_mu;
  std::unordered_map<std::string, LedgerHandle> session_ids;
  std::unordered_map<uint64_t, std::string> tenants;
  std::atomic<uint64_t> submit_counter{0};
};

std::unique_ptr<LayerStack> BuildStack(const Fixture& f, const WorkloadConfig& config,
                                       const std::string& journal_dir) {
  auto s = std::make_unique<LayerStack>();
  if (config.journal) {
    blowfish::JournalOptions jo;
    jo.dir = journal_dir;
    jo.segment_bytes = 2 << 20;
    Result<std::unique_ptr<blowfish::LedgerJournal>> j =
        blowfish::LedgerJournal::Open(jo);
    if (!j.ok()) Die("opening trace journal", j.status());
    s->journal = std::move(j).ValueOrDie();
    s->accountant.SetJournal(s->journal.get());
  }
  s->accountant.SetAuditLog(&s->audit);
  blowfish::BurnRateConfig burn;
  burn.enabled = true;
  s->accountant.SetBurnRate(burn, &s->burn);
  s->submits = s->metrics.counter("submits");
  s->charged = s->metrics.double_counter("epsilon_charged");
  s->submit_latency = s->metrics.histogram("submit_latency");
  const std::vector<std::string> labels = {"policy", "tenant"};
  s->requests = s->metrics.counter_family("requests", labels, 64);
  s->epsilon = s->metrics.double_counter_family("epsilon", labels, 64);
  s->latency = s->metrics.histogram_family("latency", labels, 64);
  for (const PolicySpec& spec : f.policies) {
    const uint64_t version = s->registry.ReserveVersion();
    Result<LedgerHandle> ledger = s->accountant.OpenLedger(
        "policy/" + spec.name + '\x1f' + std::to_string(version),
        CapForGeneration(0));
    if (!ledger.ok()) Die("opening policy ledger", ledger.status());
    const blowfish::Status reg = s->registry.Register(
        spec.name, spec.policy, spec.data, CapForGeneration(0), version, *ledger);
    if (!reg.ok()) Die("registering " + spec.name, reg);
    s->policies.push_back(s->registry.Resolve(spec.name).ValueOrDie());
    Result<Plan> planned =
        blowfish::PlanMechanism(blowfish::PlanRequest{spec.policy, false, {}});
    if (!planned.ok()) Die("planning " + spec.name, planned.status());
    Plan plan = std::move(planned).ValueOrDie();
    plan.audit_context = std::make_shared<const std::string>(
        "policy '" + spec.name + "' via " + plan.kind);
    bool hit = false;
    std::shared_ptr<const Plan> shared =
        s->plan_cache
            .GetOrCompute(blowfish::PlanCache::MakeKey(spec.name, version, false),
                          [&]() -> Result<Plan> { return std::move(plan); }, &hit)
            .ValueOrDie();
    auto entry = s->registry.Get(spec.name).ValueOrDie();
    std::atomic_store(&entry->plan_slots[0], shared);
    s->transforms[entry->version << 1] = shared->mechanism->PrecomputeRelease(spec.data);
  }
  for (const std::string& id : f.sessions) {
    Result<LedgerHandle> h = s->accountant.OpenLedger("session/" + id, kSessionBudget);
    if (!h.ok()) Die("opening session ledger", h.status());
    s->sessions.push_back(*h);
    s->session_ids[id] = *h;
    s->tenants[h->bits()] = std::string(TenantOf(id));
  }
  return s;
}

// ----------------------------------------------------------- replay

// The query engine's own work (validation, by-string session
// resolution, the transform-cache probe and result assembly) is timed
// in three pieces around the other layers' calls and reported as one
// span, query_engine.glue_us.
enum Span { kGlue, kRegistry, kPlan, kCharge, kNoise, kAnswer, kObs, kTotal, kSpans };
const char* const kSpanMetric[kSpans] = {
    "query_engine.glue_us", "policy_registry.get_us", "plan_cache.lookup_us",
    "budget_accountant.charge_span_us", "mech.noise_us", "workload.answer_us",
    "telemetry.obs_us", "trace.request_us"};
/// Clock reads subtracted from each span, one per timed interval, but
/// none from the glue: Submit reads the clock three times itself (at
/// its start, after admission and at its end), so the glue's three
/// pieces keep one read each as the query engine's own work.
const int kClockReads[kSpans] = {0, 1, 1, 1, 1, 1, 1, 1};

struct SpanTally {
  std::vector<uint32_t> ns[kSpans];
  std::vector<uint32_t> templates;  ///< template of each replayed request
  uint64_t failed = 0;

  void Merge(const SpanTally& o) {
    for (int k = 0; k < kSpans; ++k) ns[k].insert(ns[k].end(), o.ns[k].begin(), o.ns[k].end());
    templates.insert(templates.end(), o.templates.begin(), o.templates.end());
    failed += o.failed;
  }
};

/// One client of the replay: the warm Submit path, layer by layer.
void ReplayClient(LayerStack* s, const Fixture& f, const std::vector<Op>& ops,
                  size_t begin, size_t stride, uint64_t clock_ns, SpanTally* out) {
  for (auto& v : out->ns) v.reserve(ops.size() / stride + 1);
  for (size_t i = begin; i < ops.size(); i += stride) {
    const Op& op = ops[i];
    const Template& tmpl = f.templates[op.tmpl];
    const QueryRequest& r = tmpl.request;
    const PolicySpec& spec = f.policies[tmpl.policy];
    // The slab cursor consumes its workload; copy it outside the spans.
    std::optional<blowfish::RangeWorkload> ranges_copy;
    uint64_t t[11];

    t[0] = NowNs();
    s->submits->Add(1);
    const bool has_ranges = r.ranges.has_value();
    const size_t queries = has_ranges ? r.ranges->num_queries() : r.workload.num_queries();
    const size_t domain = has_ranges ? r.ranges->domain().size() : r.workload.domain_size();
    LedgerHandle session = s->sessions[op.session];
    if (op.by_string) {
      std::shared_lock<std::shared_mutex> lock(s->sessions_mu);
      session = s->session_ids.find(f.sessions[op.session])->second;
    }
    if (!(r.epsilon > 0.0) || queries == 0 || domain != spec.policy.domain_size()) {
      ++out->failed;
      continue;
    }
    t[1] = NowNs();
    Result<std::shared_ptr<const blowfish::RegisteredPolicy>> entry =
        op.by_string ? s->registry.Get(spec.name)
                     : s->registry.Get(s->policies[tmpl.policy]);
    t[2] = NowNs();
    std::shared_ptr<const Plan> plan =
        std::atomic_load_explicit(&(*entry)->plan_slots[0], std::memory_order_acquire);
    s->plan_cache.RecordHit();
    t[3] = NowNs();
    const LedgerHandle ledgers[2] = {session, (*entry)->ledger};
    blowfish::ChargeTag tag;
    tag.workload = has_ranges ? r.ranges->name() : r.workload.name();
    tag.context = plan->audit_context;
    double remaining[2];
    const blowfish::Status charged =
        s->accountant.Charge(ledgers, 2, r.epsilon, tag, remaining);
    if (charged.ok()) s->charged->Add(r.epsilon);
    t[4] = NowNs();
    if (!charged.ok()) {
      ++out->failed;
      continue;
    }
    const bool slab = has_ranges && plan->range_mechanism != nullptr;
    if (slab) ranges_copy = *r.ranges;
    t[5] = NowNs();
    PrecomputePtr pre;
    {
      std::shared_lock<std::shared_mutex> lock(s->transforms_mu);
      pre = s->transforms.find((*entry)->version << 1)->second;
    }
    t[6] = NowNs();
    Rng rng(0xB10F15Dull ^ (kStreamStep * (s->submit_counter.fetch_add(1) + 1)));
    Vector estimate;
    std::unique_ptr<blowfish::GridThetaRangeMechanism::RangeCursor> cursor;
    if (slab) {
      const auto* sp =
          static_cast<const blowfish::GridThetaHistogramAdapter::SlabPrecompute*>(
              pre.get());
      cursor = plan->range_mechanism->BeginRanges(std::move(*ranges_copy), sp->xg,
                                                  sp->n, r.epsilon, &rng);
    } else {
      estimate = pre != nullptr ? plan->mechanism->RunPrecomputed(*pre, r.epsilon, &rng)
                                : plan->mechanism->Run(spec.data, r.epsilon, &rng);
    }
    const blowfish::PrivacyGuarantee guarantee = plan->mechanism->Guarantee(r.epsilon);
    t[7] = NowNs();
    Vector answers;
    if (slab) {
      cursor->AnswerNext(cursor->total(), &answers);
    } else {
      answers = has_ranges ? r.ranges->Answer(estimate) : r.workload.Answer(estimate);
    }
    t[8] = NowNs();
    blowfish::QueryResult result;
    result.answers = std::move(answers);
    result.guarantee = guarantee;
    result.range_fast_path = slab;
    result.plan_kind = plan->kind;
    result.plan_cache_hit = true;
    result.session_remaining = remaining[0];
    result.policy_remaining = remaining[1];
    t[9] = NowNs();
    {
      char buf[sizeof(blowfish::FlightRecord::tenant)];
      std::string_view tenant;
      if (op.by_string) {
        tenant = TenantOf(f.sessions[op.session]);
      } else {
        std::shared_lock<std::shared_mutex> lock(s->sessions_mu);
        auto it = s->tenants.find(session.bits());
        const size_t n = std::min(it->second.size(), sizeof(buf) - 1);
        std::memcpy(buf, it->second.data(), n);
        tenant = std::string_view(buf, n);
      }
      const std::string& policy = (*entry)->name;
      s->submit_latency->Record((t[9] - t[0]) * 1e-6);
      s->requests->WithLabels(policy, tenant)->Add(1);
      s->epsilon->WithLabels(policy, tenant)->Add(r.epsilon);
      s->latency->WithLabels(policy, tenant)->Record((t[9] - t[0]) * 1e-6);
      blowfish::FlightRecord rec;
      rec.t_us = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::system_clock::now().time_since_epoch())
                     .count();
      rec.epsilon = r.epsilon;
      rec.total_us = static_cast<uint32_t>((t[9] - t[0]) / 1000);
      rec.SetTenant(tenant);
      rec.SetPolicy(policy);
      s->flight.Record(rec);
    }
    t[10] = NowNs();
    const uint64_t spans[kSpans] = {(t[1] - t[0]) + (t[6] - t[5]) + (t[9] - t[8]),
                                    t[2] - t[1], t[3] - t[2], t[4] - t[3],
                                    t[7] - t[6], t[8] - t[7], t[10] - t[9],
                                    t[10] - t[0]};
    for (int k = 0; k < kSpans; ++k) {
      const uint64_t clocks = clock_ns * kClockReads[k];
      const uint64_t v = spans[k] > clocks ? spans[k] - clocks : 0;
      out->ns[k].push_back(static_cast<uint32_t>(std::min<uint64_t>(v, UINT32_MAX)));
    }
    out->templates.push_back(op.tmpl);
    if (s->journal != nullptr && s->journal->checkpoint_due()) {
      // The engine checkpoints after the submit that finds one due.
      (void)s->accountant.WriteCheckpoint();
    }
  }
}

SpanTally Replay(LayerStack* s, const Fixture& f, const std::vector<Op>& ops,
                 int clients, uint64_t clock_ns) {
  std::vector<SpanTally> tallies(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ReplayClient(s, f, ops, static_cast<size_t>(c), static_cast<size_t>(clients),
                   clock_ns, &tallies[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  SpanTally all;
  for (const SpanTally& t : tallies) all.Merge(t);
  return all;
}

// -------------------------------------------------------- microphases

/// Accountant.Charge alone (no journal), `clients` threads charging
/// the ops' (session, policy) ledger pairs. Median µs.
double ChargeMicrophase(const Fixture& f, const std::vector<Op>& ops, int clients,
                        uint64_t clock_ns) {
  blowfish::EpsilonAuditLog audit(4096);
  blowfish::BurnAlertLog burn(256);
  blowfish::BudgetAccountant accountant;
  accountant.SetAuditLog(&audit);
  blowfish::BurnRateConfig config;
  config.enabled = true;
  accountant.SetBurnRate(config, &burn);
  std::vector<LedgerHandle> policies, sessions;
  for (const PolicySpec& p : f.policies) {
    policies.push_back(*accountant.OpenLedger("policy/" + p.name, CapForGeneration(0)));
  }
  for (const std::string& id : f.sessions) {
    sessions.push_back(*accountant.OpenLedger("session/" + id, kSessionBudget));
  }
  auto context = std::make_shared<const std::string>("policy via plan");
  std::vector<std::vector<uint32_t>> ns(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < ops.size(); i += clients) {
        const Op& op = ops[i];
        const LedgerHandle h[2] = {sessions[op.session],
                                   policies[f.templates[op.tmpl].policy]};
        blowfish::ChargeTag tag;
        tag.workload = "w";
        tag.context = context;
        double rem[2];
        const uint64_t t0 = NowNs();
        (void)accountant.Charge(h, 2, kEpsilon, tag, rem);
        const uint64_t d = NowNs() - t0;
        ns[c].push_back(static_cast<uint32_t>(d > clock_ns ? d - clock_ns : 0));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<uint32_t> all;
  for (auto& v : ns) all.insert(all.end(), v.begin(), v.end());
  return MedianUs(all);
}

struct JournalFigures {
  double append_us = 0;
  double fsyncs_per_charge = 0;
  double bytes_per_charge = 0;
  double checkpoint_ms = 0;
};

/// Direct LedgerJournal::AppendCharge calls from `clients` threads on
/// one unrotated segment: per-append time, fsyncs and bytes per charge
/// from the journal's own stats. Then checkpoints of every session and
/// policy ledger through a journaled BudgetAccountant.
JournalFigures JournalMicrophase(const Fixture& f, const std::vector<Op>& ops,
                                 int clients, const std::string& dir,
                                 uint64_t clock_ns) {
  blowfish::JournalOptions jo;
  jo.dir = dir;
  jo.segment_bytes = size_t{1} << 40;  // never rotate: bytes stay countable
  Result<std::unique_ptr<blowfish::LedgerJournal>> opened =
      blowfish::LedgerJournal::Open(jo);
  if (!opened.ok()) Die("opening microphase journal", opened.status());
  blowfish::LedgerJournal& journal = **opened;
  std::vector<std::string> policy_ids, session_ids;
  for (const PolicySpec& p : f.policies) policy_ids.push_back("policy/" + p.name + "\x1f" "0");
  for (const std::string& id : f.sessions) session_ids.push_back("session/" + id);
  const std::string context = "policy 'x' via plan";
  const blowfish::LedgerJournal::Stats s0 = journal.stats();
  std::vector<std::vector<uint32_t>> ns(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < ops.size(); i += clients) {
        const Op& op = ops[i];
        const blowfish::LedgerJournal::ChargeLine lines[2] = {
            {&session_ids[op.session], 1000.0},
            {&policy_ids[f.templates[op.tmpl].policy], 1000.0}};
        const uint64_t t0 = NowNs();
        (void)journal.AppendCharge(true, blowfish::StatusCode::kOk, kEpsilon, 1,
                                   "identity", &context, lines, 2);
        const uint64_t d = NowNs() - t0;
        ns[c].push_back(static_cast<uint32_t>(d > clock_ns ? d - clock_ns : 0));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const blowfish::LedgerJournal::Stats s1 = journal.stats();
  std::vector<uint32_t> all;
  for (auto& v : ns) all.insert(all.end(), v.begin(), v.end());
  JournalFigures out;
  const double appends = static_cast<double>(s1.appends - s0.appends);
  out.append_us = MedianUs(all);
  out.fsyncs_per_charge = static_cast<double>(s1.fsyncs - s0.fsyncs) / appends;
  out.bytes_per_charge = static_cast<double>(s1.active_bytes - s0.active_bytes) / appends;

  blowfish::BudgetAccountant accountant;
  accountant.SetJournal(&journal);
  for (const std::string& id : policy_ids) (void)accountant.OpenLedger(id, CapForGeneration(0));
  for (const std::string& id : session_ids) (void)accountant.OpenLedger(id, kSessionBudget);
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    const uint64_t t0 = NowNs();
    const blowfish::Status st = accountant.WriteCheckpoint();
    ms.push_back((NowNs() - t0) * 1e-6);
    if (!st.ok()) Die("checkpoint microphase", st);
  }
  out.checkpoint_ms = Median(ms);
  return out;
}

/// Streams through the deployed engine: submit → first chunk, and the
/// gap of every later chunk.
void StreamMicrophase(const Fixture& f, const Deployment& d, int count, Rng* rng,
                      std::vector<uint32_t>* first, std::vector<uint32_t>* gaps) {
  WorkloadConfig uniform;
  const std::vector<Op> ops = MakeOps(f, uniform, static_cast<size_t>(count), rng);
  blowfish::StreamOptions options;
  options.chunk_queries = 16;
  for (const Op& op : ops) {
    QueryRequest r = f.templates[op.tmpl].request;
    Address(op, f, d, &r);
    const uint64_t t0 = NowNs();
    std::shared_ptr<blowfish::ResultStream> stream;
    if (d.async != nullptr) {
      stream = d.async->SubmitStreamAsync(std::move(r), options);
    } else {
      Result<std::shared_ptr<blowfish::ResultStream>> s =
          d.engine->SubmitStream(std::move(r), options);
      if (!s.ok()) Die("stream microphase", s.status());
      stream = std::move(s).ValueOrDie();
    }
    blowfish::StreamChunk chunk;
    uint64_t last = t0;
    bool first_seen = false;
    for (;;) {
      Result<blowfish::StreamNext> next = stream->Next(&chunk);
      if (!next.ok()) Die("stream microphase", next.status());
      if (*next == blowfish::StreamNext::kDone) break;
      const uint64_t now = NowNs();
      (first_seen ? gaps : first)->push_back(static_cast<uint32_t>(now - last));
      first_seen = true;
      last = now;
    }
  }
}

/// The same mix through an AsyncQueryEngine (2 workers) with up to 4
/// requests outstanding, then, per policy, a ReplacePolicy followed by
/// 4 back-to-back submits that must share one cold plan. Appends the
/// async figures cold-churn's open loop would otherwise give.
void AsyncMicrophase(const Fixture& f, const WorkloadConfig& config,
                     const std::vector<Op>& ops, std::vector<Metric>* layers) {
  WorkloadConfig ac = config;
  ac.async = true;
  ac.journal = false;
  blowfish::EngineOptions options = OptionsFor(ac, "", CacheBudgets());
  // Four workers: the cold lane admits workers / 2 leaders, and a
  // same-key follower only coalesces while a second worker is free to
  // pop it during the leader's planning.
  options.async_workers = 4;
  Deployment d = Deploy(f, ac, options);
  std::vector<QueryRequest> requests;
  for (const Template& t : f.templates) requests.push_back(t.request);
  std::deque<std::pair<uint64_t, std::future<Result<blowfish::QueryResult>>>> window;
  std::vector<uint32_t> ns;
  auto resolve_front = [&] {
    Result<blowfish::QueryResult> res = window.front().second.get();
    ns.push_back(static_cast<uint32_t>(NowNs() - window.front().first));
    if (!res.ok()) Die("async microphase", res.status());
    window.pop_front();
  };
  const size_t n = std::min<size_t>(ops.size(), 20000);
  for (size_t i = 0; i < n; ++i) {
    QueryRequest& r = requests[ops[i].tmpl];
    Address(ops[i], f, d, &r);
    window.emplace_back(NowNs(), d.async->SubmitAsync(r));
    if (window.size() >= 4) resolve_front();
  }
  while (!window.empty()) resolve_front();
  for (size_t p = 0; p < f.policies.size(); ++p) {
    const PolicySpec& spec = f.policies[p];
    const blowfish::Status st =
        d.engine->ReplacePolicy(spec.name, spec.policy, spec.data, CapForGeneration(1));
    if (!st.ok()) Die("async microphase replace", st);
    size_t tmpl = 0;
    while (f.templates[tmpl].policy != p) ++tmpl;
    Op op;
    op.tmpl = static_cast<uint32_t>(tmpl);
    QueryRequest r = f.templates[tmpl].request;
    Address(op, f, d, &r);
    for (int k = 0; k < 4; ++k) window.emplace_back(NowNs(), d.async->SubmitAsync(r));
    while (!window.empty()) window.pop_front();
  }
  d.async->Drain();
  const blowfish::AsyncStats stats = d.async->stats();
  layers->push_back({"async_engine.resolve_us", MedianUs(ns), "us"});
  layers->push_back({"async_engine.peak_depth",
                     static_cast<double>(std::max(stats.warm.peak_depth, stats.cold.peak_depth)),
                     "count"});
  layers->push_back({"async_engine.coalesced",
                     static_cast<double>(stats.cold_plans_coalesced), "count"});
}

const char* const kFamilies[] = {"line_tree", "theta_line", "grid_matrix", "grid_slab",
                                 "unbounded"};

/// Cold planning and transform precompute per policy, per family. A
/// family the workload registers no policy of is timed on the other
/// closed-loop fixture's policies of that family (admit-small's k=64
/// unbounded DP, release-heavy's 16×16 slab), so every family has a
/// measured figure on every workload.
void PlannerMicrophase(const Fixture& f, const std::string& workload, uint64_t seed,
                       std::vector<Metric>* layers) {
  std::vector<const PolicySpec*> specs;
  std::map<std::string, int> own;
  for (const PolicySpec& spec : f.policies) {
    specs.push_back(&spec);
    ++own[spec.family];
  }
  const Fixture other =
      MakeFixture(workload == "release-heavy" ? "admit-small" : "release-heavy", seed);
  for (const PolicySpec& spec : other.policies) {
    if (own.count(spec.family) == 0) specs.push_back(&spec);
  }
  std::map<std::string, std::vector<double>> plan_ms;
  std::vector<double> precompute_ms;
  for (const PolicySpec* p : specs) {
    const PolicySpec& spec = *p;
    for (int rep = 0; rep < 2; ++rep) {
      const uint64_t t0 = NowNs();
      Result<Plan> plan =
          blowfish::PlanMechanism(blowfish::PlanRequest{spec.policy, false, {}});
      const uint64_t t1 = NowNs();
      if (!plan.ok()) Die("planning " + spec.name, plan.status());
      PrecomputePtr pre = plan->mechanism->PrecomputeRelease(spec.data);
      const uint64_t t2 = NowNs();
      plan_ms[spec.family].push_back((t1 - t0) * 1e-6);
      if (own.count(spec.family) != 0) precompute_ms.push_back((t2 - t1) * 1e-6);
    }
  }
  for (const char* family : kFamilies) {
    layers->push_back({std::string("planner.plan_ms.") + family,
                       Median(plan_ms[family]), "ms"});
  }
  layers->push_back({"core.precompute_ms", Median(precompute_ms), "ms"});
}

/// Median µs of PolicyRegistry::Replace (same policy, fresh data copy).
double ReplaceMicrophase(LayerStack* s, const Fixture& f) {
  std::vector<double> us;
  for (int i = 0; i < 40; ++i) {
    const PolicySpec& spec = f.policies[static_cast<size_t>(i) % f.policies.size()];
    blowfish::Policy policy = spec.policy;
    Vector data = spec.data;
    const uint64_t t0 = NowNs();
    const blowfish::Status st = s->registry.Replace(spec.name, std::move(policy),
                                                    std::move(data), CapForGeneration(0));
    us.push_back((NowNs() - t0) * 1e-3);
    if (!st.ok()) Die("registry replace", st);
  }
  return Median(us);
}

}  // namespace

Outcome RunTraced(const Args& args) {
  const Fixture f = MakeFixture(args.workload, args.seed);
  WorkloadConfig config = ConfigFor(args.workload);
  std::vector<Metric> layers;
  Outcome out;
  const uint64_t clock_ns = ClockCostNs();
  out.Detail("clock_read_ns", static_cast<double>(clock_ns));

  CacheBudgets budgets;
  const bool open_loop = config.async;
  if (open_loop) {
    // The open-loop run itself, with IsWarm probes at submit time,
    // gives the cache, queue and generator figures.
    Outcome churn = RunColdChurnTraced(args, &layers);
    out.check_failures = churn.check_failures;
    out.attempted += churn.attempted;
    out.failed += churn.failed;
    budgets = ChurnBudgets(f);
    // The rest of the table replays its mix synchronously.
    config.async = false;
    config.clients = 2;
  }

  Deployment d;
  std::string journal_dir;
  TimedSetup(f, config, args.dir, budgets, 0, &d, &journal_dir);
  Rng rng(args.seed);
  // Rate (capped at 20k/s) times a third of --seconds: enough for
  // stable medians on both sides, since the replay repeats the ops.
  const size_t count = static_cast<size_t>(
      std::llround(std::min(config.rate, 20000.0) * args.seconds / 3));
  std::vector<Op> ops = MakeOps(f, config, count, &rng);
  for (Op& op : ops) op.stream = false;  // the replay mirrors Submit

  std::vector<uint32_t> first, gaps;
  StreamMicrophase(f, d, 400, &rng, &first, &gaps);

  // Untraced Submit (the end-to-end median the spans must cover) and
  // the traced replay alternate in 16 rounds over slices of the same
  // ops, so a slow spell on the machine lands on both sides alike.
  const std::string trace_journal = args.dir + "/trace-journal";
  std::filesystem::remove_all(trace_journal);
  std::unique_ptr<LayerStack> stack = BuildStack(f, config, trace_journal);
  std::vector<uint32_t> submit_ns, submit_templates;
  SpanTally spans;
  uint64_t allocs = 0, phase_requests = 0;
  int64_t heap_bytes = 0;
  constexpr size_t kRounds = 16;
  for (size_t round = 0; round < kRounds; ++round) {
    const std::vector<Op> slice(ops.begin() + ops.size() * round / kRounds,
                                ops.begin() + ops.size() * (round + 1) / kRounds);
    PhaseResult phase = RunPhase(f, d, config, slice, round == 0);
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    submit_ns.insert(submit_ns.end(), phase.latency_ns.begin(), phase.latency_ns.end());
    submit_templates.insert(submit_templates.end(), phase.templates.begin(),
                            phase.templates.end());
    allocs += phase.allocs;
    heap_bytes += phase.heap_bytes;
    phase_requests += slice.size();
    spans.Merge(Replay(stack.get(), f, slice, config.clients, clock_ns));
  }
  out.Check(out.failed == 0, "requests", "untraced Submit requests failed");
  out.Check(spans.failed == 0, "replay", "replayed charges were refused");
  out.attempted += ops.size();
  out.failed += spans.failed;
  const double e2e_us = MedianUs(submit_ns);
  const blowfish::PlanCache::Stats plan_stats = d.engine->plan_cache_stats();
  if (!open_loop) {
    // The transform cache as the replayed requests find it: IsWarm
    // asks the engine whether each request's plan slot and release
    // precompute are cached (cold-churn probes at submit time).
    std::vector<QueryRequest> requests;
    for (const Template& t : f.templates) requests.push_back(t.request);
    size_t warm = 0, probed = 0;
    for (size_t i = 0; i < ops.size(); i += 8, ++probed) {
      QueryRequest& r = requests[ops[i].tmpl];
      Address(ops[i], f, d, &r);
      warm += d.engine->IsWarm(r) ? 1 : 0;
    }
    layers.push_back({"transform_cache.hit_ratio",
                      static_cast<double>(warm) / static_cast<double>(probed), "ratio"});
    // ReplacePolicy on the serving engine (same policy and data, next
    // cap generation): registry write, cold plan and precompute.
    std::vector<double> replace_us;
    for (const PolicySpec& spec : f.policies) {
      const uint64_t t0 = NowNs();
      const blowfish::Status st =
          d.engine->ReplacePolicy(spec.name, spec.policy, spec.data, CapForGeneration(1));
      replace_us.push_back((NowNs() - t0) * 1e-3);
      if (!st.ok()) Die("engine replace", st);
    }
    layers.push_back({"query_engine.replace_us", Median(std::move(replace_us)), "us"});
  }
  const std::string engine_journal = journal_dir;
  d = Deployment();
  std::filesystem::remove_all(engine_journal);

  // Coverage is taken per template and averaged by request share: in
  // a mix, the medians of different layers come from different kinds
  // of request, and only within one kind do they add up. The query
  // engine's own time (self) is the rest of Submit once the other
  // layers' spans are taken out; its glue span is the part of it the
  // replay accounts for.
  double coverage = 0, self_us = 0;
  for (size_t t = 0; t < f.templates.size(); ++t) {
    std::vector<uint32_t> e2e, layer[kSpans];
    for (size_t i = 0; i < submit_ns.size(); ++i) {
      if (submit_templates[i] == t) e2e.push_back(submit_ns[i]);
    }
    for (size_t i = 0; i < spans.templates.size(); ++i) {
      if (spans.templates[i] != t) continue;
      for (int k = 0; k < kSpans; ++k) layer[k].push_back(spans.ns[k][i]);
    }
    if (e2e.empty()) continue;
    const double share = static_cast<double>(e2e.size()) / submit_ns.size();
    const double e2e_t = Median(std::move(e2e));
    const double glue_t = Median(std::move(layer[kGlue]));
    double others_t = 0;
    for (int k = kRegistry; k <= kObs; ++k) others_t += Median(std::move(layer[k]));
    coverage += share * (e2e_t > 0 ? (glue_t + others_t) / e2e_t : 0);
    self_us += share * (e2e_t - others_t) * 1e-3;
  }
  double span_us[kSpans];
  for (int k = 0; k < kSpans; ++k) span_us[k] = MedianUs(spans.ns[k]);

  layers.push_back({"query_engine.submit_us", e2e_us, "us"});
  layers.push_back({"query_engine.self_us", self_us, "us"});
  layers.push_back({"layers.coverage_ratio", coverage, "ratio"});
  if (!open_loop) {
    // A replay that has drifted from the engine's Submit path stops
    // adding up to it; its table would not describe the program.
    out.Check(std::abs(coverage - 1.0) <= kCoverageTolerance, "layers.coverage_ratio",
              "replayed layers cover " + std::to_string(coverage) +
                  " of Submit, outside 1 +- " + std::to_string(kCoverageTolerance));
  }
  layers.push_back({"trace.overhead_ratio",
                    e2e_us > 0 ? span_us[kTotal] / e2e_us : 0, "ratio"});
  for (int k = 0; k < kSpans; ++k) layers.push_back({kSpanMetric[k], span_us[k], "us"});
  layers.push_back({"budget_accountant.charge_us",
                    ChargeMicrophase(f, ops, config.clients, clock_ns), "us"});
  layers.push_back({"budget_accountant.charge_us_1client",
                    ChargeMicrophase(f, ops, 1, clock_ns), "us"});
  layers.push_back({"policy_registry.replace_us", ReplaceMicrophase(stack.get(), f), "us"});
  PlannerMicrophase(f, args.workload, args.seed, &layers);

  // Every workload's mix goes through the journal directly, so the
  // durable-charge layer is on the table even where Submit skips it.
  {
    const std::string dir = args.dir + "/micro-journal";
    std::filesystem::remove_all(dir);
    const std::vector<Op> few(ops.begin(),
                              ops.begin() + std::min<size_t>(ops.size(), 4000));
    const JournalFigures jf = JournalMicrophase(f, few, 3, dir, clock_ns);
    std::filesystem::remove_all(dir);
    layers.push_back({"ledger_journal.append_us", jf.append_us, "us"});
    layers.push_back({"ledger_journal.fsyncs_per_charge", jf.fsyncs_per_charge, "count"});
    layers.push_back({"ledger_journal.bytes_per_charge", jf.bytes_per_charge, "B"});
    layers.push_back({"ledger_journal.checkpoint_ms", jf.checkpoint_ms, "ms"});
  }
  stack.reset();
  std::filesystem::remove_all(trace_journal);

  layers.push_back({"stream.first_chunk_us", MedianUs(first), "us"});
  layers.push_back({"stream.chunk_us", MedianUs(gaps), "us"});
  layers.push_back({"process.allocs_per_req",
                    static_cast<double>(allocs) / static_cast<double>(phase_requests),
                    "count"});
  layers.push_back({"process.heap_bytes_per_req",
                    static_cast<double>(heap_bytes) / static_cast<double>(phase_requests),
                    "B"});

  if (!open_loop) {
    // Cold-churn's open loop measured these itself.
    const double lookups = static_cast<double>(plan_stats.hits + plan_stats.misses);
    layers.push_back({"plan_cache.hit_ratio",
                      static_cast<double>(plan_stats.hits) / lookups, "ratio"});
    AsyncMicrophase(f, config, ops, &layers);
  }
  // Queue wait: warm resolve time through the async lanes minus the
  // synchronous service time of the same mix.
  const auto resolve = std::find_if(layers.begin(), layers.end(), [](const Metric& m) {
    return m.name == "async_engine.resolve_us";
  });
  layers.push_back({"async_engine.queue_wait_us", resolve->value - e2e_us, "us"});

  std::sort(layers.begin(), layers.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  out.metrics = std::move(layers);
  return out;
}

}  // namespace perfbench
