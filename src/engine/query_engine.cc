#include "engine/query_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "core/grid_theta_adapter.h"
#include "core/mechanisms_kd.h"
#include "engine/snapshot_store.h"

namespace blowfish {

namespace {
// SplitMix64-style odd multiplier: consecutive submit indices map to
// well-separated Rng seeds.
constexpr uint64_t kStreamStep = 0x9E3779B97F4A7C15ull;

/// Shape facts of one request, computed without any allocation.
struct RequestShape {
  bool has_ranges = false;
  size_t num_queries = 0;
  size_t domain = 0;
  const std::string* workload_name = nullptr;
};

// Resident set size: /proc/self/statm's second field, in pages. 0
// where procfs is unavailable.
double ProcessResidentBytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0.0;
  unsigned long size = 0, resident = 0;
  if (std::fscanf(statm, "%lu %lu", &size, &resident) != 2) resident = 0;
  std::fclose(statm);
  return static_cast<double>(resident) * ::sysconf(_SC_PAGESIZE);
}

Status ValidateShape(const QueryRequest& request, RequestShape* shape) {
  // NaN passes `<= 0.0` and a denormal ε blows the noise scale up to
  // inf: both are malformed input, never a budget event.
  if (!(std::isnormal(request.epsilon) && request.epsilon > 0.0)) {
    return Status::InvalidArgument(
        "submit needs a finite, positive, normal epsilon");
  }
  shape->has_ranges = request.ranges.has_value();
  if (shape->has_ranges && request.workload.num_queries() > 0) {
    return Status::InvalidArgument(
        "submit carries both a dense and a range workload; set exactly one");
  }
  shape->num_queries = shape->has_ranges ? request.ranges->num_queries()
                                         : request.workload.num_queries();
  if (shape->num_queries == 0) {
    return Status::InvalidArgument("submit needs a non-empty workload");
  }
  shape->domain = shape->has_ranges ? request.ranges->domain().size()
                                    : request.workload.domain_size();
  shape->workload_name = shape->has_ranges ? &request.ranges->name()
                                           : &request.workload.name();
  return Status::OK();
}

Status CheckDomain(const RequestShape& shape, const RegisteredPolicy& entry) {
  if (shape.domain != entry.policy.domain_size()) {
    return Status::InvalidArgument(
        "workload '" + *shape.workload_name + "' spans " +
        std::to_string(shape.domain) + " cells but policy '" + entry.name +
        "' has domain size " + std::to_string(entry.policy.domain_size()));
  }
  return Status::OK();
}

uint32_t MicrosBetween(std::chrono::steady_clock::time_point start,
                       std::chrono::steady_clock::time_point end) {
  return static_cast<uint32_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count());
}

FlightOutcome FlightOutcomeOf(const Status& status) {
  if (status.ok()) return FlightOutcome::kOk;
  switch (status.code()) {
    case StatusCode::kOutOfRange:
      return FlightOutcome::kRefusedBudget;
    case StatusCode::kUnavailableDurability:
      return FlightOutcome::kRefusedDurability;
    default:
      return FlightOutcome::kFailed;
  }
}

int64_t WallMicrosNow() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

QueryEngine::QueryEngine(EngineOptions options)
    : options_(std::move(options)),
      seed_(options_.seed.has_value() ? *options_.seed : Rng::EntropySeed()),
      telemetry_(options_.trace_sample_rate, options_.audit_log_capacity,
                 options_.flight_recorder_capacity,
                 options_.burn_alert_capacity) {
  // Every spend/refusal the accountant decides lands in the audit
  // ring, appended under the charge's shard locks (see telemetry.h
  // for the ordering guarantee that buys).
  accountant_.SetAuditLog(&telemetry_.audit());

  telemetry_.flight().ConfigureBurst(options_.flight_burst_window,
                                     options_.flight_burst_refusals);
  if (options_.burn_alerts_enabled) {
    BurnRateConfig burn;
    burn.enabled = true;
    burn.fast_window_s = options_.burn_fast_window_s;
    burn.slow_window_s = options_.burn_slow_window_s;
    burn.alert_horizon_s = options_.burn_alert_horizon_s;
    burn.now_micros = options_.burn_clock_micros;
    accountant_.SetBurnRate(std::move(burn), &telemetry_.burn_alerts());
  }

  if (!options_.journal_path.empty()) {
    JournalOptions jopts;
    jopts.dir = options_.journal_path;
    jopts.segment_bytes = options_.journal_segment_bytes;
    jopts.io_retries = options_.journal_io_retries;
    jopts.retry_backoff_micros = options_.journal_retry_backoff_micros;
    jopts.allow_torn_tail = options_.journal_allow_torn_tail;
    jopts.io = options_.file_io;
    jopts.metrics = &telemetry_.metrics();
    Result<std::unique_ptr<LedgerJournal>> journal =
        LedgerJournal::Open(std::move(jopts));
    if (journal.ok()) {
      journal_ = std::move(journal).ValueOrDie();
      // From here on every charge is write-ahead journaled before it
      // commits, and ledgers opened under recovered ids resume their
      // pre-crash spends (see BudgetAccountant::SetJournal).
      accountant_.SetJournal(journal_.get());
    } else {
      // A constructor cannot return the failure, so the engine fails
      // closed instead: Admit refuses everything with this status.
      // QueryEngine::Open surfaces it properly.
      journal_error_ = journal.status();
    }
  }

  MetricsRegistry& metrics = telemetry_.metrics();
  m_submits_ = metrics.counter("engine_submits_total",
                               "Submit attempts, including refused ones");
  m_failures_ = metrics.counter("engine_submit_failures_total",
                                "Submit attempts that returned an error");
  m_refused_budget_ = metrics.counter(
      "engine_refused_budget_total",
      "Requests (submits, batch entries, streams) refused with "
      "kOutOfRange: a ledger could not afford the requested epsilon");
  m_batches_ = metrics.counter("engine_batches_total", "SubmitBatch calls");
  m_batch_entries_ = metrics.counter("engine_batch_entries_total",
                                     "Entries across all batches");
  m_streams_ = metrics.counter("engine_streams_total",
                               "Stream admissions attempted");
  m_eps_charged_ = metrics.double_counter(
      "engine_epsilon_charged_total",
      "Total epsilon charged across all successful admissions");
  m_submit_latency_ = metrics.histogram("engine_submit_latency_ms",
                                        "End-to-end Submit latency");
  // One series per plan kind; the planner has five, so the cap never
  // folds a real kind into "other".
  f_plan_latency_ = metrics.histogram_family(
      "engine_plan_latency_ms", {"kind"}, 8,
      "Cold planning time (PlanMechanism on a plan-cache miss) per plan "
      "kind");

  // Per-(policy, tenant) slices of the counters above: the tenant
  // label is the session id's class prefix (see TenantClassOf), the
  // family bounded so exposition cardinality cannot be driven by
  // callers minting session ids (overflow collapses to "other").
  if (options_.tenant_metrics_capacity > 0) {
    const std::vector<std::string> labels = {"policy", "tenant"};
    f_tenant_requests_ = metrics.counter_family(
        "engine_tenant_requests_total", labels,
        options_.tenant_metrics_capacity,
        "Requests per (policy, tenant class), every outcome");
    f_tenant_failures_ = metrics.counter_family(
        "engine_tenant_failures_total", labels,
        options_.tenant_metrics_capacity,
        "Failed requests per (policy, tenant class)");
    f_tenant_refused_ = metrics.counter_family(
        "engine_tenant_refused_total", labels,
        options_.tenant_metrics_capacity,
        "Requests refused per (policy, tenant class): budget exhausted "
        "(kOutOfRange) or durability unavailable");
    f_tenant_eps_ = metrics.double_counter_family(
        "engine_tenant_epsilon_charged_total", labels,
        options_.tenant_metrics_capacity,
        "Epsilon charged per (policy, tenant class)");
    f_tenant_latency_ = metrics.histogram_family(
        "engine_tenant_latency_ms", labels, options_.tenant_metrics_capacity,
        "End-to-end request latency per (policy, tenant class)");
  }
  obs_enabled_ =
      f_tenant_requests_ != nullptr || telemetry_.flight().enabled();

  // Component levels and monotone counts, read at snapshot time from
  // the stats the components already maintain (no second bookkeeping);
  // resident plans and precomputes are counted in the live snapshots'
  // slots.
  metrics.counter_callback("engine_plan_cache_hits", [this] {
    return static_cast<double>(plan_cache_.stats().hits);
  });
  metrics.counter_callback("engine_plan_cache_misses", [this] {
    return static_cast<double>(plan_cache_.stats().misses);
  });
  metrics.gauge_callback("engine_plan_cache_entries", [this] {
    return static_cast<double>(plan_cache_stats().entries);
  });
  metrics.gauge_callback("engine_plan_cache_bytes", [this] {
    return static_cast<double>(plan_cache_stats().bytes);
  });
  metrics.gauge_callback("engine_transform_cache_entries", [this] {
    return static_cast<double>(transform_cache_stats().entries);
  });
  metrics.gauge_callback("engine_transform_cache_bytes", [this] {
    return static_cast<double>(transform_cache_stats().bytes);
  });
  metrics.counter_callback("engine_transform_cache_evictions", [this] {
    return static_cast<double>(transform_cache_stats().evictions);
  });
  metrics.gauge_callback("engine_policies", [this] {
    return static_cast<double>(registry_.size());
  });
  metrics.gauge_callback("engine_sessions", [this] {
    std::shared_lock<std::shared_mutex> lock(sessions_mu_);
    return static_cast<double>(sessions_.size());
  });
  // Shows unbounded per-request state growing before it is an outage.
  metrics.gauge_callback(
      "engine_process_resident_bytes", [] { return ProcessResidentBytes(); },
      "Resident set size of the engine process (from /proc/self/statm)");
  metrics.counter_callback("engine_audit_events_total", [this] {
    return static_cast<double>(telemetry_.audit().total_events());
  });
  // Events lost to ring wrap-around are exactly the spends a JSONL
  // export can no longer replay, so dashboards alert on this name
  // (nonzero = widen the ring or export more often; the crash journal
  // is unaffected — it never drops).
  metrics.counter_callback("engine_audit_dropped", [this] {
    return static_cast<double>(telemetry_.audit().dropped());
  });
  // The trace ring's drop counter, mirroring engine_audit_dropped:
  // nonzero means sampled traces were overwritten before an exporter
  // read them (sample less or export more often).
  metrics.counter_callback(
      "engine_trace_dropped",
      [this] { return static_cast<double>(telemetry_.trace_dropped()); },
      "Sampled traces lost to trace-ring wrap-around");
  metrics.counter_callback(
      "engine_burn_alerts_fired_total",
      [this] {
        return static_cast<double>(telemetry_.burn_alerts().fired_total());
      },
      "Burn-rate alerts fired: a ledger's two-window spend rate "
      "projected exhaustion inside the alert horizon");
  metrics.gauge_callback(
      "engine_burn_alerts_active",
      [this] { return static_cast<double>(accountant_.burn_alerts_active()); },
      "Ledgers currently in the burn-alerting state");
  metrics.counter_callback(
      "engine_flight_records_total",
      [this] { return static_cast<double>(telemetry_.flight().total()); },
      "Requests captured by the always-on flight recorder");
  metrics.gauge_callback(
      "engine_flight_incident",
      [this] { return telemetry_.flight().incident_fired() ? 1.0 : 0.0; },
      "1 once the flight recorder's incident detector has fired "
      "(first durability refusal or refusal burst)");
  metrics.counter_callback(
      "engine_obs_requests_total",
      [this] {
        return obs_server_ == nullptr
                   ? 0.0
                   : static_cast<double>(obs_server_->requests_served());
      },
      "HTTP requests the in-process scrape server answered");
  // Warm-restart observability: what this process inherited from the
  // snapshot store (fixed at construction).
  metrics.gauge_callback("engine_snapshot_generation", [this] {
    return static_cast<double>(snapshot_restore_stats_.generation);
  });
  metrics.gauge_callback("engine_snapshot_restored_policies", [this] {
    return static_cast<double>(snapshot_restore_stats_.policies_restored);
  });
  metrics.gauge_callback("engine_snapshot_restored_transforms", [this] {
    return static_cast<double>(snapshot_restore_stats_.transforms_restored);
  });
  metrics.gauge_callback("engine_snapshot_items_skipped", [this] {
    return static_cast<double>(snapshot_restore_stats_.items_skipped);
  });

  // Warm restart runs after the journal is wired (restored policies
  // open their versioned cap ledgers through the accountant, which
  // must already absorb journal-recovered spends) and before any
  // submit can exist. A poisoned journal skips the restore: the
  // engine refuses everything anyway, and opening ledgers against an
  // unjournaled accountant would let spends bypass the write-ahead
  // contract after the poison clears.
  if (!options_.snapshot_path.empty() && journal_error_.ok()) {
    RestoreFromSnapshot();
  }

  // The scrape server starts last: its handlers snapshot the registry
  // and the rings, so everything they touch must already be wired. A
  // bind failure (port taken) degrades observability, never the data
  // plane — the engine runs and obs_error() says why /metrics is dark.
  if (options_.obs_port >= 0) {
    ObsHandlers handlers;
    handlers.metrics_text = [this] {
      return telemetry_.metrics().PrometheusText();
    };
    handlers.varz_json = [this] { return telemetry_.metrics().SnapshotJson(); };
    handlers.healthz = [this] { return Healthz(); };
    handlers.flightz_jsonl = [this] { return telemetry_.flight().DumpJsonl(); };
    Result<std::unique_ptr<ObsServer>> server =
        ObsServer::Start(options_.obs_port, std::move(handlers));
    if (server.ok()) {
      obs_server_ = std::move(server).ValueOrDie();
    } else {
      obs_error_ = server.status();
    }
  }
}

Result<std::unique_ptr<QueryEngine>> QueryEngine::Open(EngineOptions options) {
  std::unique_ptr<QueryEngine> engine(new QueryEngine(std::move(options)));
  BF_RETURN_NOT_OK(engine->journal_error_);
  return engine;
}

Status QueryEngine::durability_health() const {
  if (!journal_error_.ok()) return journal_error_;
  if (journal_ != nullptr) return journal_->health();
  return Status::OK();
}

HealthReport QueryEngine::Healthz() const {
  HealthReport report;
  const Status durability = durability_health();
  // The up/down decision is exactly the fail-closed durability signal:
  // a 503 here means Admit is refusing every charge too. Everything
  // else in the body is context, not a cause for 503 — a burn alert
  // or a dropped audit event degrades insight, not correctness.
  report.ok = durability.ok();
  std::string& body = report.body;
  body = "{\"ok\":";
  body += report.ok ? "true" : "false";
  body += ",\"durability\":";
  AppendJsonString(durability.ok() ? "OK" : durability.ToString(), &body);
  body += ",\"snapshot_generation\":";
  body += std::to_string(snapshot_restore_stats_.generation);
  body += ",\"burn_alerts_active\":";
  body += std::to_string(accountant_.burn_alerts_active());
  body += ",\"audit_dropped\":";
  body += std::to_string(telemetry_.audit().dropped());
  body += ",\"trace_dropped\":";
  body += std::to_string(telemetry_.trace_dropped());
  body += ",\"flight_incident\":";
  body += telemetry_.flight().incident_fired() ? "true" : "false";
  // Async lane depths exist only when an AsyncQueryEngine registered
  // them into this registry; a sync-only engine simply omits them.
  const char* depth_gauges[] = {"engine_async_warm_depth",
                                "engine_async_cold_depth"};
  const char* depth_keys[] = {"async_warm_depth", "async_cold_depth"};
  for (size_t i = 0; i < 2; ++i) {
    double depth = 0.0;
    if (telemetry_.metrics().TryReadValue(depth_gauges[i], &depth)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), ",\"%s\":%.0f", depth_keys[i], depth);
      body += buf;
    }
  }
  body += "}\n";
  return report;
}

std::string_view QueryEngine::TenantClassOf(const std::string& session_id) {
  const size_t cut = session_id.find_first_of(":/#@");
  return std::string_view(session_id)
      .substr(0, cut == std::string::npos ? session_id.size() : cut);
}

void QueryEngine::RecordRequestObs(const QueryRequest& request,
                                   const RegisteredPolicy* entry,
                                   const Status& status,
                                   double charged_epsilon, uint32_t admit_us,
                                   uint32_t total_us) {
  if (!obs_enabled_) return;

  // Resolve the policy label: the canonical registry name when the
  // request got far enough, its string otherwise. A failed handle-only
  // request resolves the handle here (off the success path).
  std::shared_ptr<const RegisteredPolicy> resolved;
  std::string_view policy_label;
  if (entry != nullptr) {
    policy_label = entry->name;
  } else if (!request.policy.empty()) {
    policy_label = request.policy;
  } else if (request.policy_handle.valid()) {
    Result<std::shared_ptr<const RegisteredPolicy>> lookup =
        registry_.Get(request.policy_handle);
    if (lookup.ok()) {
      resolved = std::move(lookup).ValueOrDie();
      policy_label = resolved->name;
    }
  }
  if (policy_label.empty()) policy_label = "unknown";

  // Resolve the tenant class. Handle-only requests carry no session
  // string, so the class is copied out of session_tenants_ into a
  // stack buffer under the shared lock (a concurrent CloseSession can
  // erase the entry the moment the lock drops).
  char tenant_buf[sizeof(FlightRecord::tenant)];
  std::string_view tenant;
  if (!request.session.empty()) {
    tenant = TenantClassOf(request.session);
  } else if (request.session_handle.valid()) {
    std::shared_lock<std::shared_mutex> lock(sessions_mu_);
    auto it = session_tenants_.find(request.session_handle.bits());
    if (it != session_tenants_.end()) {
      const size_t n = std::min(it->second.size(), sizeof(tenant_buf) - 1);
      std::memcpy(tenant_buf, it->second.data(), n);
      tenant_buf[n] = '\0';
      tenant = std::string_view(tenant_buf, n);
    }
  }
  if (tenant.empty()) tenant = "unknown";

  if (f_tenant_requests_ != nullptr) {
    f_tenant_requests_->WithLabels(policy_label, tenant)->Add(1);
    if (status.ok()) {
      if (charged_epsilon > 0.0) {
        f_tenant_eps_->WithLabels(policy_label, tenant)->Add(charged_epsilon);
      }
    } else {
      f_tenant_failures_->WithLabels(policy_label, tenant)->Add(1);
      if (status.code() == StatusCode::kOutOfRange ||
          status.code() == StatusCode::kUnavailableDurability) {
        f_tenant_refused_->WithLabels(policy_label, tenant)->Add(1);
      }
    }
    f_tenant_latency_->WithLabels(policy_label, tenant)
        ->Record(total_us / 1000.0);
  }

  FlightRecorder& flight = telemetry_.flight();
  if (flight.enabled()) {
    FlightRecord record;
    record.t_us = WallMicrosNow();
    record.epsilon = request.epsilon;
    record.admit_us = admit_us;
    record.total_us = total_us;
    record.outcome = FlightOutcomeOf(status);
    record.lane = CurrentFlightLane();
    record.SetTenant(tenant);
    record.SetPolicy(policy_label);
    if (flight.Record(record) && !options_.flight_dump_path.empty()) {
      // First incident: persist the ring while it still holds the
      // run-up traffic. Best-effort — a failed dump loses forensics,
      // not correctness (the in-memory ring stays dumpable).
      std::ofstream out(options_.flight_dump_path,
                        std::ios::out | std::ios::trunc);
      if (out) out << flight.DumpJsonl();
    }
  }
}

Status QueryEngine::CheckpointJournal() {
  if (journal_ == nullptr) {
    return Status::InvalidArgument(
        "engine has no journal (EngineOptions::journal_path unset)");
  }
  return accountant_.WriteCheckpoint();
}

void QueryEngine::MaybeCheckpointJournal() {
  if (journal_ == nullptr || !options_.journal_auto_checkpoint ||
      !journal_->checkpoint_due()) {
    return;
  }
  // Best-effort: a failed compaction leaves more segments on disk but
  // never loses a record; the next due submit retries.
  (void)accountant_.WriteCheckpoint();
}

void QueryEngine::RestoreFromSnapshot() {
  SnapshotImage image;
  snapshot::OpenReport report;
  const Status opened =
      snapshot::OpenLatest(options_.snapshot_path, &image, &report);
  if (!opened.ok()) return;  // unconfigured path; nothing to restore
  snapshot_restore_stats_.skipped_files = report.skipped;
  if (!report.loaded) return;  // cold start (missing or all corrupt)
  snapshot_restore_stats_.loaded = true;
  snapshot_restore_stats_.generation = report.generation;

  for (const SnapshotPolicy& sp : image.policies) {
    // Structural validation first: a snapshot section decodes under
    // its CRC, but restore still refuses shapes the engine could
    // crash on. Refusal means "skip" — the operator re-registers the
    // policy as on any cold start.
    DomainShape domain(sp.dims);
    if (sp.registered_name.empty() || domain.size() == 0 ||
        domain.size() != sp.num_vertices ||
        sp.data.size() != domain.size()) {
      ++snapshot_restore_stats_.items_skipped;
      continue;
    }
    // The graph's own check refuses self-loops, out-of-range endpoints
    // and duplicate edges.
    Result<Graph> graph = Graph::FromEdges(sp.num_vertices, sp.edges);
    if (!graph.ok() || graph.ValueOrDie().num_edges() == 0) {
      ++snapshot_restore_stats_.items_skipped;
      continue;
    }
    Policy policy{sp.policy_name, std::move(domain),
                  std::move(graph).ValueOrDie()};

    // Same sequence as RegisterPolicy, but claiming the persisted
    // version: ledger first (absorbing any journal-recovered spends
    // for this (name, version)), then publish. ClaimVersion advances
    // the registry counter past every restored version, so future
    // registrations can never alias a persisted ledger or cache key.
    Result<LedgerHandle> ledger = accountant_.OpenLedger(
        PolicyLedger(sp.registered_name, sp.version), sp.epsilon_cap);
    if (!ledger.ok()) {
      ++snapshot_restore_stats_.items_skipped;
      continue;
    }
    const Status registered =
        registry_.Register(sp.registered_name, std::move(policy), sp.data,
                           sp.epsilon_cap, sp.version, *ledger);
    if (!registered.ok()) {
      accountant_.CloseLedger(*ledger).Check();
      ++snapshot_restore_stats_.items_skipped;
      continue;
    }
    ++snapshot_restore_stats_.policies_restored;

    Result<std::shared_ptr<const RegisteredPolicy>> entry =
        registry_.Get(sp.registered_name);
    if (!entry.ok()) continue;
    for (const SnapshotPlanHint& hint : sp.plan_hints) {
      if (hint.slot > 1) {
        ++snapshot_restore_stats_.items_skipped;
        continue;
      }
      PlanRequest plan_request;
      plan_request.policy = entry.ValueOrDie()->policy;
      plan_request.prefer_data_dependent = hint.slot == 1;
      Result<Plan> planned = PlanMechanism(std::move(plan_request));
      // The replanned strategy must be the one the hint was recorded
      // for — a kind mismatch means the planner (or the policy)
      // changed since the snapshot.
      if (!planned.ok() || planned.ValueOrDie().kind != hint.kind) {
        ++snapshot_restore_stats_.items_skipped;
        continue;
      }
      Plan plan = std::move(planned).ValueOrDie();
      plan.audit_context = std::make_shared<const std::string>(
          "policy '" + entry.ValueOrDie()->name + "' via " + plan.kind);
      std::atomic_store_explicit(
          &entry.ValueOrDie()->plan_slots[hint.slot],
          std::shared_ptr<const Plan>(
              std::make_shared<const Plan>(std::move(plan))),
          std::memory_order_release);
      ++snapshot_restore_stats_.plans_restored;
    }
  }

  for (const SnapshotTransform& st : image.transforms) {
    Result<std::shared_ptr<const RegisteredPolicy>> entry =
        registry_.Get(st.registered_name);
    if (!entry.ok() || entry.ValueOrDie()->version != st.version) {
      ++snapshot_restore_stats_.items_skipped;  // stale or unknown
      continue;
    }
    const size_t slot = st.data_dependent ? 1 : 0;
    const std::shared_ptr<const Plan> plan = std::atomic_load_explicit(
        &entry.ValueOrDie()->plan_slots[slot], std::memory_order_acquire);
    if (plan == nullptr) {
      ++snapshot_restore_stats_.items_skipped;  // no plan to decode with
      continue;
    }
    PrecomputePtr pre = plan->mechanism->DecodePrecompute(
        st.family, st.payload);
    if (pre == nullptr) {
      ++snapshot_restore_stats_.items_skipped;  // family/shape mismatch
      continue;
    }
    RegisteredPolicy::PrecomputeSlot& target =
        entry.ValueOrDie()->precompute_slots[slot];
    if (target.pre != nullptr) {
      ++snapshot_restore_stats_.items_skipped;  // duplicate section
      continue;
    }
    target.last_used.store(
        transform_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    std::atomic_store_explicit(&target.pre, std::move(pre),
                               std::memory_order_release);
    ++snapshot_restore_stats_.transforms_restored;
  }
  // A restored set larger than the configured budget trims to the
  // budget exactly as live fills would.
  if (options_.transform_cache_bytes != 0) EnforceTransformBudget(nullptr);
}

Status QueryEngine::WriteSnapshot() {
  if (options_.snapshot_path.empty()) {
    return Status::InvalidArgument(
        "engine has no snapshot store (EngineOptions::snapshot_path unset)");
  }
  // Collect under brief registry locks (snapshots are immutable
  // shared_ptrs; their slots are atomics). Serialization and file I/O
  // then run with no engine lock held.
  SnapshotImage image;
  for (const std::shared_ptr<const RegisteredPolicy>& live : LiveSnapshots()) {
    const RegisteredPolicy& entry = *live;
    SnapshotPolicy sp;
    sp.registered_name = entry.name;
    sp.policy_name = entry.policy.name;
    sp.version = entry.version;
    sp.epsilon_cap = entry.epsilon_cap;
    sp.dims = entry.policy.domain.dims();
    sp.num_vertices = entry.policy.graph.num_vertices();
    sp.edges = entry.policy.graph.edges();
    sp.data = entry.data;
    for (size_t slot = 0; slot < 2; ++slot) {
      const std::shared_ptr<const Plan> plan = std::atomic_load_explicit(
          &entry.plan_slots[slot], std::memory_order_acquire);
      if (plan != nullptr) {
        SnapshotPlanHint hint;
        hint.slot = static_cast<uint8_t>(slot);
        hint.kind = plan->kind;
        sp.plan_hints.push_back(std::move(hint));
      }
      const PrecomputePtr pre = std::atomic_load_explicit(
          &entry.precompute_slots[slot].pre, std::memory_order_acquire);
      if (pre == nullptr) continue;
      SnapshotTransform st;
      st.family = std::string(pre->SerialFamily());
      pre->EncodePayload(&st.payload);
      st.registered_name = entry.name;
      st.version = entry.version;
      st.data_dependent = slot == 1;
      image.transforms.push_back(std::move(st));
    }
    image.policies.push_back(std::move(sp));
  }

  return snapshot::Write(options_.snapshot_path, image,
                         options_.snapshot_keep_generations,
                         options_.file_io);
}

std::string QueryEngine::SessionLedger(const std::string& session_id) {
  return "session/" + session_id;
}

// Ledger ids are versioned so a submit always charges the cap of the
// exact data snapshot it releases. '\x1f' cannot appear in registered
// names, so the prefix uniquely identifies one name (names may
// contain '/').
std::string QueryEngine::PolicyLedger(const std::string& name,
                                      uint64_t version) {
  return PolicyLedgerPrefix(name) + std::to_string(version);
}

std::string QueryEngine::PolicyLedgerPrefix(const std::string& name) {
  return "policy/" + name + '\x1f';
}

Status QueryEngine::RegisterPolicy(const std::string& name, Policy policy,
                                   Vector data, double epsilon_cap) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  // The ledger must exist before any submit can see the version, so:
  // reserve the version, open its ledger, then publish (carrying the
  // ledger's handle so warm submits never resolve the id again).
  const uint64_t version = registry_.ReserveVersion();
  Result<LedgerHandle> ledger =
      accountant_.OpenLedger(PolicyLedger(name, version), epsilon_cap);
  if (!ledger.ok()) return ledger.status();
  const Status registered =
      registry_.Register(name, std::move(policy), std::move(data),
                         epsilon_cap, version, *ledger);
  if (!registered.ok()) {
    accountant_.CloseLedger(*ledger).Check();
    return registered;
  }
  if (options_.warm_plan_cache) {
    Result<std::shared_ptr<const RegisteredPolicy>> entry =
        registry_.Get(name);
    if (entry.ok()) {
      bool hit = false;
      // Best effort: an unplannable policy still registers, and the
      // submit path reports the planning error.
      Result<std::shared_ptr<const Plan>> plan = GetOrPlan(
          entry.ValueOrDie(), /*prefer_data_dependent=*/false, &hit);
      if (plan.ok()) {
        (void)GetOrPrecompute(*entry.ValueOrDie(), **plan,
                              /*prefer_data_dependent=*/false);
      }
    }
  }
  return Status::OK();
}

Status QueryEngine::ReplacePolicy(const std::string& name, Policy policy,
                                  Vector data, double epsilon_cap) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  BF_RETURN_NOT_OK(registry_.Get(name).status());
  // Fresh data, fresh cap, fresh ledger id — opened before the swap
  // publishes the version, so no submit ever charges a missing
  // ledger. The superseded version's ledger stays open so in-flight
  // submits drain against *its* cap.
  const uint64_t version = registry_.ReserveVersion();
  Result<LedgerHandle> ledger =
      accountant_.OpenLedger(PolicyLedger(name, version), epsilon_cap);
  if (!ledger.ok()) return ledger.status();
  const Status replaced =
      registry_.Replace(name, std::move(policy), std::move(data),
                        epsilon_cap, version, *ledger);
  if (!replaced.ok()) {
    accountant_.CloseLedger(*ledger).Check();
    return replaced;
  }
  return Status::OK();
}

Status QueryEngine::UnregisterPolicy(const std::string& name) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  BF_RETURN_NOT_OK(registry_.Unregister(name));
  accountant_.CloseLedgersWithPrefix(PolicyLedgerPrefix(name));
  return Status::OK();
}

std::vector<std::shared_ptr<const RegisteredPolicy>>
QueryEngine::LiveSnapshots() const {
  std::vector<std::shared_ptr<const RegisteredPolicy>> live;
  for (const std::string& name : registry_.Names()) {
    Result<std::shared_ptr<const RegisteredPolicy>> entry = registry_.Get(name);
    if (entry.ok()) live.push_back(std::move(entry).ValueOrDie());
  }
  return live;
}

void QueryEngine::EnforceTransformBudget(
    const RegisteredPolicy::PrecomputeSlot* protect) {
  const size_t budget = options_.transform_cache_bytes;
  struct Resident {
    RegisteredPolicy::PrecomputeSlot* slot;
    PrecomputePtr pre;
    uint64_t stamp;
  };
  // The walk holds the snapshots, so their slots outlive it. It is
  // approximate under concurrency (a slot filled or emptied meanwhile
  // is missed) and exact when quiet.
  const std::vector<std::shared_ptr<const RegisteredPolicy>> live =
      LiveSnapshots();
  std::vector<Resident> resident;
  size_t bytes = 0;
  for (const std::shared_ptr<const RegisteredPolicy>& entry : live) {
    for (RegisteredPolicy::PrecomputeSlot& slot : entry->precompute_slots) {
      PrecomputePtr pre =
          std::atomic_load_explicit(&slot.pre, std::memory_order_acquire);
      if (pre == nullptr) continue;
      bytes += pre->ApproxBytes();
      // The protected slot sorts last: emptied only as the last resort.
      const uint64_t stamp =
          &slot == protect ? ~0ull
                           : slot.last_used.load(std::memory_order_relaxed);
      resident.push_back(Resident{&slot, std::move(pre), stamp});
    }
  }
  if (bytes <= budget) return;
  std::sort(resident.begin(), resident.end(),
            [](const Resident& a, const Resident& b) {
              return a.stamp < b.stamp;
            });
  for (const Resident& r : resident) {
    if (bytes <= budget) break;
    // Empties the slot only if it still holds what the walk saw: a
    // concurrent refill stays.
    PrecomputePtr expected = r.pre;
    if (std::atomic_compare_exchange_strong(&r.slot->pre, &expected,
                                            PrecomputePtr())) {
      bytes -= r.pre->ApproxBytes();
      transform_evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

QueryEngine::PrecomputePtr QueryEngine::GetOrPrecompute(
    const RegisteredPolicy& entry, const Plan& plan,
    bool prefer_data_dependent) {
  RegisteredPolicy::PrecomputeSlot& slot =
      entry.precompute_slots[prefer_data_dependent ? 1 : 0];
  const bool budgeted = options_.transform_cache_bytes != 0;
  PrecomputePtr pre =
      std::atomic_load_explicit(&slot.pre, std::memory_order_acquire);
  if (pre == nullptr) {
    // Single-flight per slot: a cold-policy herd must not run the CG
    // solve once per submitter, and the gate is the snapshot's own, so
    // a cold policy never blocks first touches of other policies.
    // Warm submits never take it.
    std::unique_lock<std::mutex> gate(slot.gate);
    pre = std::atomic_load_explicit(&slot.pre, std::memory_order_acquire);
    if (pre == nullptr) {
      pre = plan.mechanism->PrecomputeRelease(entry.data);
      // Stamped before it is visible, so a concurrent budget walk never
      // sees the fresh precompute as the oldest.
      slot.last_used.store(
          transform_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      std::atomic_store_explicit(&slot.pre, pre, std::memory_order_release);
      gate.unlock();
      // Walks every live snapshot, so it runs outside the gate.
      if (budgeted) EnforceTransformBudget(&slot);
      return pre;
    }
  } else if (budgeted) {
    // A budgeted hit stamps recency in the slot, without a lock.
    slot.last_used.store(
        transform_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
  }
  return pre;
}

bool QueryEngine::IsWarm(const QueryRequest& request,
                         std::string* cold_key) const {
  Result<std::shared_ptr<const RegisteredPolicy>> lookup =
      request.policy_handle.valid() ? registry_.Get(request.policy_handle)
                                    : registry_.Get(request.policy);
  // Unresolvable policy: the submit will fail with kNotFound before
  // any planning — nothing cold about it.
  if (!lookup.ok()) return true;
  const RegisteredPolicy& entry = *lookup.ValueOrDie();
  const size_t slot = request.prefer_data_dependent ? 1 : 0;
  if (std::atomic_load_explicit(&entry.plan_slots[slot],
                                std::memory_order_acquire) != nullptr &&
      std::atomic_load_explicit(&entry.precompute_slots[slot].pre,
                                std::memory_order_acquire) != nullptr) {
    return true;
  }
  if (cold_key != nullptr) {
    *cold_key = PlanCache::MakeKey(entry.name, entry.version,
                                   request.prefer_data_dependent);
  }
  return false;
}

PlanCache::Stats QueryEngine::plan_cache_stats() const {
  PlanCache::Stats stats = plan_cache_.stats();
  for (const std::shared_ptr<const RegisteredPolicy>& entry :
       LiveSnapshots()) {
    for (const std::shared_ptr<const Plan>& slot : entry->plan_slots) {
      const std::shared_ptr<const Plan> plan =
          std::atomic_load_explicit(&slot, std::memory_order_acquire);
      if (plan == nullptr) continue;
      ++stats.entries;
      stats.bytes += std::max(plan->approx_bytes, sizeof(Plan));
    }
  }
  return stats;
}

QueryEngine::TransformCacheStats QueryEngine::transform_cache_stats() const {
  TransformCacheStats stats;
  for (const std::shared_ptr<const RegisteredPolicy>& entry :
       LiveSnapshots()) {
    for (const RegisteredPolicy::PrecomputeSlot& slot :
         entry->precompute_slots) {
      const PrecomputePtr pre =
          std::atomic_load_explicit(&slot.pre, std::memory_order_acquire);
      if (pre == nullptr) continue;
      ++stats.entries;
      stats.bytes += pre->ApproxBytes();
    }
  }
  stats.evictions = transform_evictions_.load(std::memory_order_relaxed);
  return stats;
}

Status QueryEngine::OpenSession(const std::string& session_id,
                                double epsilon_budget) {
  if (session_id.empty()) {
    return Status::InvalidArgument("session id must be non-empty");
  }
  Result<LedgerHandle> handle =
      accountant_.OpenLedger(SessionLedger(session_id), epsilon_budget);
  if (!handle.ok()) return handle.status();
  std::unique_lock<std::shared_mutex> lock(sessions_mu_);
  sessions_[session_id] = *handle;
  // Tenant class for handle-only submits (which carry no session
  // string to derive it from at record time).
  session_tenants_[handle->bits()] = std::string(TenantClassOf(session_id));
  return Status::OK();
}

Status QueryEngine::CloseSession(const std::string& session_id) {
  LedgerHandle handle;
  {
    std::unique_lock<std::shared_mutex> lock(sessions_mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return Status::NotFound("session '" + session_id + "' is not open");
    }
    handle = it->second;
    sessions_.erase(it);
    session_tenants_.erase(handle.bits());
  }
  return accountant_.CloseLedger(handle);
}

Result<LedgerHandle> QueryEngine::ResolveSession(
    const std::string& session_id) const {
  std::shared_lock<std::shared_mutex> lock(sessions_mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("session '" + session_id + "' is not open");
  }
  return it->second;
}

Result<std::shared_ptr<const Plan>> QueryEngine::GetOrPlan(
    const std::shared_ptr<const RegisteredPolicy>& entry,
    bool prefer_data_dependent, bool* cache_hit) {
  std::shared_ptr<const Plan>* slot =
      &entry->plan_slots[prefer_data_dependent ? 1 : 0];
  // Warm path: the snapshot's own plan slot — no key string, no map.
  std::shared_ptr<const Plan> warm =
      std::atomic_load_explicit(slot, std::memory_order_acquire);
  if (warm != nullptr) {
    plan_cache_.RecordHit();
    *cache_hit = true;
    return warm;
  }
  // Single-flight: concurrent misses on one key run the planner once,
  // into the slot.
  return plan_cache_.GetOrCompute(
      PlanCache::MakeKey(entry->name, entry->version, prefer_data_dependent),
      [&]() -> Result<Plan> {
        const Clock::time_point start = Clock::now();
        Result<Plan> result =
            PlanMechanism(PlanRequest{entry->policy, prefer_data_dependent});
        if (!result.ok()) return result;
        Plan plan = std::move(result).ValueOrDie();
        f_plan_latency_->WithLabels(plan.kind)->Record(
            std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count());
        // Formatted once per plan; every charge on this plan shares it
        // (see ChargeTag::context).
        plan.audit_context = std::make_shared<const std::string>(
            "policy '" + entry->name + "' via " + plan.kind);
        return plan;
      },
      cache_hit, slot);
}

namespace {

/// Streams the θ>=2 grid fast path: the core cursor holds this
/// submit's noisy releases; the shared plan keeps the mechanism (and
/// so the cursor's back-pointer) alive.
class GridStreamCursor : public ChunkCursor {
 public:
  GridStreamCursor(std::shared_ptr<const Plan> plan,
                   std::unique_ptr<GridThetaRangeMechanism::RangeCursor> core,
                   size_t chunk_queries)
      : plan_(std::move(plan)),
        core_(std::move(core)),
        chunk_queries_(chunk_queries) {}

  std::optional<StreamChunk> NextChunk() override {
    if (core_->done()) return std::nullopt;
    StreamChunk chunk;
    chunk.offset = core_->position();
    core_->AnswerNext(chunk_queries_, &chunk.values);
    return chunk;
  }
  size_t total_answers() const override { return core_->total(); }

 private:
  std::shared_ptr<const Plan> plan_;
  std::unique_ptr<GridThetaRangeMechanism::RangeCursor> core_;
  size_t chunk_queries_;
};

/// Streams answers off a released histogram estimate x̂. A range
/// workload is answered from a summed-area table built once (identical
/// arithmetic to RangeWorkload::Answer); a dense one row by row, each
/// row the same CSR dot MultiplyVector performs. Either way chunk
/// concatenation is bit-identical to the materialized answers. The
/// cursor owns its table (or its copy of x̂): it outlives the submit
/// and may run on another thread than the release's workspace.
class EstimateStreamCursor : public ChunkCursor {
 public:
  /// Moves the request's workload in; the request may die first.
  EstimateStreamCursor(QueryRequest* request, const Vector& estimate,
                       size_t chunk_queries)
      : ranges_(std::move(request->ranges)),
        workload_(std::move(request->workload)),
        chunk_queries_(chunk_queries) {
    if (ranges_.has_value()) {
      answerer_.emplace(ranges_->domain(), estimate);
    } else {
      estimate_ = estimate;
    }
  }

  std::optional<StreamChunk> NextChunk() override {
    if (next_ >= total_answers()) return std::nullopt;
    const size_t end = std::min(next_ + chunk_queries_, total_answers());
    StreamChunk chunk;
    chunk.offset = next_;
    chunk.values.reserve(end - next_);
    for (; next_ < end; ++next_) {
      chunk.values.push_back(
          answerer_.has_value()
              ? answerer_->Answer(ranges_->lo(next_), ranges_->hi(next_))
              : workload_.matrix().RowDot(next_, estimate_));
    }
    return chunk;
  }
  size_t total_answers() const override {
    return ranges_.has_value() ? ranges_->num_queries()
                               : workload_.num_queries();
  }

 private:
  std::optional<RangeWorkload> ranges_;
  Workload workload_;
  Vector estimate_;
  std::optional<SummedAreaAnswerer> answerer_;
  size_t chunk_queries_;
  size_t next_ = 0;
};

}  // namespace

Status QueryEngine::Resolve(const QueryRequest& request, Admission* admission,
                            RequestTrace* trace) {
  // Fail closed before any work: an engine whose journal failed to
  // open must refuse admission outright — serving charges it cannot
  // journal would silently void the durability guarantee. (Runtime
  // poisoning is enforced inside Charge by the journal itself.)
  if (!journal_error_.ok()) return journal_error_;

  RequestShape shape;
  {
    TraceStageTimer timer(trace, TraceStage::kValidate);
    BF_RETURN_NOT_OK(ValidateShape(request, &shape));
  }

  TraceStageTimer timer(trace, TraceStage::kResolve);
  // Session first: a submit against an unknown session must not plan.
  // This is a resolution, not a budget probe — Admit's charge is the
  // single point that touches the ledger (no redundant lock/probe).
  admission->session_ledger = request.session_handle;
  if (!admission->session_ledger.valid()) {
    std::shared_lock<std::shared_mutex> lock(sessions_mu_);
    auto it = sessions_.find(request.session);
    if (it == sessions_.end()) {
      return Status::NotFound("session '" + request.session + "' is not open");
    }
    admission->session_ledger = it->second;
  }

  Result<std::shared_ptr<const RegisteredPolicy>> lookup =
      request.policy_handle.valid() ? registry_.Get(request.policy_handle)
                                    : registry_.Get(request.policy);
  if (!lookup.ok()) return lookup.status();
  admission->entry = std::move(lookup).ValueOrDie();
  return CheckDomain(shape, *admission->entry);
}

Status QueryEngine::Admit(const QueryRequest& first, size_t count,
                          double epsilon, bool disjoint, Admission* admission,
                          RequestTrace* trace) {
  // Plan first (data-independent, costs no budget), charge second, and
  // only then draw noise: a refused query releases nothing.
  {
    TraceStageTimer timer(trace, TraceStage::kPlan);
    Result<std::shared_ptr<const Plan>> plan = GetOrPlan(
        admission->entry, first.prefer_data_dependent, &admission->cache_hit);
    if (!plan.ok()) return plan.status();
    admission->plan = std::move(plan).ValueOrDie();
  }

  TraceStageTimer timer(trace, TraceStage::kCharge);
  const std::string& first_name =
      first.ranges.has_value() ? first.ranges->name() : first.workload.name();
  std::string batch_label;
  ChargeTag tag;
  tag.workload = first_name;
  if (count > 1) {
    batch_label = "batch[" + std::to_string(count) + "] incl. " + first_name;
    tag.workload = batch_label;
  }
  tag.context = admission->plan->audit_context;
  tag.parallel_count = disjoint ? static_cast<uint32_t>(count) : 1;
  const LedgerHandle ledgers[2] = {admission->session_ledger,
                                   admission->entry->ledger};
  BF_RETURN_NOT_OK(
      accountant_.Charge(ledgers, 2, epsilon, tag, admission->remaining));
  m_eps_charged_->Add(epsilon);
  return Status::OK();
}

template <typename Header, typename OnSlab, typename OnEstimate>
void QueryEngine::DrawRelease(const Admission& admission,
                              const QueryRequest& request, Header* header,
                              OnSlab&& on_slab, OnEstimate&& on_estimate) {
  const RegisteredPolicy& entry = *admission.entry;
  const Plan& plan = *admission.plan;
  // Private random stream per release; immutable plan, caller-side rng.
  // With a fixed seed the n-th release draws the n-th stream whether
  // it materializes or streams — the equivalence the stream tests pin.
  const uint64_t stream = submit_counter_.fetch_add(1) + 1;
  // dp-lint: allow(charge-before-noise) the one release dispatch; Submit, SubmitBatch and AdmitStream reach it only after Admit's Charge succeeded
  Rng rng(seed_ ^ (kStreamStep * stream));
  const PrecomputePtr pre =
      GetOrPrecompute(entry, plan, request.prefer_data_dependent);

  header->plan_kind = plan.kind;
  header->plan_cache_hit = admission.cache_hit;
  // Balances observed atomically inside the charge — a ledger closed
  // right after still reports the value this release actually saw.
  header->session_remaining = admission.remaining[0];
  header->policy_remaining = admission.remaining[1];
  // The fast path reconstructs in the policy's own grid geometry, so
  // the request's domain must match the policy's shape exactly, not
  // just its flattened size.
  header->range_fast_path =
      request.ranges.has_value() && plan.range_mechanism != nullptr &&
      request.ranges->domain().dims() == entry.policy.domain.dims();
  if (header->range_fast_path) {
    // Fast path: noise is drawn once for this submit's slab releases
    // and tabulated; each queried range is then read in O(1), with no
    // full-histogram detour. The noise-free data transform is shared
    // across submits.
    const GridThetaRangeMechanism& mech = *plan.range_mechanism;
    header->guarantee = mech.Guarantee(request.epsilon);
    // range_mechanism is set only on the adapter's plans, and the
    // adapter's precompute is always a SlabPrecompute.
    const auto* slab =
        dynamic_cast<const GridThetaHistogramAdapter::SlabPrecompute*>(
            pre.get());
    BF_CHECK(slab != nullptr);
    on_slab(mech, slab->xg, slab->n, &rng);
    return;
  }
  // Histogram-release paths: the noisy estimate x̂ is the release;
  // answers are post-processing of it.
  header->guarantee = plan.mechanism->Guarantee(request.epsilon);
  ReleaseWorkspace& ws = ReleaseWorkspace::ForThisThread();
  plan.mechanism->RunPrecomputed(*pre, request.epsilon, &rng, &ws,
                                 &ws.estimate);
  on_estimate(ws.estimate);
}

void QueryEngine::Materialize(const Admission& admission,
                              const QueryRequest& request,
                              QueryResult* result) {
  DrawRelease(
      admission, request, result,
      [&](const GridThetaRangeMechanism& mech, const Vector& xg, double n,
          Rng* rng) {
        result->answers = mech.AnswerRangesOnTransformed(
            *request.ranges, xg, n, request.epsilon, rng);
      },
      [&](const Vector& estimate) {
        // Range workloads on histogram-release plans are answered from
        // x̂ with a summed-area table; W is never materialized.
        if (request.ranges.has_value()) {
          request.ranges->Answer(
              estimate, &ReleaseWorkspace::ForThisThread().sat,
              &result->answers);
        } else {
          result->answers = request.workload.Answer(estimate);
        }
      });
}

std::unique_ptr<ChunkCursor> QueryEngine::BuildCursor(
    const Admission& admission, QueryRequest* request,
    const StreamOptions& options, StreamHeader* header) {
  const size_t chunk_queries = std::max<size_t>(1, options.chunk_queries);
  std::unique_ptr<ChunkCursor> cursor;
  DrawRelease(
      admission, *request, header,
      [&](const GridThetaRangeMechanism& mech, const Vector& xg, double n,
          Rng* rng) {
        // BeginRanges draws the submit's slab/line releases now
        // (everything the charge covers); the cursor then reconstructs
        // per query, exactly the increments AnswerRangesOnTransformed
        // runs internally.
        cursor = std::make_unique<GridStreamCursor>(
            admission.plan,
            mech.BeginRanges(std::move(*request->ranges), xg, n,
                             request->epsilon, rng),
            chunk_queries);
      },
      [&](const Vector& estimate) {
        cursor = std::make_unique<EstimateStreamCursor>(request, estimate,
                                                        chunk_queries);
      });
  header->total_answers = cursor->total_answers();
  return cursor;
}

void QueryEngine::Finish(bool submit, const QueryRequest& request,
                         const RegisteredPolicy* entry, const Status& status,
                         double charged_epsilon, Clock::time_point start,
                         Clock::time_point admitted,
                         RequestTrace* owned_trace) {
  if (status.code() == StatusCode::kOutOfRange) m_refused_budget_->Add(1);
  if (submit || obs_enabled_) {
    const Clock::time_point end = Clock::now();
    if (submit) {
      if (!status.ok()) m_failures_->Add(1);
      m_submit_latency_->Record(
          std::chrono::duration<double, std::milli>(end - start).count());
    }
    RecordRequestObs(request, entry, status, charged_epsilon,
                     MicrosBetween(start, admitted),
                     MicrosBetween(start, end));
  }
  MaybeCheckpointJournal();
  if (owned_trace != nullptr) telemetry_.FinishTrace(owned_trace, status.ok());
}

Result<QueryResult> QueryEngine::Submit(const QueryRequest& request,
                                        RequestTrace* trace) {
  const Clock::time_point start = Clock::now();
  m_submits_->Add(1);
  RequestTrace sampled;
  RequestTrace* owned = nullptr;
  if (trace == nullptr) {
    sampled = telemetry_.MaybeStartTrace();
    trace = owned = &sampled;
  }
  Admission admission;
  Status status = Resolve(request, &admission, trace);
  if (status.ok()) {
    status = Admit(request, 1, request.epsilon, /*disjoint=*/false,
                   &admission, trace);
  }
  // One extra clock read, only when the obs plane wants the admission
  // split for flight records.
  const Clock::time_point admitted = obs_enabled_ ? Clock::now() : start;
  QueryResult result;
  if (status.ok()) {
    TraceStageTimer timer(trace, TraceStage::kRelease);
    Materialize(admission, request, &result);
  }
  Finish(/*submit=*/true, request, admission.entry.get(), status,
         status.ok() ? request.epsilon : 0.0, start, admitted, owned);
  if (!status.ok()) return status;
  return result;
}

Result<std::unique_ptr<ChunkCursor>> QueryEngine::AdmitStream(
    QueryRequest request, const StreamOptions& options, StreamHeader* header,
    RequestTrace* trace) {
  const Clock::time_point start =
      obs_enabled_ ? Clock::now() : Clock::time_point();
  m_streams_->Add(1);
  RequestTrace sampled;
  RequestTrace* owned = nullptr;
  if (trace == nullptr) {
    sampled = telemetry_.MaybeStartTrace();
    trace = owned = &sampled;
  }
  Admission admission;
  Status status = Resolve(request, &admission, trace);
  if (status.ok()) {
    status = Admit(request, 1, request.epsilon, /*disjoint=*/false,
                   &admission, trace);
  }
  const Clock::time_point admitted = obs_enabled_ ? Clock::now() : start;
  std::unique_ptr<ChunkCursor> cursor;
  if (status.ok()) {
    // The release stage covers the noise draw at cursor construction
    // (chunk production afterwards is pure post-processing, timed by
    // the stream digests instead). Only the workload moves into the
    // cursor; Finish still reads the request's ids.
    TraceStageTimer timer(trace, TraceStage::kRelease);
    cursor = BuildCursor(admission, &request, options, header);
  }
  Finish(/*submit=*/false, request, admission.entry.get(), status,
         status.ok() ? request.epsilon : 0.0, start, admitted, owned);
  if (!status.ok()) return status;
  return cursor;
}

Result<std::shared_ptr<ResultStream>> QueryEngine::SubmitStream(
    QueryRequest request, const StreamOptions& options) {
  StreamHeader header;
  Result<std::unique_ptr<ChunkCursor>> cursor =
      AdmitStream(std::move(request), options, &header);
  if (!cursor.ok()) return cursor.status();
  return ResultStream::MakeInline(std::move(cursor).ValueOrDie(),
                                  std::move(header));
}

std::vector<Result<QueryResult>> QueryEngine::SubmitBatch(
    const std::vector<QueryRequest>& batch, const BatchOptions& options) {
  const Clock::time_point start =
      obs_enabled_ ? Clock::now() : Clock::time_point();
  m_batches_->Add(1);
  m_batch_entries_->Add(batch.size());
  // One span for the whole call: the entries' stages accumulate in it.
  RequestTrace trace = telemetry_.MaybeStartTrace();
  std::vector<Result<QueryResult>> results(
      batch.size(),
      Result<QueryResult>(Status::Internal("batch entry not processed")));

  // Resolve every entry, then group by (session ledger, policy
  // snapshot, planner options): the plan lookup and budget charge run
  // once per group instead of once per entry.
  struct Group {
    Admission admission;
    bool prefer_data_dependent = false;
    std::vector<size_t> indices;
    double eps_sum = 0.0;
    double eps_max = 0.0;
  };
  std::vector<Group> groups;
  for (size_t i = 0; i < batch.size(); ++i) {
    const QueryRequest& request = batch[i];
    Admission resolved;
    const Status status = Resolve(request, &resolved, &trace);
    if (!status.ok()) {
      results[i] = status;
      Finish(/*submit=*/false, request, resolved.entry.get(), status, 0.0,
             start, obs_enabled_ ? Clock::now() : start, nullptr);
      continue;
    }
    Group* group = nullptr;
    for (Group& g : groups) {
      if (g.admission.session_ledger == resolved.session_ledger &&
          g.admission.entry == resolved.entry &&
          g.prefer_data_dependent == request.prefer_data_dependent) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.emplace_back();
      group = &groups.back();
      group->admission = std::move(resolved);
      group->prefer_data_dependent = request.prefer_data_dependent;
    }
    group->indices.push_back(i);
    // dp-lint: allow(epsilon-confinement) composition pre-aggregation; the sum/max only shapes the group charge Admit hands to BudgetAccountant::Charge
    group->eps_sum += request.epsilon;
    group->eps_max = std::max(group->eps_max, request.epsilon);
  }

  for (Group& group : groups) {
    const size_t m = group.indices.size();
    const double epsilon =
        options.disjoint_domains ? group.eps_max : group.eps_sum;
    Admission& admission = group.admission;
    const Status status = Admit(batch[group.indices.front()], m, epsilon,
                                options.disjoint_domains, &admission, &trace);
    if (status.code() == StatusCode::kOutOfRange &&
        !options.disjoint_domains && m > 1) {
      // The combined sequential charge does not fit. Degrade to
      // per-entry charges in batch order so the budget admits exactly
      // the prefix individual Submits would have admitted. (Each
      // retried entry counts and audits as its own Submit.)
      for (size_t i : group.indices) results[i] = Submit(batch[i]);
      continue;
    }
    const Clock::time_point admitted = obs_enabled_ ? Clock::now() : start;
    bool group_charge_recorded = false;
    for (size_t i : group.indices) {
      if (!status.ok()) {
        // A disjoint-domain charge is indivisible (parallel
        // composition covers the whole set or none); plan failures
        // apply to every entry alike.
        results[i] = status;
        Finish(/*submit=*/false, batch[i], admission.entry.get(), status,
               0.0, start, admitted, nullptr);
        continue;
      }
      QueryResult result;
      {
        TraceStageTimer timer(&trace, TraceStage::kRelease);
        Materialize(admission, batch[i], &result);
      }
      results[i] = std::move(result);
      // ε attribution matches what the ledgers saw: each entry's own
      // ask under sequential composition (they sum to the charge), the
      // single max-ε charge once per group under parallel composition.
      double entry_epsilon = batch[i].epsilon;
      if (options.disjoint_domains) {
        entry_epsilon = group_charge_recorded ? 0.0 : epsilon;
        group_charge_recorded = true;
      }
      Finish(/*submit=*/false, batch[i], admission.entry.get(), status,
             entry_epsilon, start, admitted, nullptr);
    }
  }
  telemetry_.FinishTrace(
      &trace, std::all_of(results.begin(), results.end(),
                          [](const Result<QueryResult>& r) { return r.ok(); }));
  return results;
}

Result<PolicyMetadata> QueryEngine::GetPolicyMetadata(
    const std::string& name) const {
  Result<std::shared_ptr<const RegisteredPolicy>> entry =
      registry_.Get(name);
  if (!entry.ok()) return entry.status();
  return entry.ValueOrDie()->metadata;
}

Result<double> QueryEngine::SessionRemaining(
    const std::string& session_id) const {
  return accountant_.Remaining(SessionLedger(session_id));
}

Result<double> QueryEngine::PolicyRemaining(const std::string& name) const {
  // The current version's cap; superseded versions only drain.
  Result<std::shared_ptr<const RegisteredPolicy>> entry =
      registry_.Get(name);
  if (!entry.ok()) return entry.status();
  return accountant_.Remaining(entry.ValueOrDie()->ledger);
}

Result<std::string> QueryEngine::SessionAudit(
    const std::string& session_id) const {
  const std::string ledger_id = SessionLedger(session_id);
  Result<PrivacyBudget> ledger = accountant_.Ledger(ledger_id);
  if (!ledger.ok()) return ledger.status();
  std::ostringstream out;
  out << "budget " << ledger->total() << ", spent " << ledger->spent()
      << " in " << ledger->spends() << " charge(s):";
  uint64_t shown = 0;
  for (const AuditEvent& event : telemetry_.audit().Snapshot()) {
    const AuditEvent::LedgerLine* end = event.ledgers + event.num_ledgers;
    if (std::none_of(event.ledgers, end,
                     [&](const AuditEvent::LedgerLine& line) {
                       return line.id == ledger_id;
                     })) {
      continue;
    }
    out << "\n  " << event.epsilon << "  " << event.workload;
    if (event.context != nullptr) out << " on " << *event.context;
    if (event.parallel_count > 1) {
      out << " (parallel x" << event.parallel_count << ")";
    }
    if (event.charged) {
      ++shown;
    } else {
      out << "  [refused]";
    }
  }
  if (shown < ledger->spends()) {
    out << "\n  (" << ledger->spends() - shown << " earlier charge(s) are"
        << " not in the audit ring; a configured ledger journal keeps every"
        << " charge, see ledger_fsck)";
  }
  return out.str();
}

}  // namespace blowfish
