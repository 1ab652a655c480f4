// Engine observability: one registry for every component's metrics,
// sampled per-request stage traces, and a replayable ε-audit log.
//
// The paper's subject is *accounting* — policy-aware ε spent per
// release — and before this layer the engine could only report it
// through ad-hoc per-component stats (AsyncStats, the plan and
// transform slot counts) with no record of which tenant spent which
// budget when, or where a request's latency went. Three pieces fix
// that:
//
//   MetricsRegistry    named counters / gauges / log2-bucket latency
//                      histograms (the digest async_engine.cc used to
//                      hand-roll, generalized). Registration takes a
//                      mutex once at setup; every update after that is
//                      a relaxed atomic op — hot paths hold raw metric
//                      pointers and never lock or allocate. Snapshots
//                      export as JSON or Prometheus text exposition.
//
//   RequestTrace       a sampled per-request stage span. The engine
//                      decides at submit time (one counter increment;
//                      EngineOptions::trace_sample_rate = 0 is a
//                      single load and costs nothing) and, when
//                      sampled, stamps each admission stage
//                      (validate → resolve → plan → charge → release)
//                      plus the async pipeline's waits (queue wait,
//                      cold-coalesce wait, stream park). Finished
//                      traces feed per-stage histograms and a bounded
//                      ring of recent structured traces.
//
//   EpsilonAuditLog    a bounded ring of structured spend/refusal
//                      events. BudgetAccountant::Charge appends while
//                      still holding the involved shard locks, so the
//                      log's per-ledger event order *is* each ledger's
//                      spend order: replaying `spent += ε` over a
//                      ledger's events in seq order reproduces its
//                      PrivacyBudget balance bit-for-bit (the
//                      reconciliation engine_telemetry_test pins, and
//                      the property a durable-state ledger replay
//                      needs). Events carry the post-charge balances,
//                      and ExportJsonl() emits crash-portable JSONL
//                      (doubles printed with %.17g so they round-trip
//                      exactly).
//
// Thread safety: metric updates are lock-free. The audit, burn-alert
// and trace rings are one BoundedLog each, whose short mutex is never
// taken while holding any engine lock other than the accountant's
// shard locks, which order strictly before it.

#ifndef BLOWFISH_ENGINE_TELEMETRY_H_
#define BLOWFISH_ENGINE_TELEMETRY_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace blowfish {

/// Appends `s` as a JSON string literal, escaping quotes, backslash
/// and control characters (policy ledger ids embed '\x1f').
void AppendJsonString(std::string_view s, std::string* out);
/// Appends `v` printed with %.17g, the shortest printf format that
/// round-trips an IEEE double exactly: audit balances must reconcile
/// bit-level after a JSONL round trip.
void AppendDouble(double v, std::string* out);

// ------------------------------------------------------------ metrics

/// \brief Monotone event count. Updates are relaxed atomics.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Monotone floating-point accumulator (Σε charged). C++17 has
/// no atomic<double>::fetch_add, so Add is a CAS loop — still
/// lock-free.
class DoubleCounter {
 public:
  void Add(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Point-in-time level (queue depth, resident bytes).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Percentile summary of one histogram (percentiles are bucket
/// upper bounds — ~2x resolution — clamped to the exact observed max).
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// \brief Lock-free log2-microsecond latency histogram — the digest
/// the async lanes hand-rolled before PR 6, generalized and shared:
/// values are milliseconds, bucket i holds microsecond values of bit
/// width i (upper bound 2^i µs). TSan-clean: buckets are atomics,
/// recorded without any lock.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;

  void Record(double ms);
  HistogramSnapshot Snapshot() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Cumulative bucket counts for Prometheus exposition:
  /// out[i] = #values <= 2^i µs; returns the total.
  uint64_t CumulativeBuckets(uint64_t out[kBuckets]) const;

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> max_us_{0};
  std::atomic<double> sum_ms_{0.0};
};

/// \brief Bounded-cardinality labeled series family: one metric `M`
/// per distinct label tuple, capped at `max_series` tuples with every
/// overflow tuple collapsing into one preallocated `other` series — a
/// hostile tenant minting fresh session ids cannot explode the
/// exposition's cardinality or allocate unboundedly.
///
/// WithLabels is the hot-path lookup: a lock-free open-addressed
/// probe over atomically published slots — no lock and no allocation
/// on a hit, and once the family is full the miss path is lock-free
/// too (probe to an empty slot, then the `other` series). Only the
/// first contact with a new tuple, while capacity remains, takes the
/// family mutex to publish its series. Published series are immortal
/// for the family's lifetime, so returned pointers are stable.
template <typename M>
class MetricFamily {
 public:
  static constexpr size_t kMaxLabels = 2;
  static constexpr std::string_view kOverflowValue = "other";

  MetricFamily(std::vector<std::string> label_names, size_t max_series)
      : label_names_(std::move(label_names)),
        max_series_(std::max<size_t>(1, max_series)) {
    table_size_ = 4;
    while (table_size_ < max_series_ * 2) table_size_ <<= 1;
    table_ = std::make_unique<std::atomic<Series*>[]>(table_size_);
    for (size_t i = 0; i < label_names_.size() && i < kMaxLabels; ++i) {
      other_.values[i] = std::string(kOverflowValue);
    }
  }

  const std::vector<std::string>& label_names() const { return label_names_; }
  size_t max_series() const { return max_series_; }
  /// Distinct label tuples published (the `other` series not counted).
  size_t size() const { return count_.load(std::memory_order_acquire); }
  /// Lookups that landed in the `other` overflow series.
  uint64_t overflow_hits() const {
    return overflow_hits_.load(std::memory_order_relaxed);
  }

  /// The series for (v0, v1); creates it on first contact, or the
  /// `other` series once `max_series` distinct tuples exist.
  M* WithLabels(std::string_view v0, std::string_view v1 = {}) {
    const uint64_t hash = HashLabels(v0, v1);
    const size_t mask = table_size_ - 1;
    size_t idx = static_cast<size_t>(hash) & mask;
    for (;;) {
      Series* series = table_[idx].load(std::memory_order_acquire);
      if (series == nullptr) break;
      if (series->values[0] == v0 && series->values[1] == v1) {
        return &series->metric;
      }
      idx = (idx + 1) & mask;
    }
    // Absent. Full family: lock-free overflow — the table never fills
    // (sized 2x capacity), so the probe above always terminates.
    if (count_.load(std::memory_order_acquire) >= max_series_) {
      overflow_hits_.fetch_add(1, std::memory_order_relaxed);
      return &other_.metric;
    }
    std::lock_guard<std::mutex> lock(mu_);
    // Re-probe under the lock: a racing first contact may have
    // published the tuple (or taken the last capacity slot) meanwhile.
    idx = static_cast<size_t>(hash) & mask;
    for (;;) {
      Series* series = table_[idx].load(std::memory_order_acquire);
      if (series == nullptr) break;
      if (series->values[0] == v0 && series->values[1] == v1) {
        return &series->metric;
      }
      idx = (idx + 1) & mask;
    }
    if (count_.load(std::memory_order_relaxed) >= max_series_) {
      overflow_hits_.fetch_add(1, std::memory_order_relaxed);
      return &other_.metric;
    }
    owned_.push_back(std::make_unique<Series>());
    Series* series = owned_.back().get();
    series->values[0].assign(v0.data(), v0.size());
    series->values[1].assign(v1.data(), v1.size());
    table_[idx].store(series, std::memory_order_release);
    count_.fetch_add(1, std::memory_order_release);
    return &series->metric;
  }

  struct SeriesRef {
    const std::string* values[kMaxLabels] = {nullptr, nullptr};
    const M* metric = nullptr;
  };

  /// Every published series plus — once any lookup overflowed — the
  /// `other` series, sorted by label values (deterministic exposition).
  std::vector<SeriesRef> Snapshot() const {
    std::vector<SeriesRef> out;
    out.reserve(count_.load(std::memory_order_acquire) + 1);
    for (size_t i = 0; i < table_size_; ++i) {
      const Series* series = table_[i].load(std::memory_order_acquire);
      if (series == nullptr) continue;
      SeriesRef ref;
      ref.values[0] = &series->values[0];
      ref.values[1] = &series->values[1];
      ref.metric = &series->metric;
      out.push_back(ref);
    }
    if (overflow_hits() > 0) {
      SeriesRef ref;
      ref.values[0] = &other_.values[0];
      ref.values[1] = &other_.values[1];
      ref.metric = &other_.metric;
      out.push_back(ref);
    }
    std::sort(out.begin(), out.end(),
              [](const SeriesRef& a, const SeriesRef& b) {
                if (*a.values[0] != *b.values[0]) {
                  return *a.values[0] < *b.values[0];
                }
                return *a.values[1] < *b.values[1];
              });
    return out;
  }

 private:
  struct Series {
    std::string values[kMaxLabels];
    M metric;
  };

  static uint64_t HashLabels(std::string_view v0, std::string_view v1) {
    // FNV-1a over v0 \x1f v1 — no allocation, stable across lookups.
    uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::string_view s) {
      for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
      h ^= 0x1fu;
      h *= 1099511628211ull;
    };
    mix(v0);
    mix(v1);
    return h;
  }

  std::vector<std::string> label_names_;
  size_t max_series_;
  size_t table_size_;
  std::unique_ptr<std::atomic<Series*>[]> table_;
  std::atomic<size_t> count_{0};
  std::atomic<uint64_t> overflow_hits_{0};
  Series other_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Series>> owned_ GUARDED_BY(mu_);
};

using CounterFamily = MetricFamily<Counter>;
using DoubleCounterFamily = MetricFamily<DoubleCounter>;
using HistogramFamily = MetricFamily<LatencyHistogram>;

/// \brief Name -> metric directory. Get-or-create registration locks;
/// the returned pointers are stable for the registry's lifetime and
/// update lock-free. Names follow Prometheus conventions
/// (`engine_submits_total`). Every registration takes an optional
/// help string, emitted as `# HELP` in the exposition.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name, std::string_view help = {});
  DoubleCounter* double_counter(const std::string& name,
                                std::string_view help = {});
  Gauge* gauge(const std::string& name, std::string_view help = {});
  LatencyHistogram* histogram(const std::string& name,
                              std::string_view help = {});
  /// A gauge whose value is computed at snapshot time (plans resident
  /// in the registry's snapshots, queue depths — levels a component
  /// already tracks under its own locks). `fn` runs on the
  /// snapshotting thread and may take that component's locks; it must
  /// not call back into the registry.
  void gauge_callback(const std::string& name, std::function<double()> fn,
                      std::string_view help = {}) {
    RegisterCallback(name, std::move(fn), help, /*is_counter=*/false);
  }
  /// gauge_callback for a monotone count a component already keeps
  /// (plan-cache hits, ring totals): exposed as a counter.
  void counter_callback(const std::string& name, std::function<double()> fn,
                        std::string_view help = {}) {
    RegisterCallback(name, std::move(fn), help, /*is_counter=*/true);
  }

  /// Labeled family registration (see MetricFamily). Re-registration
  /// under the same name returns the existing family; `label_names`
  /// and `max_series` are fixed by the first call.
  CounterFamily* counter_family(const std::string& name,
                                std::vector<std::string> label_names,
                                size_t max_series,
                                std::string_view help = {});
  DoubleCounterFamily* double_counter_family(
      const std::string& name, std::vector<std::string> label_names,
      size_t max_series, std::string_view help = {});
  HistogramFamily* histogram_family(const std::string& name,
                                    std::vector<std::string> label_names,
                                    size_t max_series,
                                    std::string_view help = {});

  /// Reads one scalar metric's current value by name (counter, gauge,
  /// or callback — histograms and families have no single value).
  /// False when absent or not scalar. For composed health reports.
  bool TryReadValue(const std::string& name, double* out) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {count, sum_ms, p50_ms, p99_ms, max_ms}}, "families": {name:
  /// [{"labels": {...}, ...}]}} — keys sorted.
  std::string SnapshotJson() const;
  /// Prometheus text exposition: `# HELP` + `# TYPE` for every
  /// family; counters and gauges as-is, histograms as cumulative
  /// `_bucket{le="..."}` series (le in ms) plus `_sum` / `_count`;
  /// labeled families one line per series with label values escaped
  /// per the exposition format (backslash, quote, newline).
  std::string PrometheusText() const;

 private:
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<DoubleCounter> double_counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
    std::function<double()> callback;
    bool callback_is_counter = false;
    std::unique_ptr<CounterFamily> counter_family;
    std::unique_ptr<DoubleCounterFamily> double_counter_family;
    std::unique_ptr<HistogramFamily> histogram_family;
    std::string help;
  };

  static bool EntryIsEmpty(const Entry& entry);
  static bool IsCounter(const Entry& entry);
  /// Writes a counter, gauge or callback entry's current value.
  static void AppendScalarValue(const Entry& entry, std::string* out);

  /// The metric in `entry.*member` for `name`, created from `args` on
  /// first registration; `help` sticks from the first call that has one.
  template <typename M, typename... Args>
  M* GetOrCreate(const std::string& name, std::string_view help,
                 std::unique_ptr<M> Entry::*member, Args&&... args);
  void RegisterCallback(const std::string& name, std::function<double()> fn,
                        std::string_view help, bool is_counter);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_ GUARDED_BY(mu_);
};

// -------------------------------------------------------- bounded log

/// \brief The one ring under the telemetry logs (ε audit, burn alerts,
/// sampled traces): keeps the newest `capacity` records, oldest
/// overwritten first. Append stamps each record's `seq` (dense,
/// starting at 1) and clamps its `wall_micros` non-decreasing against
/// the previous record — the system clock can step backwards (NTP
/// slew, VM migration), and consumers replay by (seq, t_us). One short
/// mutex serializes appends; the ring is reserved up front, so
/// steady-state appends reuse slots (their strings keep capacity)
/// instead of growing the vector under the lock. Capacity 0 keeps and
/// counts nothing.
template <typename T>
class BoundedLog {
 public:
  explicit BoundedLog(size_t capacity) : capacity_(capacity) {
    ring_.reserve(capacity_);
  }

  size_t capacity() const { return capacity_; }

  void Append(T&& record) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    record.seq = ++total_;
    record.wall_micros = std::max(record.wall_micros, last_wall_micros_);
    last_wall_micros_ = record.wall_micros;
    const size_t slot = static_cast<size_t>((record.seq - 1) % capacity_);
    if (slot < ring_.size()) {
      ring_[slot] = std::move(record);
    } else {
      ring_.push_back(std::move(record));
    }
  }

  /// Retained records, oldest first (seq order).
  std::vector<T> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    // The oldest retained record sits right after the newest: slot
    // total % size (slot 0 until the ring has wrapped).
    const auto oldest =
        ring_.begin() +
        static_cast<std::ptrdiff_t>(ring_.empty() ? 0 : total_ % ring_.size());
    std::vector<T> out;
    out.reserve(ring_.size());
    out.insert(out.end(), oldest, ring_.end());
    out.insert(out.end(), ring_.begin(), oldest);
    return out;
  }

  /// One line per retained record, oldest first.
  std::string Jsonl(void (*append_line)(const T&, std::string*)) const {
    std::string out;
    for (const T& record : Snapshot()) append_line(record, &out);
    return out;
  }

  /// Records ever appended; the ring keeps the last min(total, capacity).
  uint64_t total() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }
  /// Records overwritten by ring wrap-around.
  uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_ > capacity_ ? total_ - capacity_ : 0;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  /// index = (seq - 1) % capacity
  std::vector<T> ring_ GUARDED_BY(mu_);
  uint64_t total_ GUARDED_BY(mu_) = 0;
  int64_t last_wall_micros_ GUARDED_BY(mu_) = 0;
};

// ------------------------------------------------------------ tracing

/// \brief The stages a sampled request is timed through. The first
/// five are Submit's admission + release pipeline; the rest are the
/// async pipeline's waits, stamped by the worker that carries the
/// task.
enum class TraceStage : size_t {
  kValidate = 0,       ///< shape validation (no allocation, no locks)
  kResolve,            ///< session + policy resolution, domain check
  kPlan,               ///< get-or-plan (cold: the planner runs here)
  kCharge,             ///< atomic two-ledger ε charge
  kRelease,            ///< noise draw + workload answering
  kQueueWait,          ///< async: submission to first worker pop
  kColdCoalesceWait,   ///< async: parked behind a same-key cold leader
  kStreamPark,         ///< async stream: producer parked on a full buffer
  kCount,
};
constexpr size_t kTraceStageCount = static_cast<size_t>(TraceStage::kCount);
const char* TraceStageName(TraceStage stage);

/// \brief One completed sampled trace, as kept in the bounded ring.
struct TraceRecord {
  uint64_t seq = 0;         ///< ring position; dense, starts at 1
  uint64_t trace_id = 0;
  int64_t wall_micros = 0;  ///< completion wall time
  bool ok = false;          ///< the traced request succeeded
  /// Stage durations; < 0 = stage not reached on this request.
  double stage_ms[kTraceStageCount];
};

class EngineTelemetry;

/// \brief Sampled per-request stage span. Inactive spans (the
/// trace_sample_rate = 0 hot path) are a null pointer and two loads —
/// no clocks, no allocation. Movable; stack-carried through Submit or
/// moved into an async Task.
class RequestTrace {
 public:
  RequestTrace() { Reset(); }
  RequestTrace(RequestTrace&& other) noexcept { *this = std::move(other); }
  RequestTrace& operator=(RequestTrace&& other) noexcept {
    owner_ = other.owner_;
    trace_id_ = other.trace_id_;
    for (size_t i = 0; i < kTraceStageCount; ++i) {
      stage_ms_[i] = other.stage_ms_[i];
    }
    other.owner_ = nullptr;
    return *this;
  }
  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  bool active() const { return owner_ != nullptr; }
  uint64_t trace_id() const { return trace_id_; }

  /// Accumulates `ms` into the stage (a re-enqueued task may wait in
  /// the queue more than once).
  void Record(TraceStage stage, double ms) {
    if (owner_ == nullptr) return;
    double& slot = stage_ms_[static_cast<size_t>(stage)];
    slot = slot < 0.0 ? ms : slot + ms;
  }

 private:
  friend class EngineTelemetry;
  void Reset() {
    owner_ = nullptr;
    trace_id_ = 0;
    for (double& ms : stage_ms_) ms = -1.0;
  }

  EngineTelemetry* owner_ = nullptr;
  uint64_t trace_id_ = 0;
  double stage_ms_[kTraceStageCount];
};

/// \brief RAII stage stopwatch: reads the clock only when the trace is
/// active, records on destruction.
class TraceStageTimer {
 public:
  TraceStageTimer(RequestTrace* trace, TraceStage stage) : stage_(stage) {
    if (trace != nullptr && trace->active()) {
      trace_ = trace;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~TraceStageTimer() {
    if (trace_ != nullptr) {
      trace_->Record(stage_,
                     std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start_)
                         .count());
    }
  }
  TraceStageTimer(const TraceStageTimer&) = delete;
  TraceStageTimer& operator=(const TraceStageTimer&) = delete;

 private:
  RequestTrace* trace_ = nullptr;
  TraceStage stage_;
  std::chrono::steady_clock::time_point start_;
};

// ------------------------------------------------------------ ε audit

/// \brief One structured spend/refusal event. Ledger ids are the
/// accountant's durable names: "session/<id>" for tenant grants,
/// "policy/<name>\x1f<version>" for policy caps (the version is baked
/// into the id, so the event pins the exact data snapshot charged).
struct AuditEvent {
  /// Ledgers one engine charge touches (session + policy cap). Generic
  /// accountant charges may name more; the event records the first
  /// kMaxLedgers.
  static constexpr size_t kMaxLedgers = 4;

  struct LedgerLine {
    std::string id;
    /// Post-charge balance (spend events) / untouched balance at the
    /// refusing ledger (refusal events), read under the shard lock.
    double remaining = 0.0;
  };

  uint64_t seq = 0;         ///< assigned at append; dense, starts at 1
  int64_t wall_micros = 0;  ///< system clock at append
  bool charged = false;     ///< spend (true) or refusal (false)
  /// kOutOfRange (budget exhausted), kNotFound (stale/closed ledger),
  /// or kUnavailableDurability (spend record could not be journaled)
  /// on refusals; kOk on spends.
  StatusCode refusal = StatusCode::kOk;
  double epsilon = 0.0;  ///< ε requested; charged to every ledger iff
                         ///< `charged`
  /// > 1 declares a parallel-composition charge covering that many
  /// disjoint-domain releases at max-ε cost; 1 = sequential.
  uint32_t parallel_count = 1;
  std::string workload;  ///< per-request label (ChargeTag::workload)
  /// Shared per-(policy, plan) description (ChargeTag::context).
  std::shared_ptr<const std::string> context;
  LedgerLine ledgers[kMaxLedgers];
  size_t num_ledgers = 0;
};

/// \brief Outcome of replaying a JSONL audit export: how many events
/// the stream carries, the seq range, and whether the dense-seq
/// invariant held across it.
struct JsonlReplayReport {
  uint64_t events = 0;          ///< well-formed event lines seen
  uint64_t first_seq = 0;       ///< 0 if the stream had no events
  uint64_t last_seq = 0;        ///< 0 if the stream had no events
  uint64_t seq_gaps = 0;        ///< discontinuities (ring drops)
  uint64_t missing_events = 0;  ///< events the gaps swallowed
  /// Malformed lines and seq regressions (duplicate / out-of-order).
  std::vector<std::string> errors;

  bool clean() const { return seq_gaps == 0 && errors.empty(); }
};

/// \brief Bounded log of audit events with a JSONL exporter. Appends
/// are serialized by the log's mutex; the accountant calls Append
/// while holding the charge's shard locks, which is what makes
/// per-ledger event order identical to spend order (shard locks order
/// strictly before this mutex).
class EpsilonAuditLog {
 public:
  /// capacity = 0 disables capture entirely (Append is one branch).
  explicit EpsilonAuditLog(size_t capacity) : log_(capacity) {}

  bool enabled() const { return log_.capacity() > 0; }
  size_t capacity() const { return log_.capacity(); }

  /// Stamps the event's seq and the system clock, then keeps it.
  void Append(AuditEvent event);

  /// Retained events, oldest first (seq order).
  std::vector<AuditEvent> Snapshot() const { return log_.Snapshot(); }
  /// Events ever appended; ring keeps the last min(total, capacity).
  uint64_t total_events() const { return log_.total(); }
  /// Events overwritten by ring wrap-around.
  uint64_t dropped() const { return log_.dropped(); }

  /// One JSON object per line, seq order, doubles exact (%.17g).
  std::string ExportJsonl() const { return log_.Jsonl(&AppendJsonl); }
  static void AppendJsonl(const AuditEvent& event, std::string* out);

  /// Walks a JSONL export and verifies the seq chain. Audit seqs are
  /// dense, so any jump means the ring wrapped between export windows
  /// (events were dropped — the `engine_audit_dropped` metric counts
  /// the same loss live); a duplicate or backwards seq means the
  /// stream was corrupted or stitched wrong, and is reported as an
  /// error rather than a gap.
  static JsonlReplayReport ReplayJsonl(std::string_view jsonl);

 private:
  BoundedLog<AuditEvent> log_;
};

// ---------------------------------------------------- flight recorder

/// \brief Which execution lane carried a request — stamped into flight
/// records so an incident dump shows where the traffic ran.
enum class FlightLane : uint8_t {
  kSync = 0,      ///< caller-thread Submit / SubmitBatch / SubmitStream
  kAsyncWarm,     ///< async warm lane worker
  kAsyncCold,     ///< async cold lane (single-flight leader)
  kAsyncStream,   ///< async stream producer
};
const char* FlightLaneName(FlightLane lane);

/// The calling thread's current lane (kSync unless inside a
/// FlightLaneScope — async workers set one around request execution).
FlightLane CurrentFlightLane();

/// \brief RAII thread-local lane marker. The async pipeline executes
/// requests through the same QueryEngine::Submit the sync path uses;
/// workers wrap execution in a scope so flight records carry the lane
/// without threading a parameter through every call.
class FlightLaneScope {
 public:
  explicit FlightLaneScope(FlightLane lane);
  ~FlightLaneScope();
  FlightLaneScope(const FlightLaneScope&) = delete;
  FlightLaneScope& operator=(const FlightLaneScope&) = delete;

 private:
  FlightLane prev_;
};

/// \brief How a flight-recorded request ended.
enum class FlightOutcome : uint8_t {
  kOk = 0,
  kRefusedBudget,      ///< kOutOfRange: a ledger could not afford ε
  kRefusedDurability,  ///< kUnavailableDurability: spend not journaled
  kFailed,             ///< any other admission/validation failure
};
const char* FlightOutcomeName(FlightOutcome outcome);

/// \brief One compact per-request record, fixed-size and POD so the
/// ring can publish it through atomic words. Tenant and policy are
/// truncated into inline buffers — the recorder never allocates.
struct FlightRecord {
  int64_t t_us = 0;        ///< wall micros at record time
  double epsilon = 0.0;    ///< ε the request asked for
  uint32_t admit_us = 0;   ///< admission (validate→charge) micros
  uint32_t total_us = 0;   ///< end-to-end micros (0 when unknown)
  FlightOutcome outcome = FlightOutcome::kOk;
  FlightLane lane = FlightLane::kSync;
  char tenant[23] = {0};   ///< NUL-terminated, truncated
  char policy[23] = {0};   ///< NUL-terminated, truncated

  void SetTenant(std::string_view v);
  void SetPolicy(std::string_view v);
};
static_assert(sizeof(FlightRecord) % sizeof(uint64_t) == 0,
              "FlightRecord must pack into whole atomic words");

/// \brief Always-on fixed-size ring of the last `capacity` request
/// records, independent of trace sampling: when something goes wrong,
/// the requests leading up to it are already captured.
///
/// Lock-free on both sides: a writer claims a slot with one
/// fetch_add, then publishes the record through the slot's atomic
/// words under a seqlock (odd seq = write in progress). Readers
/// retry/skip slots whose seq moved — under a wrap race a reader can
/// at worst skip a record, never tear one into UB or a TSan report.
/// capacity 0 disables the recorder; Record is then a single branch.
class FlightRecorder {
 public:
  /// capacity is rounded up to a power of two; 0 disables.
  explicit FlightRecorder(size_t capacity);

  bool enabled() const { return capacity_ != 0; }
  size_t capacity() const { return capacity_; }
  /// Records ever appended; ring keeps the last min(total, capacity).
  uint64_t total() const { return head_.load(std::memory_order_relaxed); }

  /// Burst detector knobs: an incident fires on the first durability
  /// refusal, or when `refusals` budget refusals land within one
  /// `window` of consecutive records.
  void ConfigureBurst(uint32_t window, uint32_t refusals);

  /// Appends one record and runs the incident detector. Returns true
  /// exactly once per recorder lifetime — on the first incident — so
  /// the owner can auto-dump the ring while it still holds the
  /// pre-incident traffic.
  bool Record(const FlightRecord& record);

  bool incident_fired() const {
    return incident_fired_.load(std::memory_order_relaxed);
  }

  /// Retained records, oldest first. Slots mid-write are skipped.
  std::vector<FlightRecord> Snapshot() const;
  /// One JSON object per line, oldest first.
  std::string DumpJsonl() const;
  static void AppendJsonl(const FlightRecord& record, std::string* out);

 private:
  static constexpr size_t kWords = sizeof(FlightRecord) / sizeof(uint64_t);
  struct Slot {
    std::atomic<uint64_t> seq{0};  ///< odd while a write is in flight
    std::atomic<uint64_t> words[kWords] = {};
  };

  size_t capacity_ = 0;  ///< power of two, or 0 = disabled
  size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};

  uint32_t burst_window_ = 256;
  uint32_t burst_refusals_ = 32;
  std::atomic<uint32_t> window_count_{0};
  std::atomic<uint32_t> window_refused_{0};
  std::atomic<bool> incident_fired_{false};
};

// ------------------------------------------------- ε burn-rate alerts

/// \brief One structured burn-rate alert: a ledger whose current spend
/// rate projects exhaustion within the configured horizon (fired), or
/// whose rate has dropped back below it (cleared). Produced by
/// BudgetAccountant under the same shard locks that order audit
/// events, so alerts interleave consistently with the spends that
/// caused them.
struct BurnAlert {
  uint64_t seq = 0;         ///< assigned at append; dense, starts at 1
  int64_t wall_micros = 0;  ///< clock at the triggering spend
  bool fired = true;        ///< fired (true) or cleared (false)
  std::string ledger_id;    ///< accountant's durable ledger name
  double remaining = 0.0;   ///< post-charge balance at the trigger
  double fast_rate = 0.0;   ///< ε/s over the fast window
  double slow_rate = 0.0;   ///< ε/s over the slow window
  double projected_s = 0.0; ///< seconds to exhaustion at the fast rate
};

/// \brief Bounded log of burn alerts with JSONL export — the audit
/// log's shape, for rate alerts. Appends come from the accountant
/// while it holds the charge's shard locks (shard locks order before
/// the log's mutex, like the audit log's).
class BurnAlertLog {
 public:
  /// capacity = 0 disables capture (Append still counts fired/active).
  explicit BurnAlertLog(size_t capacity) : log_(capacity) {}

  bool enabled() const { return log_.capacity() > 0; }
  size_t capacity() const { return log_.capacity(); }

  /// Counts the transition, then keeps the alert with its seq stamped
  /// and its wall_micros (the trigger's clock) clamped non-decreasing.
  void Append(BurnAlert alert);

  /// Retained alerts, oldest first (seq order).
  std::vector<BurnAlert> Snapshot() const { return log_.Snapshot(); }
  uint64_t total() const { return log_.total(); }
  /// Alerts that fired (lifetime count — the alert counter metric).
  uint64_t fired_total() const {
    return fired_.load(std::memory_order_relaxed);
  }
  /// Ledgers currently in the alerting state (fired minus cleared).
  int64_t active() const { return active_.load(std::memory_order_relaxed); }

  /// One JSON object per line, seq order, doubles exact (%.17g).
  std::string ExportJsonl() const { return log_.Jsonl(&AppendJsonl); }
  static void AppendJsonl(const BurnAlert& alert, std::string* out);

 private:
  BoundedLog<BurnAlert> log_;
  std::atomic<uint64_t> fired_{0};
  std::atomic<int64_t> active_{0};
};

// ------------------------------------------------------------- facade

/// \brief Per-engine bundle: the registry, the audit log, the trace
/// sampler, and the bounded ring of completed traces. Owned by
/// QueryEngine; AsyncQueryEngine registers its lane metrics into the
/// same registry so one snapshot covers the whole pipeline.
class EngineTelemetry {
 public:
  /// Completed sampled traces kept for TracesJsonl().
  static constexpr size_t kTraceRingCapacity = 256;

  EngineTelemetry(double trace_sample_rate, size_t audit_capacity,
                  size_t flight_capacity = 0,
                  size_t burn_alert_capacity = 0);

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  EpsilonAuditLog& audit() { return audit_; }
  const EpsilonAuditLog& audit() const { return audit_; }
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }
  BurnAlertLog& burn_alerts() { return burn_alerts_; }
  const BurnAlertLog& burn_alerts() const { return burn_alerts_; }

  /// Per-submit sampling decision. Rate 0: one member load, returns an
  /// inactive span — no clock, no atomics, no allocation. Rate r > 0:
  /// every round(1/r)-th submit gets an active span.
  RequestTrace MaybeStartTrace();

  /// Records the span's stages into the per-stage histograms, appends
  /// a TraceRecord to the ring, and deactivates the span. No-op for
  /// inactive spans.
  void FinishTrace(RequestTrace* trace, bool ok);

  /// The per-stage histogram (registered as
  /// `engine_stage_<name>_ms`) — async components record waits into
  /// these directly for *every* request, sampled or not, since the
  /// timestamps already exist on their paths.
  LatencyHistogram* stage_histogram(TraceStage stage) {
    return stage_hist_[static_cast<size_t>(stage)];
  }

  /// Completed sampled traces, oldest first.
  std::vector<TraceRecord> SnapshotTraces() const {
    return traces_.Snapshot();
  }
  /// JSONL: one {"trace_id", "t_us", "ok", "stages": {...}} per line.
  std::string TracesJsonl() const;

  /// Sampled traces ever finished into the ring.
  uint64_t trace_total() const { return traces_.total(); }
  /// Traces overwritten by ring wrap-around (the data loss the
  /// `engine_trace_dropped` metric exposes to scrapers).
  uint64_t trace_dropped() const { return traces_.dropped(); }

 private:
  MetricsRegistry metrics_;
  EpsilonAuditLog audit_;
  FlightRecorder flight_;
  BurnAlertLog burn_alerts_;

  const uint64_t sample_every_;  ///< 0 = tracing off
  std::atomic<uint64_t> sample_clock_{0};
  std::atomic<uint64_t> next_trace_id_{0};
  LatencyHistogram* stage_hist_[kTraceStageCount];
  BoundedLog<TraceRecord> traces_{kTraceRingCapacity};
};

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_TELEMETRY_H_
