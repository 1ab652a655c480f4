#include "engine/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace blowfish {

namespace {

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void AppendU64(uint64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void AppendI64(int64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out->append(buf);
}

/// Prometheus label-value escape (exposition format): backslash,
/// double quote, and newline get backslash escapes; everything else
/// passes through verbatim.
void AppendPromLabelValue(std::string_view s, std::string* out) {
  for (const char c : s) {
    switch (c) {
      case '\\': out->append("\\\\"); break;
      case '"': out->append("\\\""); break;
      case '\n': out->append("\\n"); break;
      default: out->push_back(c);
    }
  }
}

/// Prometheus HELP-text escape: backslash and newline only (quotes
/// are legal in help text).
void AppendPromHelp(std::string_view s, std::string* out) {
  for (const char c : s) {
    switch (c) {
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      default: out->push_back(c);
    }
  }
}

/// `# HELP name text` + `# TYPE name type` — every exposition family
/// gets both lines (promtool-style checkers require TYPE before any
/// sample and want HELP present; an unset help falls back to the
/// metric name so the line is never empty).
void AppendPromHeader(const std::string& name, const std::string& help,
                      const char* type, std::string* out) {
  out->append("# HELP ").append(name).append(" ");
  AppendPromHelp(help.empty() ? std::string_view(name)
                              : std::string_view(help),
                 out);
  out->append("\n# TYPE ").append(name).append(" ").append(type).append("\n");
}

}  // namespace

void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendDouble(double v, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

// ---------------------------------------------------------- histogram

void LatencyHistogram::Record(double ms) {
  const uint64_t us = ms <= 0.0 ? 0 : static_cast<uint64_t>(ms * 1000.0);
  const size_t bucket =
      us == 0 ? 0 : std::min<size_t>(kBuckets - 1, 64 - __builtin_clzll(us));
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_ms_.load(std::memory_order_relaxed);
  while (!sum_ms_.compare_exchange_weak(sum, sum + (ms > 0.0 ? ms : 0.0),
                                        std::memory_order_relaxed)) {
  }
  uint64_t prev = max_us_.load(std::memory_order_relaxed);
  while (prev < us &&
         !max_us_.compare_exchange_weak(prev, us, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot out;
  uint64_t counts[kBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  out.count = total;
  out.sum_ms = sum_ms_.load(std::memory_order_relaxed);
  out.max_ms =
      static_cast<double>(max_us_.load(std::memory_order_relaxed)) / 1000.0;
  if (total == 0) return out;
  const auto percentile = [&](double q) {
    uint64_t rank =
        static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
    if (rank == 0) rank = 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts[i];
      if (seen >= rank) {
        // Bucket i holds microsecond values with bit width i, so its
        // upper bound is 2^i µs; report ~2x-resolution upper bounds
        // clamped to the exact observed max.
        const double upper_ms =
            static_cast<double>(i >= 63 ? ~0ull : (1ull << i)) / 1000.0;
        return std::min(upper_ms, out.max_ms);
      }
    }
    return out.max_ms;
  };
  out.p50_ms = percentile(0.50);
  out.p99_ms = percentile(0.99);
  return out;
}

uint64_t LatencyHistogram::CumulativeBuckets(uint64_t out[kBuckets]) const {
  uint64_t running = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    running += buckets_[i].load(std::memory_order_relaxed);
    out[i] = running;
  }
  return running;
}

// ----------------------------------------------------------- registry

bool MetricsRegistry::EntryIsEmpty(const Entry& entry) {
  return entry.counter == nullptr && entry.double_counter == nullptr &&
         entry.gauge == nullptr && entry.histogram == nullptr &&
         entry.callback == nullptr && entry.counter_family == nullptr &&
         entry.double_counter_family == nullptr &&
         entry.histogram_family == nullptr;
}

bool MetricsRegistry::IsCounter(const Entry& entry) {
  return entry.counter != nullptr || entry.double_counter != nullptr ||
         (entry.callback != nullptr && entry.callback_is_counter);
}

void MetricsRegistry::AppendScalarValue(const Entry& entry, std::string* out) {
  if (entry.counter != nullptr) {
    AppendU64(entry.counter->value(), out);
  } else if (entry.double_counter != nullptr) {
    AppendDouble(entry.double_counter->value(), out);
  } else if (entry.gauge != nullptr) {
    AppendI64(entry.gauge->value(), out);
  } else {
    AppendDouble(entry.callback(), out);
  }
}

template <typename M, typename... Args>
M* MetricsRegistry::GetOrCreate(const std::string& name, std::string_view help,
                                std::unique_ptr<M> Entry::*member,
                                Args&&... args) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  std::unique_ptr<M>& metric = entry.*member;
  if (metric == nullptr) {
    BF_CHECK_MSG(EntryIsEmpty(entry),
                 "metric '" << name << "' registered with another type");
    metric = std::make_unique<M>(std::forward<Args>(args)...);
  }
  if (entry.help.empty()) entry.help.assign(help.data(), help.size());
  return metric.get();
}

Counter* MetricsRegistry::counter(const std::string& name,
                                  std::string_view help) {
  return GetOrCreate(name, help, &Entry::counter);
}

DoubleCounter* MetricsRegistry::double_counter(const std::string& name,
                                               std::string_view help) {
  return GetOrCreate(name, help, &Entry::double_counter);
}

Gauge* MetricsRegistry::gauge(const std::string& name, std::string_view help) {
  return GetOrCreate(name, help, &Entry::gauge);
}

LatencyHistogram* MetricsRegistry::histogram(const std::string& name,
                                             std::string_view help) {
  return GetOrCreate(name, help, &Entry::histogram);
}

CounterFamily* MetricsRegistry::counter_family(
    const std::string& name, std::vector<std::string> label_names,
    size_t max_series, std::string_view help) {
  return GetOrCreate(name, help, &Entry::counter_family,
                     std::move(label_names), max_series);
}

DoubleCounterFamily* MetricsRegistry::double_counter_family(
    const std::string& name, std::vector<std::string> label_names,
    size_t max_series, std::string_view help) {
  return GetOrCreate(name, help, &Entry::double_counter_family,
                     std::move(label_names), max_series);
}

HistogramFamily* MetricsRegistry::histogram_family(
    const std::string& name, std::vector<std::string> label_names,
    size_t max_series, std::string_view help) {
  return GetOrCreate(name, help, &Entry::histogram_family,
                     std::move(label_names), max_series);
}

void MetricsRegistry::RegisterCallback(const std::string& name,
                                       std::function<double()> fn,
                                       std::string_view help,
                                       bool is_counter) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  // Re-registering a callback of the same kind replaces it.
  BF_CHECK_MSG(EntryIsEmpty(entry) || (entry.callback != nullptr &&
                                       entry.callback_is_counter == is_counter),
               "metric '" << name << "' registered with another type");
  entry.callback = std::move(fn);
  entry.callback_is_counter = is_counter;
  if (entry.help.empty()) entry.help.assign(help.data(), help.size());
}

bool MetricsRegistry::TryReadValue(const std::string& name,
                                   double* out) const {
  std::function<double()> callback;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) return false;
    const Entry& entry = it->second;
    if (entry.counter != nullptr) {
      *out = static_cast<double>(entry.counter->value());
    } else if (entry.double_counter != nullptr) {
      *out = entry.double_counter->value();
    } else if (entry.gauge != nullptr) {
      *out = static_cast<double>(entry.gauge->value());
    } else if (entry.callback != nullptr) {
      callback = entry.callback;
    } else {
      return false;
    }
  }
  // The callback may take its component's locks, so it runs outside
  // the registry mutex.
  if (callback != nullptr) *out = callback();
  return true;
}

namespace {

/// The JSON labels object for one family series
/// (`{"policy":"p","tenant":"t"}`).
void AppendJsonLabels(const std::vector<std::string>& label_names,
                      const std::string* const values[], std::string* out) {
  out->append("{");
  for (size_t i = 0; i < label_names.size() && i < 2; ++i) {
    if (i > 0) out->append(",");
    AppendJsonString(label_names[i], out);
    out->append(":");
    AppendJsonString(*values[i], out);
  }
  out->append("}");
}

/// One family series' fields after its labels: `"value":…` for the
/// counters, the five summary fields for a histogram.
void AppendJsonFields(const Counter& counter, std::string* out) {
  out->append("\"value\":");
  AppendU64(counter.value(), out);
}

void AppendJsonFields(const DoubleCounter& counter, std::string* out) {
  out->append("\"value\":");
  AppendDouble(counter.value(), out);
}

void AppendJsonFields(const LatencyHistogram& histogram, std::string* out) {
  const HistogramSnapshot snap = histogram.Snapshot();
  out->append("\"count\":");
  AppendU64(snap.count, out);
  out->append(",\"sum_ms\":");
  AppendDouble(snap.sum_ms, out);
  out->append(",\"p50_ms\":");
  AppendDouble(snap.p50_ms, out);
  out->append(",\"p99_ms\":");
  AppendDouble(snap.p99_ms, out);
  out->append(",\"max_ms\":");
  AppendDouble(snap.max_ms, out);
}

}  // namespace

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string counters;
  std::string gauges;
  std::string histograms;
  std::string families;
  // Opens `"name":` in a comma-separated section.
  const auto open_key = [](const std::string& name, std::string* section) {
    if (!section->empty()) section->append(",");
    AppendJsonString(name, section);
    section->append(":");
  };
  const auto append_family = [&families](const auto& family) {
    families.append("[");
    bool first = true;
    for (const auto& series : family.Snapshot()) {
      if (!first) families.append(",");
      first = false;
      families.append("{\"labels\":");
      AppendJsonLabels(family.label_names(), series.values, &families);
      families.append(",");
      AppendJsonFields(*series.metric, &families);
      families.append("}");
    }
    families.append("]");
  };
  // entries_ is an ordered map, so the exposition is deterministic.
  for (const auto& [name, entry] : entries_) {
    if (entry.counter_family != nullptr) {
      open_key(name, &families);
      append_family(*entry.counter_family);
    } else if (entry.double_counter_family != nullptr) {
      open_key(name, &families);
      append_family(*entry.double_counter_family);
    } else if (entry.histogram_family != nullptr) {
      open_key(name, &families);
      append_family(*entry.histogram_family);
    } else if (entry.histogram != nullptr) {
      open_key(name, &histograms);
      histograms.append("{");
      AppendJsonFields(*entry.histogram, &histograms);
      histograms.append("}");
    } else {
      std::string* section = IsCounter(entry) ? &counters : &gauges;
      open_key(name, section);
      AppendScalarValue(entry, section);
    }
  }
  std::string out = "{\"counters\":{";
  out.append(counters);
  out.append("},\"gauges\":{");
  out.append(gauges);
  out.append("},\"histograms\":{");
  out.append(histograms);
  out.append("},\"families\":{");
  out.append(families);
  out.append("}}");
  return out;
}

namespace {

/// One family series' sample line(s). `selector` is the
/// already-escaped `label="value",...` list (may be empty).
void AppendPromSeries(const std::string& name, const std::string& selector,
                      const Counter& counter, std::string* out) {
  out->append(name).append("{").append(selector).append("} ");
  AppendU64(counter.value(), out);
  out->append("\n");
}

void AppendPromSeries(const std::string& name, const std::string& selector,
                      const DoubleCounter& counter, std::string* out) {
  out->append(name).append("{").append(selector).append("} ");
  AppendDouble(counter.value(), out);
  out->append("\n");
}

/// A histogram's cumulative bucket / sum / count block; the bucket
/// lines merge le into `selector`.
void AppendPromSeries(const std::string& name, const std::string& selector,
                      const LatencyHistogram& histogram, std::string* out) {
  uint64_t cumulative[LatencyHistogram::kBuckets];
  const uint64_t total = histogram.CumulativeBuckets(cumulative);
  const HistogramSnapshot snap = histogram.Snapshot();
  uint64_t last = 0;
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    // Only emit buckets that add information (the log2 ladder is 40
    // rungs; quiet histograms would otherwise dominate the
    // exposition). The +Inf bucket always closes the series, and the
    // emitted subsequence stays cumulative non-decreasing because it
    // is a subsequence of a cumulative series.
    if (cumulative[i] == last && i + 1 < LatencyHistogram::kBuckets) {
      continue;
    }
    last = cumulative[i];
    out->append(name).append("_bucket{").append(selector);
    if (!selector.empty()) out->append(",");
    out->append("le=\"");
    AppendDouble(static_cast<double>(1ull << i) / 1000.0, out);
    out->append("\"} ");
    AppendU64(cumulative[i], out);
    out->append("\n");
  }
  out->append(name).append("_bucket{").append(selector);
  if (!selector.empty()) out->append(",");
  out->append("le=\"+Inf\"} ");
  AppendU64(total, out);
  out->append("\n");
  out->append(name).append("_sum");
  if (!selector.empty()) out->append("{").append(selector).append("}");
  out->append(" ");
  AppendDouble(snap.sum_ms, out);
  out->append("\n");
  out->append(name).append("_count");
  if (!selector.empty()) out->append("{").append(selector).append("}");
  out->append(" ");
  AppendU64(total, out);
  out->append("\n");
}

/// The escaped `label="value",...` selector for one family series.
void BuildPromSelector(const std::vector<std::string>& label_names,
                       const std::string* const values[],
                       std::string* selector) {
  selector->clear();
  for (size_t i = 0; i < label_names.size() && i < 2; ++i) {
    if (i > 0) selector->append(",");
    selector->append(label_names[i]).append("=\"");
    AppendPromLabelValue(*values[i], selector);
    selector->append("\"");
  }
}

}  // namespace

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::string selector;
  const auto append_family = [&](const std::string& name, const Entry& entry,
                                 const char* type, const auto& family) {
    AppendPromHeader(name, entry.help, type, &out);
    for (const auto& series : family.Snapshot()) {
      BuildPromSelector(family.label_names(), series.values, &selector);
      AppendPromSeries(name, selector, *series.metric, &out);
    }
  };
  for (const auto& [name, entry] : entries_) {
    if (entry.counter_family != nullptr) {
      append_family(name, entry, "counter", *entry.counter_family);
    } else if (entry.double_counter_family != nullptr) {
      append_family(name, entry, "counter", *entry.double_counter_family);
    } else if (entry.histogram_family != nullptr) {
      append_family(name, entry, "histogram", *entry.histogram_family);
    } else if (entry.histogram != nullptr) {
      AppendPromHeader(name, entry.help, "histogram", &out);
      AppendPromSeries(name, /*selector=*/"", *entry.histogram, &out);
    } else {
      AppendPromHeader(name, entry.help, IsCounter(entry) ? "counter" : "gauge",
                       &out);
      out.append(name).append(" ");
      AppendScalarValue(entry, &out);
      out.append("\n");
    }
  }
  return out;
}

// ------------------------------------------------------------ tracing

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kValidate: return "validate";
    case TraceStage::kResolve: return "resolve";
    case TraceStage::kPlan: return "plan";
    case TraceStage::kCharge: return "charge";
    case TraceStage::kRelease: return "release";
    case TraceStage::kQueueWait: return "queue_wait";
    case TraceStage::kColdCoalesceWait: return "cold_coalesce_wait";
    case TraceStage::kStreamPark: return "stream_park";
    case TraceStage::kCount: break;
  }
  return "?";
}

// ------------------------------------------------------------ ε audit

void EpsilonAuditLog::Append(AuditEvent event) {
  if (!enabled()) return;
  event.wall_micros = WallMicros();
  log_.Append(std::move(event));
}

void EpsilonAuditLog::AppendJsonl(const AuditEvent& event, std::string* out) {
  out->append("{\"seq\":");
  AppendU64(event.seq, out);
  out->append(",\"t_us\":");
  AppendI64(event.wall_micros, out);
  out->append(",\"outcome\":");
  out->append(event.charged ? "\"charged\"" : "\"refused\"");
  if (!event.charged) {
    out->append(",\"refusal\":");
    switch (event.refusal) {
      case StatusCode::kOutOfRange:
        out->append("\"budget_exhausted\"");
        break;
      case StatusCode::kUnavailableDurability:
        out->append("\"durability_unavailable\"");
        break;
      default:
        out->append("\"ledger_closed\"");
        break;
    }
  }
  out->append(",\"eps\":");
  AppendDouble(event.epsilon, out);
  out->append(",\"composition\":");
  out->append(event.parallel_count > 1 ? "\"parallel\"" : "\"sequential\"");
  if (event.parallel_count > 1) {
    out->append(",\"parallel_count\":");
    AppendU64(event.parallel_count, out);
  }
  out->append(",\"workload\":");
  AppendJsonString(event.workload, out);
  if (event.context != nullptr) {
    out->append(",\"context\":");
    AppendJsonString(*event.context, out);
  }
  out->append(",\"ledgers\":[");
  for (size_t i = 0; i < event.num_ledgers; ++i) {
    if (i > 0) out->append(",");
    out->append("{\"id\":");
    AppendJsonString(event.ledgers[i].id, out);
    out->append(",\"remaining\":");
    AppendDouble(event.ledgers[i].remaining, out);
    out->append("}");
  }
  out->append("]}\n");
}

JsonlReplayReport EpsilonAuditLog::ReplayJsonl(std::string_view jsonl) {
  JsonlReplayReport report;
  static constexpr std::string_view kSeqPrefix = "{\"seq\":";
  size_t pos = 0;
  size_t line_no = 0;
  while (pos < jsonl.size()) {
    ++line_no;
    size_t eol = jsonl.find('\n', pos);
    if (eol == std::string_view::npos) eol = jsonl.size();
    const std::string_view line = jsonl.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    // AppendJsonl always emits seq as the first field, so a bounded
    // prefix parse is exact — no JSON parser needed.
    uint64_t seq = 0;
    size_t digits = 0;
    if (line.substr(0, kSeqPrefix.size()) == kSeqPrefix) {
      size_t i = kSeqPrefix.size();
      while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
        seq = seq * 10 + static_cast<uint64_t>(line[i] - '0');
        ++i;
        ++digits;
      }
    }
    if (digits == 0) {
      report.errors.push_back("line " + std::to_string(line_no) +
                              ": malformed event (no leading seq field)");
      continue;
    }
    ++report.events;
    if (report.first_seq == 0) report.first_seq = seq;
    if (report.last_seq != 0) {
      if (seq <= report.last_seq) {
        report.errors.push_back("line " + std::to_string(line_no) + ": seq " +
                                std::to_string(seq) +
                                " not after previous seq " +
                                std::to_string(report.last_seq) +
                                " (duplicate or out-of-order event)");
        continue;
      }
      if (seq != report.last_seq + 1) {
        ++report.seq_gaps;
        report.missing_events += seq - report.last_seq - 1;
      }
    }
    report.last_seq = seq;
  }
  return report;
}

// ---------------------------------------------------- flight recorder

namespace {
thread_local FlightLane g_flight_lane = FlightLane::kSync;
}  // namespace

const char* FlightLaneName(FlightLane lane) {
  switch (lane) {
    case FlightLane::kSync: return "sync";
    case FlightLane::kAsyncWarm: return "async_warm";
    case FlightLane::kAsyncCold: return "async_cold";
    case FlightLane::kAsyncStream: return "async_stream";
  }
  return "?";
}

FlightLane CurrentFlightLane() { return g_flight_lane; }

FlightLaneScope::FlightLaneScope(FlightLane lane) : prev_(g_flight_lane) {
  g_flight_lane = lane;
}

FlightLaneScope::~FlightLaneScope() { g_flight_lane = prev_; }

const char* FlightOutcomeName(FlightOutcome outcome) {
  switch (outcome) {
    case FlightOutcome::kOk: return "ok";
    case FlightOutcome::kRefusedBudget: return "refused_budget";
    case FlightOutcome::kRefusedDurability: return "refused_durability";
    case FlightOutcome::kFailed: return "failed";
  }
  return "?";
}

namespace {
void CopyTruncated(std::string_view v, char* dst, size_t dst_size) {
  const size_t n = std::min(v.size(), dst_size - 1);
  std::memcpy(dst, v.data(), n);
  dst[n] = '\0';
}
}  // namespace

void FlightRecord::SetTenant(std::string_view v) {
  CopyTruncated(v, tenant, sizeof(tenant));
}

void FlightRecord::SetPolicy(std::string_view v) {
  CopyTruncated(v, policy, sizeof(policy));
}

FlightRecorder::FlightRecorder(size_t capacity) {
  if (capacity == 0) return;
  capacity_ = 1;
  while (capacity_ < capacity) capacity_ <<= 1;
  mask_ = capacity_ - 1;
  slots_ = std::make_unique<Slot[]>(capacity_);
}

void FlightRecorder::ConfigureBurst(uint32_t window, uint32_t refusals) {
  burst_window_ = std::max<uint32_t>(1, window);
  burst_refusals_ = std::max<uint32_t>(1, refusals);
}

bool FlightRecorder::Record(const FlightRecord& record) {
  if (capacity_ == 0) return false;
  // Pack the POD record into whole words (it is trivially copyable
  // and word-multiple by the static_assert).
  uint64_t words[kWords];
  std::memcpy(words, &record, sizeof(record));
  const uint64_t index = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[static_cast<size_t>(index) & mask_];
  // Seqlock write: odd while in flight. Under an extreme wrap race two
  // writers can interleave on one slot; readers then see a seq
  // mismatch (or an odd seq) and skip the record — a one-slot hole in
  // a diagnostic ring, never a torn read.
  // Release word stores: a reader whose acquire load sees a new word
  // also sees the odd seq stored before it, so its recheck fails.
  const uint64_t seq = slot.seq.fetch_add(1, std::memory_order_acq_rel);
  for (size_t w = 0; w < kWords; ++w) {
    slot.words[w].store(words[w], std::memory_order_release);
  }
  slot.seq.store(seq + 2, std::memory_order_release);

  // Incident detection: refusal bursts inside a sliding window of
  // consecutive records, durability refusals immediately. Counter
  // resets race benignly (a burst straddling a reset needs a few more
  // refusals to fire — detection, not accounting).
  bool incident = record.outcome == FlightOutcome::kRefusedDurability;
  const uint32_t seen = window_count_.fetch_add(1, std::memory_order_relaxed);
  if (record.outcome == FlightOutcome::kRefusedBudget) {
    const uint32_t refused =
        window_refused_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (refused >= burst_refusals_) incident = true;
  }
  if (seen + 1 >= burst_window_) {
    window_count_.store(0, std::memory_order_relaxed);
    window_refused_.store(0, std::memory_order_relaxed);
  }
  return incident &&
         !incident_fired_.exchange(true, std::memory_order_relaxed);
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::vector<FlightRecord> out;
  if (capacity_ == 0) return out;
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t first = head > capacity_ ? head - capacity_ : 0;
  out.reserve(static_cast<size_t>(head - first));
  for (uint64_t i = first; i < head; ++i) {
    const Slot& slot = slots_[static_cast<size_t>(i) & mask_];
    FlightRecord record;
    bool valid = false;
    for (int attempt = 0; attempt < 3 && !valid; ++attempt) {
      const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 & 1) continue;  // write in flight
      // Acquire word loads keep the seq recheck after them (no fence:
      // TSan does not model atomic_thread_fence).
      uint64_t words[kWords];
      for (size_t w = 0; w < kWords; ++w) {
        words[w] = slot.words[w].load(std::memory_order_acquire);
      }
      if (slot.seq.load(std::memory_order_relaxed) != s1) continue;
      std::memcpy(&record, words, sizeof(record));
      valid = s1 != 0;  // seq 0 = never written
    }
    if (!valid) continue;
    // Defensive NUL termination: a skewed read may carry any bytes.
    record.tenant[sizeof(record.tenant) - 1] = '\0';
    record.policy[sizeof(record.policy) - 1] = '\0';
    out.push_back(record);
  }
  return out;
}

void FlightRecorder::AppendJsonl(const FlightRecord& record,
                                 std::string* out) {
  out->append("{\"t_us\":");
  AppendI64(record.t_us, out);
  out->append(",\"tenant\":");
  AppendJsonString(record.tenant, out);
  out->append(",\"policy\":");
  AppendJsonString(record.policy, out);
  out->append(",\"lane\":\"");
  out->append(FlightLaneName(record.lane));
  out->append("\",\"outcome\":\"");
  out->append(FlightOutcomeName(record.outcome));
  out->append("\",\"eps\":");
  AppendDouble(record.epsilon, out);
  out->append(",\"admit_us\":");
  AppendU64(record.admit_us, out);
  out->append(",\"total_us\":");
  AppendU64(record.total_us, out);
  out->append("}\n");
}

std::string FlightRecorder::DumpJsonl() const {
  std::string out;
  for (const FlightRecord& record : Snapshot()) {
    AppendJsonl(record, &out);
  }
  return out;
}

// ------------------------------------------------- ε burn-rate alerts

void BurnAlertLog::Append(BurnAlert alert) {
  if (alert.fired) {
    fired_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
  } else {
    active_.fetch_sub(1, std::memory_order_relaxed);
  }
  log_.Append(std::move(alert));
}

void BurnAlertLog::AppendJsonl(const BurnAlert& alert, std::string* out) {
  out->append("{\"seq\":");
  AppendU64(alert.seq, out);
  out->append(",\"t_us\":");
  AppendI64(alert.wall_micros, out);
  out->append(",\"kind\":");
  out->append(alert.fired ? "\"fired\"" : "\"cleared\"");
  out->append(",\"ledger\":");
  AppendJsonString(alert.ledger_id, out);
  out->append(",\"remaining\":");
  AppendDouble(alert.remaining, out);
  out->append(",\"fast_rate\":");
  AppendDouble(alert.fast_rate, out);
  out->append(",\"slow_rate\":");
  AppendDouble(alert.slow_rate, out);
  out->append(",\"projected_s\":");
  AppendDouble(alert.projected_s, out);
  out->append("}\n");
}

// ------------------------------------------------------------- facade

EngineTelemetry::EngineTelemetry(double trace_sample_rate,
                                 size_t audit_capacity,
                                 size_t flight_capacity,
                                 size_t burn_alert_capacity)
    : audit_(audit_capacity),
      flight_(flight_capacity),
      burn_alerts_(burn_alert_capacity),
      sample_every_(trace_sample_rate <= 0.0
                        ? 0
                        : std::max<uint64_t>(
                              1, static_cast<uint64_t>(
                                     std::llround(1.0 / std::min(
                                                            1.0,
                                                            trace_sample_rate))))) {
  for (size_t i = 0; i < kTraceStageCount; ++i) {
    stage_hist_[i] = metrics_.histogram(
        std::string("engine_stage_") +
        TraceStageName(static_cast<TraceStage>(i)) + "_ms");
  }
}

RequestTrace EngineTelemetry::MaybeStartTrace() {
  RequestTrace trace;
  if (sample_every_ == 0) return trace;
  const uint64_t n = sample_clock_.fetch_add(1, std::memory_order_relaxed);
  if (n % sample_every_ != 0) return trace;
  trace.owner_ = this;
  trace.trace_id_ = next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  return trace;
}

void EngineTelemetry::FinishTrace(RequestTrace* trace, bool ok) {
  if (trace == nullptr || !trace->active()) return;
  TraceRecord record;
  record.trace_id = trace->trace_id_;
  record.ok = ok;
  for (size_t i = 0; i < kTraceStageCount; ++i) {
    record.stage_ms[i] = trace->stage_ms_[i];
    if (record.stage_ms[i] >= 0.0) {
      stage_hist_[i]->Record(record.stage_ms[i]);
    }
  }
  trace->Reset();
  record.wall_micros = WallMicros();
  traces_.Append(std::move(record));
}

std::string EngineTelemetry::TracesJsonl() const {
  return traces_.Jsonl([](const TraceRecord& record, std::string* out) {
    out->append("{\"trace_id\":");
    AppendU64(record.trace_id, out);
    out->append(",\"t_us\":");
    AppendI64(record.wall_micros, out);
    out->append(",\"ok\":");
    out->append(record.ok ? "true" : "false");
    out->append(",\"stages\":{");
    bool first = true;
    for (size_t i = 0; i < kTraceStageCount; ++i) {
      if (record.stage_ms[i] < 0.0) continue;
      if (!first) out->append(",");
      first = false;
      AppendJsonString(TraceStageName(static_cast<TraceStage>(i)), out);
      out->append(":");
      AppendDouble(record.stage_ms[i], out);
    }
    out->append("}}\n");
  });
}

}  // namespace blowfish
