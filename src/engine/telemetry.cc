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

/// %.17g: the shortest printf format guaranteed to round-trip an IEEE
/// double exactly — the audit log's balances must reconcile bit-level
/// after a JSONL round trip.
void AppendDouble(double v, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
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

/// Minimal JSON string escape (quotes, backslash, control characters —
/// policy ledger ids embed '\x1f').
void AppendJsonString(const std::string& s, std::string* out) {
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

bool MetricsRegistry::EntryIsEmpty(const Entry& entry) const {
  return entry.counter == nullptr && entry.double_counter == nullptr &&
         entry.gauge == nullptr && entry.histogram == nullptr &&
         entry.callback == nullptr && entry.counter_family == nullptr &&
         entry.double_counter_family == nullptr &&
         entry.histogram_family == nullptr;
}

Counter* MetricsRegistry::counter(const std::string& name,
                                  std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  if (entry.counter == nullptr) {
    BF_CHECK_MSG(EntryIsEmpty(entry),
                 "metric '" << name << "' registered with another type");
    entry.counter = std::make_unique<Counter>();
  }
  if (entry.help.empty()) entry.help.assign(help.data(), help.size());
  return entry.counter.get();
}

DoubleCounter* MetricsRegistry::double_counter(const std::string& name,
                                               std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  if (entry.double_counter == nullptr) {
    BF_CHECK_MSG(EntryIsEmpty(entry),
                 "metric '" << name << "' registered with another type");
    entry.double_counter = std::make_unique<DoubleCounter>();
  }
  if (entry.help.empty()) entry.help.assign(help.data(), help.size());
  return entry.double_counter.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  if (entry.gauge == nullptr) {
    BF_CHECK_MSG(EntryIsEmpty(entry),
                 "metric '" << name << "' registered with another type");
    entry.gauge = std::make_unique<Gauge>();
  }
  if (entry.help.empty()) entry.help.assign(help.data(), help.size());
  return entry.gauge.get();
}

LatencyHistogram* MetricsRegistry::histogram(const std::string& name,
                                             std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  if (entry.histogram == nullptr) {
    BF_CHECK_MSG(EntryIsEmpty(entry),
                 "metric '" << name << "' registered with another type");
    entry.histogram = std::make_unique<LatencyHistogram>();
  }
  if (entry.help.empty()) entry.help.assign(help.data(), help.size());
  return entry.histogram.get();
}

void MetricsRegistry::gauge_callback(const std::string& name,
                                     std::function<double()> fn,
                                     std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  BF_CHECK_MSG(entry.counter == nullptr && entry.double_counter == nullptr &&
                   entry.gauge == nullptr && entry.histogram == nullptr &&
                   entry.counter_family == nullptr &&
                   entry.double_counter_family == nullptr &&
                   entry.histogram_family == nullptr,
               "metric '" << name << "' registered with another type");
  entry.callback = std::move(fn);
  if (entry.help.empty()) entry.help.assign(help.data(), help.size());
}

CounterFamily* MetricsRegistry::counter_family(
    const std::string& name, std::vector<std::string> label_names,
    size_t max_series, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  if (entry.counter_family == nullptr) {
    BF_CHECK_MSG(EntryIsEmpty(entry),
                 "metric '" << name << "' registered with another type");
    entry.counter_family =
        std::make_unique<CounterFamily>(std::move(label_names), max_series);
  }
  if (entry.help.empty()) entry.help.assign(help.data(), help.size());
  return entry.counter_family.get();
}

DoubleCounterFamily* MetricsRegistry::double_counter_family(
    const std::string& name, std::vector<std::string> label_names,
    size_t max_series, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  if (entry.double_counter_family == nullptr) {
    BF_CHECK_MSG(EntryIsEmpty(entry),
                 "metric '" << name << "' registered with another type");
    entry.double_counter_family = std::make_unique<DoubleCounterFamily>(
        std::move(label_names), max_series);
  }
  if (entry.help.empty()) entry.help.assign(help.data(), help.size());
  return entry.double_counter_family.get();
}

HistogramFamily* MetricsRegistry::histogram_family(
    const std::string& name, std::vector<std::string> label_names,
    size_t max_series, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  if (entry.histogram_family == nullptr) {
    BF_CHECK_MSG(EntryIsEmpty(entry),
                 "metric '" << name << "' registered with another type");
    entry.histogram_family =
        std::make_unique<HistogramFamily>(std::move(label_names), max_series);
  }
  if (entry.help.empty()) entry.help.assign(help.data(), help.size());
  return entry.histogram_family.get();
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
      return true;
    }
    if (entry.double_counter != nullptr) {
      *out = entry.double_counter->value();
      return true;
    }
    if (entry.gauge != nullptr) {
      *out = static_cast<double>(entry.gauge->value());
      return true;
    }
    if (entry.callback == nullptr) return false;
    callback = entry.callback;
  }
  // The callback may take its component's locks; run it outside the
  // registry mutex like the snapshotting paths do not — those hold
  // mu_, which is fine because callbacks never re-enter the registry;
  // copying out here keeps this reader just as safe with less nesting.
  *out = callback();
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

}  // namespace

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string counters;
  std::string gauges;
  std::string histograms;
  std::string families;
  // entries_ is an ordered map, so the exposition is deterministic.
  for (const auto& [name, entry] : entries_) {
    if (entry.counter_family != nullptr ||
        entry.double_counter_family != nullptr ||
        entry.histogram_family != nullptr) {
      if (!families.empty()) families.append(",");
      AppendJsonString(name, &families);
      families.append(":[");
      bool first = true;
      const auto append_series_open = [&](const auto& label_names,
                                          const auto& series) {
        if (!first) families.append(",");
        first = false;
        families.append("{\"labels\":");
        AppendJsonLabels(label_names, series.values, &families);
      };
      if (entry.counter_family != nullptr) {
        for (const auto& series : entry.counter_family->Snapshot()) {
          append_series_open(entry.counter_family->label_names(), series);
          families.append(",\"value\":");
          AppendU64(series.metric->value(), &families);
          families.append("}");
        }
      } else if (entry.double_counter_family != nullptr) {
        for (const auto& series : entry.double_counter_family->Snapshot()) {
          append_series_open(entry.double_counter_family->label_names(),
                             series);
          families.append(",\"value\":");
          AppendDouble(series.metric->value(), &families);
          families.append("}");
        }
      } else {
        for (const auto& series : entry.histogram_family->Snapshot()) {
          append_series_open(entry.histogram_family->label_names(), series);
          const HistogramSnapshot snap = series.metric->Snapshot();
          families.append(",\"count\":");
          AppendU64(snap.count, &families);
          families.append(",\"sum_ms\":");
          AppendDouble(snap.sum_ms, &families);
          families.append(",\"p50_ms\":");
          AppendDouble(snap.p50_ms, &families);
          families.append(",\"p99_ms\":");
          AppendDouble(snap.p99_ms, &families);
          families.append(",\"max_ms\":");
          AppendDouble(snap.max_ms, &families);
          families.append("}");
        }
      }
      families.append("]");
      continue;
    }
    if (entry.counter != nullptr || entry.double_counter != nullptr) {
      if (!counters.empty()) counters.append(",");
      AppendJsonString(name, &counters);
      counters.append(":");
      if (entry.counter != nullptr) {
        AppendU64(entry.counter->value(), &counters);
      } else {
        AppendDouble(entry.double_counter->value(), &counters);
      }
    } else if (entry.gauge != nullptr || entry.callback != nullptr) {
      if (!gauges.empty()) gauges.append(",");
      AppendJsonString(name, &gauges);
      gauges.append(":");
      if (entry.gauge != nullptr) {
        AppendI64(entry.gauge->value(), &gauges);
      } else {
        AppendDouble(entry.callback(), &gauges);
      }
    } else if (entry.histogram != nullptr) {
      const HistogramSnapshot snap = entry.histogram->Snapshot();
      if (!histograms.empty()) histograms.append(",");
      AppendJsonString(name, &histograms);
      histograms.append(":{\"count\":");
      AppendU64(snap.count, &histograms);
      histograms.append(",\"sum_ms\":");
      AppendDouble(snap.sum_ms, &histograms);
      histograms.append(",\"p50_ms\":");
      AppendDouble(snap.p50_ms, &histograms);
      histograms.append(",\"p99_ms\":");
      AppendDouble(snap.p99_ms, &histograms);
      histograms.append(",\"max_ms\":");
      AppendDouble(snap.max_ms, &histograms);
      histograms.append("}");
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

/// One histogram's cumulative bucket / sum / count block. `selector`
/// is the already-escaped `label="value",...` prefix (may be empty)
/// the bucket lines merge le into.
void AppendPromHistogram(const std::string& name, const std::string& selector,
                         const LatencyHistogram& histogram,
                         std::string* out) {
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
  for (const auto& [name, entry] : entries_) {
    if (entry.counter != nullptr || entry.double_counter != nullptr) {
      AppendPromHeader(name, entry.help, "counter", &out);
      out.append(name).append(" ");
      if (entry.counter != nullptr) {
        AppendU64(entry.counter->value(), &out);
      } else {
        AppendDouble(entry.double_counter->value(), &out);
      }
      out.append("\n");
    } else if (entry.gauge != nullptr || entry.callback != nullptr) {
      AppendPromHeader(name, entry.help, "gauge", &out);
      out.append(name).append(" ");
      if (entry.gauge != nullptr) {
        AppendI64(entry.gauge->value(), &out);
      } else {
        AppendDouble(entry.callback(), &out);
      }
      out.append("\n");
    } else if (entry.histogram != nullptr) {
      AppendPromHeader(name, entry.help, "histogram", &out);
      AppendPromHistogram(name, /*selector=*/"", *entry.histogram, &out);
    } else if (entry.counter_family != nullptr) {
      AppendPromHeader(name, entry.help, "counter", &out);
      for (const auto& series : entry.counter_family->Snapshot()) {
        BuildPromSelector(entry.counter_family->label_names(), series.values,
                          &selector);
        out.append(name).append("{").append(selector).append("} ");
        AppendU64(series.metric->value(), &out);
        out.append("\n");
      }
    } else if (entry.double_counter_family != nullptr) {
      AppendPromHeader(name, entry.help, "counter", &out);
      for (const auto& series : entry.double_counter_family->Snapshot()) {
        BuildPromSelector(entry.double_counter_family->label_names(),
                          series.values, &selector);
        out.append(name).append("{").append(selector).append("} ");
        AppendDouble(series.metric->value(), &out);
        out.append("\n");
      }
    } else if (entry.histogram_family != nullptr) {
      AppendPromHeader(name, entry.help, "histogram", &out);
      for (const auto& series : entry.histogram_family->Snapshot()) {
        BuildPromSelector(entry.histogram_family->label_names(),
                          series.values, &selector);
        AppendPromHistogram(name, selector, *series.metric, &out);
      }
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

EpsilonAuditLog::EpsilonAuditLog(size_t capacity) : capacity_(capacity) {
  // Pre-size the ring so steady-state appends reuse slots (their
  // strings keep capacity) instead of growing the vector mid-charge.
  ring_.reserve(capacity_);
}

void EpsilonAuditLog::Append(AuditEvent event) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  event.seq = ++total_;
  // system_clock can step backwards (NTP slew, VM migration); audit
  // consumers replay by (seq, t_us), so clamp against the previous
  // event to keep the ring's timestamps non-decreasing.
  event.wall_micros = std::max(WallMicros(), last_wall_micros_);
  last_wall_micros_ = event.wall_micros;
  const size_t slot = static_cast<size_t>((event.seq - 1) % capacity_);
  if (slot < ring_.size()) {
    ring_[slot] = std::move(event);
  } else {
    ring_.push_back(std::move(event));
  }
}

std::vector<AuditEvent> EpsilonAuditLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AuditEvent> out;
  out.reserve(ring_.size());
  if (total_ <= capacity_) {
    out.assign(ring_.begin(), ring_.end());
    return out;
  }
  // Wrapped: the oldest retained event sits right after the newest.
  const size_t start = static_cast<size_t>(total_ % capacity_);
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

uint64_t EpsilonAuditLog::total_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

uint64_t EpsilonAuditLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ > capacity_ ? total_ - capacity_ : 0;
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

std::string EpsilonAuditLog::ExportJsonl() const {
  std::string out;
  for (const AuditEvent& event : Snapshot()) {
    AppendJsonl(event, &out);
  }
  return out;
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
  const uint64_t seq = slot.seq.fetch_add(1, std::memory_order_acq_rel);
  for (size_t w = 0; w < kWords; ++w) {
    slot.words[w].store(words[w], std::memory_order_relaxed);
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
      uint64_t words[kWords];
      for (size_t w = 0; w < kWords; ++w) {
        words[w] = slot.words[w].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
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

BurnAlertLog::BurnAlertLog(size_t capacity) : capacity_(capacity) {
  ring_.reserve(capacity_);
}

void BurnAlertLog::Append(BurnAlert alert) {
  if (alert.fired) {
    fired_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
  } else {
    active_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  alert.seq = ++total_;
  alert.wall_micros = std::max(alert.wall_micros, last_wall_micros_);
  last_wall_micros_ = alert.wall_micros;
  const size_t slot = static_cast<size_t>((alert.seq - 1) % capacity_);
  if (slot < ring_.size()) {
    ring_[slot] = std::move(alert);
  } else {
    ring_.push_back(std::move(alert));
  }
}

std::vector<BurnAlert> BurnAlertLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<BurnAlert> out;
  out.reserve(ring_.size());
  if (total_ <= capacity_) {
    out.assign(ring_.begin(), ring_.end());
    return out;
  }
  const size_t start = static_cast<size_t>(total_ % capacity_);
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

uint64_t BurnAlertLog::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
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

std::string BurnAlertLog::ExportJsonl() const {
  std::string out;
  for (const BurnAlert& alert : Snapshot()) {
    AppendJsonl(alert, &out);
  }
  return out;
}

// ------------------------------------------------------------- facade

EngineTelemetry::EngineTelemetry(double trace_sample_rate,
                                 size_t audit_capacity,
                                 size_t trace_ring_capacity,
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
                                                            trace_sample_rate))))),
      trace_capacity_(trace_ring_capacity) {
  for (size_t i = 0; i < kTraceStageCount; ++i) {
    stage_hist_[i] = metrics_.histogram(
        std::string("engine_stage_") +
        TraceStageName(static_cast<TraceStage>(i)) + "_ms");
  }
  trace_ring_.reserve(trace_capacity_);
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
  if (trace_capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(trace_mu_);
  // Stamped under the ring lock (not at function entry) so concurrent
  // finishes get wall times in ring order, clamped non-decreasing
  // against the previous record for the same reason as the audit log.
  record.wall_micros = std::max(WallMicros(), last_trace_wall_micros_);
  last_trace_wall_micros_ = record.wall_micros;
  const size_t slot = static_cast<size_t>(trace_total_++ % trace_capacity_);
  if (slot < trace_ring_.size()) {
    trace_ring_[slot] = record;
  } else {
    trace_ring_.push_back(record);
  }
}

std::vector<TraceRecord> EngineTelemetry::SnapshotTraces() const {
  std::lock_guard<std::mutex> lock(trace_mu_);
  std::vector<TraceRecord> out;
  out.reserve(trace_ring_.size());
  if (trace_total_ <= trace_capacity_) {
    out.assign(trace_ring_.begin(), trace_ring_.end());
    return out;
  }
  const size_t start = static_cast<size_t>(trace_total_ % trace_capacity_);
  for (size_t i = 0; i < trace_ring_.size(); ++i) {
    out.push_back(trace_ring_[(start + i) % trace_ring_.size()]);
  }
  return out;
}

uint64_t EngineTelemetry::trace_total() const {
  std::lock_guard<std::mutex> lock(trace_mu_);
  return trace_total_;
}

uint64_t EngineTelemetry::trace_dropped() const {
  std::lock_guard<std::mutex> lock(trace_mu_);
  return trace_total_ > trace_capacity_ ? trace_total_ - trace_capacity_ : 0;
}

std::string EngineTelemetry::TracesJsonl() const {
  std::string out;
  for (const TraceRecord& record : SnapshotTraces()) {
    out.append("{\"trace_id\":");
    AppendU64(record.trace_id, &out);
    out.append(",\"t_us\":");
    AppendI64(record.wall_micros, &out);
    out.append(",\"ok\":");
    out.append(record.ok ? "true" : "false");
    out.append(",\"stages\":{");
    bool first = true;
    for (size_t i = 0; i < kTraceStageCount; ++i) {
      if (record.stage_ms[i] < 0.0) continue;
      if (!first) out.append(",");
      first = false;
      AppendJsonString(TraceStageName(static_cast<TraceStage>(i)), &out);
      out.append(":");
      AppendDouble(record.stage_ms[i], &out);
    }
    out.append("}}\n");
  }
  return out;
}

}  // namespace blowfish
