// Order statistics over raw per-request samples.
//
// Percentiles use the nearest-rank definition: the p-quantile of n
// sorted samples is the sample at rank ceil(p·n). A percentile is only
// reported when at least kMinBeyond samples lie strictly beyond its
// rank, so a p99 needs n >= 1000 and a median n >= 20; with fewer
// samples the value is statistically meaningless and is left out
// rather than read off a handful of outliers.

#ifndef PERFBENCH_SUMMARY_H_
#define PERFBENCH_SUMMARY_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinBeyond = 10;

/// \brief Median, p99 and sample count of one set of raw samples.
struct Summary {
  size_t count = 0;
  std::optional<double> median;
  std::optional<double> p99;
};

/// 1-based nearest rank of quantile `p` among `n` samples.
inline size_t NearestRank(double p, size_t n) {
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

/// True when `n` samples leave at least kMinBeyond beyond quantile `p`.
inline bool Supports(double p, size_t n) {
  return n > 0 && n - NearestRank(p, n) >= kMinBeyond;
}

/// Sample at the nearest rank of quantile `p` (reordering `samples`),
/// with no sample-count guard; 0 for an empty set.
template <typename T>
double Select(std::vector<T>* samples, double p) {
  if (samples->empty()) return 0;
  auto nth = samples->begin() +
             static_cast<std::ptrdiff_t>(NearestRank(p, samples->size()) - 1);
  std::nth_element(samples->begin(), nth, samples->end());
  return static_cast<double>(*nth);
}

/// Unguarded median, for small sets a caller needs a number from:
/// block medians, set-up repetitions, microphase timings.
template <typename T>
double Median(std::vector<T> samples) {
  return Select(&samples, 0.5);
}

/// Quantile `p` of `samples` (reordered in place), or nullopt when the
/// sample count does not support it.
template <typename T>
std::optional<double> Quantile(std::vector<T>* samples, double p) {
  if (!Supports(p, samples->size())) return std::nullopt;
  return Select(samples, p);
}

/// Median and p99 of `samples` (taken by value: selection reorders).
template <typename T>
Summary Summarize(std::vector<T> samples) {
  Summary s;
  s.count = samples.size();
  s.median = Quantile(&samples, 0.5);
  s.p99 = Quantile(&samples, 0.99);
  return s;
}

}  // namespace perfbench

#endif  // PERFBENCH_SUMMARY_H_
