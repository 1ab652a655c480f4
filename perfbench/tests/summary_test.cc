// Unit test of the benchmark's sample summary (src/summary.h). Plain
// main with its own checks so the benchmark project needs no test
// framework; exits non-zero on the first failed expectation.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "summary.h"

namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> Range(size_t n) {
  // 1..n in a scrambled order, so selection really has to reorder.
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>((i * 7919) % n + 1);
  return v;
}

}  // namespace

int main() {
  using perfbench::Summarize;

  {
    const perfbench::Summary s = Summarize(Range(1000));
    Expect(s.count == 1000, "count of 1000 samples");
    Expect(s.median && *s.median == 500.0, "median of 1..1000 is rank 500");
    Expect(s.p99 && *s.p99 == 990.0, "p99 of 1..1000 is rank 990");
  }
  {
    // 999 samples leave only 9 beyond the p99 rank: not reported.
    const perfbench::Summary s = Summarize(Range(999));
    Expect(!s.p99.has_value(), "p99 needs 10 samples beyond it");
    Expect(s.median.has_value(), "median of 999 samples is reported");
  }
  {
    // The median needs 20 samples (10 beyond rank 10).
    Expect(!Summarize(Range(19)).median.has_value(), "median of 19 withheld");
    const perfbench::Summary s = Summarize(Range(20));
    Expect(s.median && *s.median == 10.0, "median of 1..20 is rank 10");
  }
  {
    const perfbench::Summary s = Summarize(std::vector<unsigned>{});
    Expect(s.count == 0 && !s.median && !s.p99, "empty input reports nothing");
  }
  {
    // Integer samples (the benchmark stores nanoseconds as uint32).
    std::vector<unsigned> v(2000, 5u);
    v[1999] = 1000000u;
    const perfbench::Summary s = Summarize(v);
    Expect(s.median && *s.median == 5.0, "median ignores one outlier");
    Expect(s.p99 && *s.p99 == 5.0, "p99 ignores one outlier in 2000");
  }
  {
    // The unguarded selection answers for any non-empty set, at the
    // same rank as the guarded quantile.
    Expect(perfbench::Median(Range(5)) == 3.0, "median of 1..5 is rank 3");
    Expect(perfbench::Median(Range(4)) == 2.0, "median of 1..4 is rank 2");
    Expect(perfbench::Median(std::vector<double>{7.5}) == 7.5, "median of one");
    Expect(perfbench::Median(std::vector<double>{}) == 0.0, "median of none is 0");
    std::vector<double> v = Range(1000);
    Expect(perfbench::Select(&v, 0.99) == 990.0, "select p99 matches Quantile");
  }
  Expect(perfbench::NearestRank(0.5, 1) == 1, "rank clamps to 1");
  Expect(perfbench::NearestRank(0.99, 100) == 99, "rank of p99 in 100");

  if (failures == 0) std::printf("summary_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
