#include "mech/dawa.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "mech/laplace.h"

namespace blowfish {

DawaMechanism::DawaMechanism() : DawaMechanism(Options()) {}

DawaMechanism::DawaMechanism(Options options) : options_(options) {
  BF_CHECK_GT(options_.partition_budget_fraction, 0.0);
  BF_CHECK_LT(options_.partition_budget_fraction, 1.0);
  BF_CHECK_GT(options_.max_bucket_length, 0u);
}

std::vector<size_t> DawaMechanism::ChoosePartition(const Vector& noisy,
                                                   double epsilon2) const {
  return ChoosePartition(noisy, epsilon2, 0.0);
}

std::vector<size_t> DawaMechanism::ChoosePartition(const Vector& noisy,
                                                   double epsilon2,
                                                   double stage1_scale) const {
  const size_t k = noisy.size();
  BF_CHECK_GT(k, 0u);
  // Candidate bucket lengths: powers of two up to the cap.
  std::vector<size_t> lengths;
  for (size_t len = 1; len <= std::min(k, options_.max_bucket_length);
       len *= 2) {
    lengths.push_back(len);
  }

  // Expected L1 error a bucket inherits from its stage-2 Laplace draw.
  const double bucket_noise_cost = 1.0 / epsilon2;

  // dp[i] = min cost covering cells [0, i); choice[i] = chosen last
  // bucket length.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dp(k + 1, inf);
  std::vector<size_t> choice(k + 1, 0);
  dp[0] = 0.0;
  for (size_t i = 1; i <= k; ++i) {
    for (size_t len : lengths) {
      if (len > i) break;
      const size_t start = i - len;
      // Deviation cost: sum |noisy - mean| over the bucket.
      double sum = 0.0;
      for (size_t j = start; j < i; ++j) sum += noisy[j];
      const double mean = sum / static_cast<double>(len);
      double dev = 0.0;
      for (size_t j = start; j < i; ++j) dev += std::fabs(noisy[j] - mean);
      // Debias: iid stage-1 noise inflates the deviation of a truly
      // uniform bucket by ~ (len-1) * E|Lap(scale)| = (len-1) * scale;
      // without the correction, noisy flat regions look expensive to
      // merge and the partition degenerates to singletons (the DAWA
      // paper's cost estimates are debiased the same way).
      dev = std::max(0.0, dev - static_cast<double>(len - 1) * stage1_scale);
      const double cost = dp[start] + dev + bucket_noise_cost;
      if (cost < dp[i]) {
        dp[i] = cost;
        choice[i] = len;
      }
    }
  }
  // Reconstruct bucket boundaries.
  std::vector<size_t> ends;
  size_t pos = k;
  while (pos > 0) {
    ends.push_back(pos);
    pos -= choice[pos];
  }
  std::reverse(ends.begin(), ends.end());
  return ends;
}

Vector DawaMechanism::Run(const Vector& x, double epsilon, Rng* rng) const {
  BF_CHECK_GT(epsilon, 0.0);
  BF_CHECK(rng != nullptr);
  const double eps1 = options_.partition_budget_fraction * epsilon;
  const double eps2 = epsilon - eps1;

  // Stage 1 on an ε₁-noisy copy (the true histogram is never consulted
  // by the partition).
  Vector noisy = x;
  AddLaplaceNoise(1.0 / eps1, rng, &noisy);
  const std::vector<size_t> ends = ChoosePartition(noisy, eps2, 1.0 / eps1);

  // Stage 2: noisy bucket totals, uniform expansion.
  Vector out(x.size(), 0.0);
  size_t start = 0;
  for (size_t end : ends) {
    double total = 0.0;
    for (size_t j = start; j < end; ++j) total += x[j];
    total += rng->Laplace(1.0 / eps2);
    const double per_cell = total / static_cast<double>(end - start);
    for (size_t j = start; j < end; ++j) out[j] = per_cell;
    start = end;
  }
  return out;
}

namespace {

// Classic Hilbert curve d-to-(x, y) conversion on an n x n grid
// (n a power of two).
void HilbertD2XY(size_t n, size_t d, size_t* x, size_t* y) {
  size_t rx, ry;
  size_t t = d;
  *x = 0;
  *y = 0;
  for (size_t s = 1; s < n; s *= 2) {
    rx = 1 & (t / 2);
    ry = 1 & (t ^ rx);
    // Rotate quadrant.
    if (ry == 0) {
      if (rx == 1) {
        *x = s - 1 - *x;
        *y = s - 1 - *y;
      }
      std::swap(*x, *y);
    }
    *x += s * rx;
    *y += s * ry;
    t /= 4;
  }
}

}  // namespace

std::vector<size_t> HilbertOrder(size_t rows, size_t cols) {
  BF_CHECK_GT(rows, 0u);
  BF_CHECK_GT(cols, 0u);
  size_t n = 1;
  while (n < std::max(rows, cols)) n *= 2;
  std::vector<size_t> order;
  order.reserve(rows * cols);
  for (size_t d = 0; d < n * n; ++d) {
    size_t x, y;
    HilbertD2XY(n, d, &x, &y);
    if (x < rows && y < cols) order.push_back(x * cols + y);
  }
  BF_CHECK_EQ(order.size(), rows * cols);
  return order;
}

Hilbert2DAdapter::Hilbert2DAdapter(DomainShape domain,
                                   HistogramMechanismPtr inner)
    : domain_(std::move(domain)), inner_(std::move(inner)) {
  BF_CHECK_EQ(domain_.num_dims(), 2u);
  BF_CHECK(inner_ != nullptr);
  order_ = HilbertOrder(domain_.dim(0), domain_.dim(1));
}

std::string Hilbert2DAdapter::name() const {
  return inner_->name() + "-Hilbert2D";
}

Vector Hilbert2DAdapter::Run(const Vector& x, double epsilon,
                             Rng* rng) const {
  BF_CHECK_EQ(x.size(), domain_.size());
  Vector linear(x.size());
  for (size_t p = 0; p < order_.size(); ++p) linear[p] = x[order_[p]];
  const Vector est = inner_->Run(linear, epsilon, rng);
  Vector out(x.size());
  for (size_t p = 0; p < order_.size(); ++p) out[order_[p]] = est[p];
  return out;
}

}  // namespace blowfish
