#include "mech/consistency.h"

#include <algorithm>

#include "common/check.h"

namespace blowfish {

namespace {

// PAVA over `y`, where weight_at(i) is y[i]'s weight: a stack of blocks
// (mean, weight, count), merged while their means decrease.
template <typename WeightAt>
Vector Pava(const Vector& y, WeightAt weight_at) {
  const size_t n = y.size();
  if (n == 0) return {};

  struct Block {
    double mean;
    double weight;
    size_t count;
  };
  std::vector<Block> stack;
  stack.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Block b{y[i], weight_at(i), 1};
    while (!stack.empty() && stack.back().mean >= b.mean) {
      const Block& top = stack.back();
      const double w = top.weight + b.weight;
      b.mean = (top.mean * top.weight + b.mean * b.weight) / w;
      b.weight = w;
      b.count += top.count;
      stack.pop_back();
    }
    stack.push_back(b);
  }
  Vector out;
  out.reserve(n);
  for (const Block& b : stack) {
    out.insert(out.end(), b.count, b.mean);
  }
  return out;
}

}  // namespace

Vector IsotonicRegressionWeighted(const Vector& y, const Vector& weights) {
  BF_CHECK_EQ(y.size(), weights.size());
  return Pava(y, [&weights](size_t i) {
    BF_CHECK_GT(weights[i], 0.0);
    return weights[i];
  });
}

Vector IsotonicRegression(const Vector& y) {
  // Unit weights: a block's weight is its count, an exact integer in a
  // double, so the pooled means are bit-identical to the weighted form
  // with a vector of ones.
  return Pava(y, [](size_t) { return 1.0; });
}

Vector IsotonicRegressionClamped(const Vector& y, double lo, double hi) {
  BF_CHECK_LE(lo, hi);
  Vector z = IsotonicRegression(y);
  for (double& v : z) v = std::clamp(v, lo, hi);
  return z;
}

}  // namespace blowfish
