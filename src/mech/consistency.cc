#include "mech/consistency.h"

#include <algorithm>

#include "common/check.h"

namespace blowfish {

namespace {

// PAVA over `y`, where weight_at(i) is y[i]'s weight: a stack of blocks
// (mean, weight, count), merged while their means decrease. The stack
// is `blocks`' storage, grown to y's length once and then reused;
// `out` may be `y`: every input is read before the first output is
// written.
template <typename WeightAt>
void Pava(const Vector& y, WeightAt weight_at, std::vector<PavaBlock>* blocks,
          Vector* out) {
  const size_t n = y.size();
  if (blocks->size() < n) blocks->resize(n);
  PavaBlock* const bottom = blocks->data();
  PavaBlock* top = bottom;  // one past the top block
  for (size_t i = 0; i < n; ++i) {
    PavaBlock b{y[i], weight_at(i), 1};
    while (top != bottom && top[-1].mean >= b.mean) {
      const PavaBlock& prev = top[-1];
      const double w = prev.weight + b.weight;
      b.mean = (prev.mean * prev.weight + b.mean * b.weight) / w;
      b.weight = w;
      b.count += prev.count;
      --top;
    }
    *top++ = b;
  }
  out->resize(n);
  double* z = out->data();
  for (const PavaBlock* b = bottom; b != top; ++b) {
    z = std::fill_n(z, b->count, b->mean);
  }
}

}  // namespace

Vector IsotonicRegressionWeighted(const Vector& y, const Vector& weights) {
  BF_CHECK_EQ(y.size(), weights.size());
  std::vector<PavaBlock> stack;
  Vector out;
  Pava(
      y,
      [&weights](size_t i) {
        BF_CHECK_GT(weights[i], 0.0);
        return weights[i];
      },
      &stack, &out);
  return out;
}

void IsotonicRegression(Vector* y, std::vector<PavaBlock>* stack) {
  // Unit weights: a block's weight is its count, an exact integer in a
  // double, so the pooled means are bit-identical to the weighted form
  // with a vector of ones.
  Pava(*y, [](size_t) { return 1.0; }, stack, y);
}

Vector IsotonicRegression(const Vector& y) {
  std::vector<PavaBlock> stack;
  Vector out;
  Pava(y, [](size_t) { return 1.0; }, &stack, &out);
  return out;
}

Vector IsotonicRegressionClamped(const Vector& y, double lo, double hi) {
  BF_CHECK_LE(lo, hi);
  Vector z = IsotonicRegression(y);
  for (double& v : z) v = std::clamp(v, lo, hi);
  return z;
}

}  // namespace blowfish
