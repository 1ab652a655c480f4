// Consistency post-processing (Section 5.4.2). When the policy graph
// is a line, the transformed database x_G = P_G⁻¹ x is the vector of
// prefix sums of x, which is non-decreasing. Hay et al.'s observation
// (cited as [10]) is that projecting the noisy estimate onto the
// constraint set reduces error — dramatically so on sparse data, where
// consecutive prefix sums are equal. The L2 projection onto
// non-decreasing sequences is isotonic regression, computed exactly by
// the Pool-Adjacent-Violators algorithm (PAVA) in O(n).
//
// Post-processing never degrades privacy: it consumes only the noisy
// release.

#ifndef BLOWFISH_MECH_CONSISTENCY_H_
#define BLOWFISH_MECH_CONSISTENCY_H_

#include <vector>

#include "linalg/vector_ops.h"

namespace blowfish {

/// One pooled run of PAVA's stack: its mean, total weight and length.
struct PavaBlock {
  double mean;
  double weight;
  size_t count;
};

/// L2 projection of `y` onto non-decreasing sequences (PAVA). Returns
/// argmin_z ‖y − z‖₂ s.t. z[0] <= z[1] <= ... <= z[n-1].
Vector IsotonicRegression(const Vector& y);

/// The same projection in place, with a caller-owned block stack, so a
/// release that keeps both allocates nothing.
void IsotonicRegression(Vector* y, std::vector<PavaBlock>* stack);

/// Weighted variant: argmin Σ w_i (y_i − z_i)² over non-decreasing z.
/// Weights must be positive.
Vector IsotonicRegressionWeighted(const Vector& y, const Vector& weights);

/// Convenience: clamp the projection into [lo, hi] as well (projection
/// onto monotone sequences intersected with a box is the composition
/// of PAVA and clipping, since clipping preserves monotonicity).
Vector IsotonicRegressionClamped(const Vector& y, double lo, double hi);

}  // namespace blowfish

#endif  // BLOWFISH_MECH_CONSISTENCY_H_
