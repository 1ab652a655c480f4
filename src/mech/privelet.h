// Privelet (Xiao, Wang, Gehrke, ICDE 2010): differential privacy via
// the Haar wavelet transform. The paper uses Privelet as the best
// data-independent ε-DP baseline for range queries, with
// O(log³ k / ε²) error per 1D range (Figure 3).
//
// Coefficient convention (unnormalized Haar tree over 2^h leaves):
//   c_base             = average of all leaves,
//   node at height ℓ   = (mean of left subtree − mean of right) / 2.
// Changing one leaf count by ±1 changes c_base by 1/2^h and each of
// the h ancestor coefficients at height ℓ by 1/2^ℓ. With generalized
// weights W(base) = 2^h and W(height ℓ) = 2^ℓ, the weighted sensitivity
// is exactly h + 1, so adding Lap((h+1) / (ε·W(c))) to every
// coefficient gives ε-DP (generalized Laplace mechanism). A d-dim
// domain uses the standard decomposition (transform along each axis);
// weights multiply and the sensitivity becomes Π_d (h_d + 1).

#ifndef BLOWFISH_MECH_PRIVELET_H_
#define BLOWFISH_MECH_PRIVELET_H_

#include "graph/builders.h"
#include "mech/mechanism.h"

namespace blowfish {

/// In-place forward Haar transform of a power-of-two-length vector,
/// in the paper's averages/differences convention. Output layout:
/// index 0 holds the base average; the difference coefficient of the
/// height-ℓ node covering leaves [j·2^ℓ, (j+1)·2^ℓ) sits at
/// index 2^{h-ℓ} + j (standard wavelet packing).
void HaarForward(Vector* v);

/// Exact inverse of HaarForward.
void HaarInverse(Vector* v);

/// The same transforms with caller-owned scratch (resized to v's
/// length), so a loop over many lines allocates it once.
void HaarForward(Vector* v, Vector* scratch);
void HaarInverse(Vector* v, Vector* scratch);

/// Per-coefficient generalized weights for a power-of-two length:
/// weight[0] = n (base), weight[2^{h-ℓ} + j] = 2^ℓ.
Vector HaarWeights(size_t n);

/// \brief Privelet over a d-dimensional grid domain (padded per-axis
/// to powers of two internally).
class PriveletMechanism : public HistogramMechanism {
 public:
  explicit PriveletMechanism(DomainShape domain);

  using HistogramMechanism::Run;
  void Run(const Vector& x, double epsilon, Rng* rng, ReleaseWorkspace* ws,
           Vector* out) const override;
  /// The release over raw cells: `x` and `out` each point at the
  /// domain's size() values and may be the same cells. Uses the
  /// workspace's padded, line and haar buffers.
  void Release(const double* x, double epsilon, Rng* rng,
               ReleaseWorkspace* ws, double* out) const;
  std::string name() const override { return "Privelet"; }

  /// Weighted L1 sensitivity of the padded transform: Π (h_d + 1).
  double GeneralizedSensitivity() const { return sensitivity_; }

 private:
  DomainShape domain_;         // logical domain
  DomainShape padded_;         // power-of-two padded domain
  std::vector<size_t> padded_index_;  // logical cell -> padded cell
  Vector coefficient_weights_; // per padded cell, product across axes
  double sensitivity_;
};

}  // namespace blowfish

#endif  // BLOWFISH_MECH_PRIVELET_H_
