// Mechanism interfaces. Almost every algorithm in the paper's
// experiments — Laplace, Privelet, DAWA, and all the Blowfish
// strategies after the transformational-equivalence rewrite — can be
// phrased as a *histogram estimator*: it consumes a histogram vector x
// over some domain and returns a noisy estimate x̂ of the same
// dimension, such that releasing x̂ satisfies ε-differential privacy
// under the unbounded neighbor model (one cell count changes by ±1).
// Linear workloads are then answered as W x̂.
//
// The uniform interface is not just convenient: for tree policies the
// paper's reconstruction (answer transformed queries q_G on the noisy
// transformed database x̃_G) is *algebraically identical* to answering
// q on x̂ = P_G x̃_G, because q x̂ = q P_G x̃_G = q_G x̃_G. The
// transform tests verify this identity.

#ifndef BLOWFISH_MECH_MECHANISM_H_
#define BLOWFISH_MECH_MECHANISM_H_

#include <memory>
#include <string>

#include "linalg/vector_ops.h"
#include "rng/rng.h"

namespace blowfish {

/// \brief The privacy guarantee a mechanism run provides
/// (Definitions 2.2 and 3.3).
struct PrivacyGuarantee {
  double epsilon = 0.0;
  /// Human-readable neighbor model, e.g. "unbounded-DP" or
  /// "(eps, G^4_4096)-Blowfish".
  std::string neighbor_model;
};

struct ReleaseWorkspace;

/// \brief An ε-differentially-private histogram estimator.
///
/// Contract: `Run(x, epsilon, rng)` returns an estimate of x (same
/// size) and the release is ε-DP with respect to a ±1 change of a
/// single cell of x (L1 sensitivity 1 per cell).
///
/// The two forms of Run release the same bits. A mechanism overrides
/// at least one of them; each default calls the other. The workspace
/// form is the one to override where scratch buffers matter.
class HistogramMechanism {
 public:
  virtual ~HistogramMechanism() = default;

  /// Returns the estimate; the default runs the workspace form with
  /// the calling thread's workspace.
  virtual Vector Run(const Vector& x, double epsilon, Rng* rng) const;

  /// Writes the estimate into `out` (resized), taking scratch from
  /// `ws`; `out` must not be a workspace buffer that this mechanism
  /// uses itself. The default calls the returning form.
  virtual void Run(const Vector& x, double epsilon, Rng* rng,
                   ReleaseWorkspace* ws, Vector* out) const;

  virtual std::string name() const = 0;
};

using HistogramMechanismPtr = std::shared_ptr<const HistogramMechanism>;

}  // namespace blowfish

#endif  // BLOWFISH_MECH_MECHANISM_H_
