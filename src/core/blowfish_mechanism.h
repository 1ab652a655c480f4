// Base interface for Blowfish-private mechanisms built on the
// transformational-equivalence engine. Every concrete mechanism
// releases a full-domain histogram estimate x̂ whose publication
// satisfies the stated (ε, G)-Blowfish guarantee; any linear workload
// answered from x̂ is post-processing. See transform.h for why this
// protocol coincides exactly with the paper's per-query
// reconstructions.

#ifndef BLOWFISH_CORE_BLOWFISH_MECHANISM_H_
#define BLOWFISH_CORE_BLOWFISH_MECHANISM_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "linalg/vector_ops.h"
#include "mech/mechanism.h"
#include "mech/release_workspace.h"
#include "rng/rng.h"

namespace blowfish {

/// \brief An (ε, G)-Blowfish private histogram release mechanism.
class BlowfishMechanism {
 public:
  /// \brief Schema-free wire form of a ReleasePrecompute: ordered
  /// double vectors plus ordered scalars. What each slot means is
  /// defined by the owning precompute's SerialFamily() — the snapshot
  /// store persists (family, payload) and the mechanism that planned
  /// the policy validates and rehydrates it on restore. Doubles round
  /// trip as IEEE bit patterns, so a decoded precompute replays
  /// bit-identically.
  struct PrecomputePayload {
    std::vector<Vector> vectors;
    std::vector<double> scalars;
  };

  virtual ~BlowfishMechanism() = default;

  /// Releases a noisy full-domain histogram estimate; the release
  /// satisfies Guarantee(epsilon). Always the two phases below, in
  /// order, so a caller that caches the precompute draws the same
  /// noise and gets bit-identical answers.
  Vector Run(const Vector& x, double epsilon, Rng* rng) const {
    return RunPrecomputed(*PrecomputeRelease(x), epsilon, rng);
  }

  virtual std::string name() const = 0;

  virtual PrivacyGuarantee Guarantee(double epsilon) const = 0;

  /// \brief Opaque noise-free precomputation of a (mechanism,
  /// database) pair — the part of a release that does not depend on ε
  /// or randomness (database transforms, component totals). Instances
  /// are immutable and safe to share across concurrent releases.
  struct ReleasePrecompute {
    virtual ~ReleasePrecompute() = default;
    /// Approximate resident size, used by the engine's byte-budgeted
    /// transform cache to decide eviction. Concrete precomputes report
    /// their dominant payload (the transformed-database vectors);
    /// exactness does not matter, monotonicity with actual footprint
    /// does.
    virtual size_t ApproxBytes() const = 0;

    /// Wire-schema name ("tree/1", "grid/1", "slab/1") under which the
    /// snapshot store persists this precompute.
    virtual std::string_view SerialFamily() const = 0;

    /// Encodes this precompute into `out`.
    virtual void EncodePayload(PrecomputePayload* out) const = 0;
  };

  /// Noise-free phase of a release: never null. Callers (the serving
  /// layer) cache it per (policy, data) snapshot, which hoists the
  /// transform sweep out of every warm release.
  virtual std::shared_ptr<const ReleasePrecompute> PrecomputeRelease(
      const Vector& x) const = 0;

  /// Noisy phase continuing from PrecomputeRelease's result. Only
  /// called with a precompute this mechanism produced. Returns x̂; the
  /// workspace form below with the calling thread's workspace.
  Vector RunPrecomputed(const ReleasePrecompute& pre, double epsilon,
                        Rng* rng) const;

  /// The noisy phase into `out` (resized; `ws.estimate` or a buffer
  /// outside `ws`), taking scratch from `ws`: a caller that keeps the
  /// workspace releases without allocating for it.
  virtual void RunPrecomputed(const ReleasePrecompute& pre, double epsilon,
                              Rng* rng, ReleaseWorkspace* ws,
                              Vector* out) const = 0;

  /// Inverse of EncodePayload: rehydrates a persisted precompute that
  /// this mechanism (for the same policy, version, and data) once
  /// produced. Implementations must validate `family` and every size
  /// the payload implies against their own structure and return null
  /// on any mismatch — the caller treats null as "recompute from
  /// data" (fail-open), never as an error.
  virtual std::shared_ptr<const ReleasePrecompute> DecodePrecompute(
      std::string_view family, const PrecomputePayload& payload) const = 0;
};

inline Vector BlowfishMechanism::RunPrecomputed(const ReleasePrecompute& pre,
                                                double epsilon,
                                                Rng* rng) const {
  Vector out;
  RunPrecomputed(pre, epsilon, rng, &ReleaseWorkspace::ForThisThread(), &out);
  return out;
}

using BlowfishMechanismPtr = std::unique_ptr<BlowfishMechanism>;

}  // namespace blowfish

#endif  // BLOWFISH_CORE_BLOWFISH_MECHANISM_H_
