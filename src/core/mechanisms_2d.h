// The Section 5.2.2 strategy: d-dimensional range queries under the
// grid policy G¹_{k^d}. The policy graph is not a tree, so Theorem 4.3
// does not apply; instead the strategy is a matrix mechanism on the
// transformed (edge) domain and Theorem 4.1 supplies the equivalence.
//
// The transformed domain is the set of grid edges. Edges are grouped
// into "lines": all edges along dimension `dd` between the fixed
// coordinates c and c+1, indexed by their remaining d-1 coordinates
// (Figure 5b's rows of vertical edges / columns of horizontal edges).
// A transformed range query touches at most 2d lines, as a contiguous
// (d-1)-dimensional range in each (Lemma 5.1 / Figure 5a). The
// strategy answers each line with an independent (d-1)-dimensional
// Privelet instance at the full budget ε — lines are disjoint, so
// parallel composition applies — giving O(d·log^{3(d-1)} k / ε²) error
// per query (Theorem 5.4).

#ifndef BLOWFISH_CORE_MECHANISMS_2D_H_
#define BLOWFISH_CORE_MECHANISMS_2D_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/blowfish_mechanism.h"
#include "core/transform.h"

namespace blowfish {

class PriveletMechanism;

/// \brief "Transformed + Privelet" for G¹_{k^d} (d >= 2).
class GridBlowfishMechanism : public BlowfishMechanism {
 public:
  /// `policy` must be a θ=1 distance-threshold policy over a grid
  /// domain with at least 2 dimensions.
  static Result<std::unique_ptr<GridBlowfishMechanism>> Create(Policy policy);

  std::string name() const override { return "Transformed+Privelet"; }
  PrivacyGuarantee Guarantee(double epsilon) const override;

  /// Caches {transformed database, Σx}: x_G is one preimage of x
  /// from the spanning-tree sweep (non-tree edges 0), which Privelet's
  /// data-independent linear release needs and nothing more. Callers
  /// that run many trials on the same database should compute it once.
  std::shared_ptr<const ReleasePrecompute> PrecomputeRelease(
      const Vector& x) const override;
  using BlowfishMechanism::RunPrecomputed;
  void RunPrecomputed(const ReleasePrecompute& pre, double epsilon, Rng* rng,
                      ReleaseWorkspace* ws, Vector* out) const override;

  /// Restores a snapshot-persisted "grid/1" precompute. Null on any
  /// family/shape mismatch (the caller then recomputes from data).
  std::shared_ptr<const ReleasePrecompute> DecodePrecompute(
      std::string_view family, const PrecomputePayload& payload) const override;

  const PolicyTransform& transform() const { return transform_; }

 private:
  explicit GridBlowfishMechanism(PolicyTransform transform);

  void BuildLineGroups();

  PolicyTransform transform_;
  /// Edge indices per line, ordered by the free coordinates.
  std::vector<std::vector<size_t>> groups_;
  /// Shape of each line's (d-1)-dimensional cell grid.
  std::vector<DomainShape> group_shapes_;
  /// One Privelet instance per line, built once at construction (lines
  /// of equal shape share an instance); immutable afterwards, so
  /// concurrent releases may share them.
  std::vector<std::shared_ptr<const PriveletMechanism>> group_mechanisms_;
};

}  // namespace blowfish

#endif  // BLOWFISH_CORE_MECHANISMS_2D_H_
