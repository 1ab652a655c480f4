// Histogram-release adapter for the Theorem 5.6 slab strategy. The
// underlying GridThetaRangeMechanism answers range workloads directly
// (its slab-system choice is per-query), so it does not natively fit
// the BlowfishMechanism protocol of releasing one full-domain
// histogram x̂. This adapter closes the gap: a release answers the k²
// single-cell ranges through the slab reconstruction, which *is* a
// histogram release — every cell estimate is post-processing of the
// same noisy slab/line releases, so the (ε, Gθ)-Blowfish guarantee is
// unchanged.
//
// This gives the planner a uniform execution path (Plan::mechanism is
// never null; the engine answers any linear workload as W x̂). Callers
// with an explicit range workload should still prefer
// inner().AnswerRanges(), whose per-range error scales with the range
// perimeter rather than its area; the full-histogram reconstruction
// here costs O(k²) table reads per release.

#ifndef BLOWFISH_CORE_GRID_THETA_ADAPTER_H_
#define BLOWFISH_CORE_GRID_THETA_ADAPTER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "core/blowfish_mechanism.h"
#include "core/mechanisms_kd.h"

namespace blowfish {

/// \brief GridThetaRangeMechanism exposed as a histogram-release
/// BlowfishMechanism (k×k domain, θ >= 2).
class GridThetaHistogramAdapter : public BlowfishMechanism {
 public:
  /// Same preconditions as GridThetaRangeMechanism::Create.
  static Result<std::unique_ptr<GridThetaHistogramAdapter>> Create(
      const Policy& grid_policy, size_t theta);

  std::string name() const override {
    return inner_->name() + " (histogram adapter)";
  }
  PrivacyGuarantee Guarantee(double epsilon) const override {
    return inner_->Guarantee(epsilon);
  }

  int64_t stretch() const { return inner_->stretch(); }

  /// Direct access for range workloads (per-query reconstruction).
  const GridThetaRangeMechanism& inner() const { return *inner_; }
  /// Shared handle to the same mechanism, for plans that dispatch
  /// range workloads past the adapter (the engine's fast path).
  std::shared_ptr<const GridThetaRangeMechanism> inner_ptr() const {
    return inner_;
  }

  /// Noise-free half of a slab release: the spanner-edge-domain
  /// transform (the spanning-tree sweep, O(edges)) and the public
  /// database size. Public so the engine's range fast path can answer
  /// explicit range workloads from the same cached blob the dense path
  /// uses.
  struct SlabPrecompute : ReleasePrecompute {
    Vector xg;
    double n = 0.0;
    size_t ApproxBytes() const override {
      return sizeof(SlabPrecompute) + xg.capacity() * sizeof(double);
    }
    std::string_view SerialFamily() const override { return "slab/1"; }
    void EncodePayload(PrecomputePayload* out) const override {
      out->vectors = {xg};
      out->scalars = {n};
    }
  };

  std::shared_ptr<const ReleasePrecompute> PrecomputeRelease(
      const Vector& x) const override;
  /// Releases x̂ over the k² cells (flattened row-major, matching the
  /// policy domain) by answering every single-cell range.
  using BlowfishMechanism::RunPrecomputed;
  void RunPrecomputed(const ReleasePrecompute& pre, double epsilon, Rng* rng,
                      ReleaseWorkspace* ws, Vector* out) const override;

  /// Restores a snapshot-persisted "slab/1" precompute. Null on any
  /// family/shape mismatch (the caller then recomputes from data).
  std::shared_ptr<const ReleasePrecompute> DecodePrecompute(
      std::string_view family, const PrecomputePayload& payload) const override {
    if (family != "slab/1") return nullptr;
    if (payload.vectors.size() != 1 || payload.scalars.size() != 1) {
      return nullptr;
    }
    auto pre = std::make_shared<SlabPrecompute>();
    pre->xg = payload.vectors[0];
    pre->n = payload.scalars[0];
    if (pre->xg.size() != inner_->num_spanner_edges()) return nullptr;
    return pre;
  }

 private:
  GridThetaHistogramAdapter(std::unique_ptr<GridThetaRangeMechanism> inner,
                            size_t num_cells)
      : inner_(std::move(inner)), num_cells_(num_cells) {}

  std::shared_ptr<const GridThetaRangeMechanism> inner_;
  size_t num_cells_;  ///< k²
};

}  // namespace blowfish

#endif  // BLOWFISH_CORE_GRID_THETA_ADAPTER_H_
