// The Section 5.3.2 / Theorem 5.6 strategy: 2D range queries under the
// distance-threshold policy Gθ_{k²} (θ >= 2).
//
// The domain is tiled into s×s blocks (s = θ/d = θ/2); the substitute
// graph Hθ has one *internal* edge per non-red vertex (to its block's
// red corner) and *external* edges forming a coarse grid over the red
// corners (Figure 7b). A mechanism that is (ε', H)-Blowfish private is
// (ℓ·ε', G)-Blowfish private for the certified stretch ℓ (Lemma 4.5),
// so we run at ε' = ε/ℓ.
//
// Strategy on the transformed (edge) domain:
//  * external edges: per-line 1D Privelet over the red grid (the
//    Section 5.2.2 strategy; budget ε', lines disjoint);
//  * internal edges: two slab systems at ε'/2 each — 2D Privelet over
//    every row-of-blocks slab (s×k cells) and every column-of-blocks
//    slab (k×s cells). Internal and external edges are disjoint, so
//    the releases parallel-compose to ε' overall.
//
// A transformed range query's internal support splits into at most 4
// strips, each bounded by s in one dimension (Figure 7d); each strip
// is answered from the slab system whose slabs are aligned with the
// strip, giving the O(d³ log^{3(d-1)} k · log³ θ / ε²) error of
// Theorem 5.6. Because the per-query choice of slab system is part of
// reconstruction, this mechanism answers range workloads directly
// rather than releasing a single histogram estimate (both releases are
// still published noisy vectors; reconstruction is post-processing).
// Each submit folds its releases into three summed-area tables, so a
// range is read in O(1) from at most five rectangles: the whole range
// on the external-line table and the four strips on the slab tables.

#ifndef BLOWFISH_CORE_MECHANISMS_KD_H_
#define BLOWFISH_CORE_MECHANISMS_KD_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/subgraph_approx.h"
#include "core/transform.h"
#include "mech/mechanism.h"
#include "mech/release_workspace.h"
#include "workload/workload.h"

namespace blowfish {

class PriveletMechanism;

/// \brief Gθ_{k²} range-query mechanism (θ >= 2).
class GridThetaRangeMechanism {
 private:
  /// One submit's noisy releases as (k+1)×(k+1) row-major summed-area
  /// tables: entry (i, j) sums the cells [0, i)×[0, j). `ext` holds
  /// the external-line estimates, ± at the edge endpoints; `row` and
  /// `col` the row- and column-slab estimates at internal edges' black
  /// cells. Declared before the public section so RangeCursor can hold
  /// them by value.
  using Releases = SlabReleases;

 public:
  /// `grid_policy` is Gθ over a square k×k domain (GridPolicy, or a
  /// registered policy the planner has detected as one; a policy whose
  /// edge count differs is refused). Requires θ >= 2 and k divisible by
  /// the block side s = θ/2. The stretch is certified against the given
  /// policy's graph; the guarantee names the canonical G^θ_{kxk}.
  static Result<std::unique_ptr<GridThetaRangeMechanism>> Create(
      const Policy& grid_policy, size_t theta);

  /// Answers every query of `workload` (a 2D range workload over the
  /// k×k domain) under (ε, Gθ_{k²})-Blowfish privacy.
  Vector AnswerRanges(const RangeWorkload& workload, const Vector& x,
                      double epsilon, Rng* rng) const;

  /// Split entry points for multi-trial benchmarking: the database
  /// transform is noise-free and reusable across trials.
  Vector PrecomputeTransformed(const Vector& x) const {
    return transform_.TransformDatabase(x);
  }
  /// Length of the transformed (spanner-edge-domain) database; used
  /// by restore paths to validate a persisted transform's shape.
  size_t num_spanner_edges() const { return transform_.num_edges(); }
  /// Draws and tabulates in the calling thread's ReleaseWorkspace, so a
  /// warm call allocates only the answers.
  Vector AnswerRangesOnTransformed(const RangeWorkload& workload,
                                   const Vector& xg, double n,
                                   double epsilon, Rng* rng) const;

  /// \brief Resumable form of AnswerRangesOnTransformed. The noisy
  /// slab/line releases — the whole privacy-relevant part of the
  /// submit — are drawn and tabulated at construction; AnswerNext()
  /// then reconstructs queries in O(1) each, strictly in workload
  /// order, any number at a time, as pure post-processing of those
  /// releases. Concatenating every block is bit-identical to the
  /// one-shot call with the same rng stream. Not thread-safe; the
  /// owning mechanism must outlive the cursor.
  class RangeCursor {
   public:
    /// Appends up to `count` answers (fewer at the tail) for queries
    /// [position(), position() + count) to `out`; returns how many
    /// were produced (0 once exhausted).
    size_t AnswerNext(size_t count, Vector* out);

    size_t position() const { return next_; }
    size_t total() const { return workload_.num_queries(); }
    bool done() const { return next_ >= workload_.num_queries(); }

   private:
    friend class GridThetaRangeMechanism;
    RangeCursor(const GridThetaRangeMechanism* mech, RangeWorkload workload,
                Releases releases, double n)
        : mech_(mech),
          workload_(std::move(workload)),
          releases_(std::move(releases)),
          n_(n) {}

    const GridThetaRangeMechanism* mech_;
    RangeWorkload workload_;
    Releases releases_;
    double n_;
    size_t next_ = 0;
  };

  /// Draws this submit's releases and positions a cursor at query 0.
  /// Same preconditions as AnswerRangesOnTransformed; the cursor
  /// takes ownership of the workload, so the caller's request may die
  /// first.
  std::unique_ptr<RangeCursor> BeginRanges(RangeWorkload workload,
                                           const Vector& xg, double n,
                                           double epsilon, Rng* rng) const;

  /// Full-histogram release x̂ (all k² cells, flattened row-major) into
  /// `out`: the range reconstruction evaluated at every unit cell,
  /// O(k²) in all, so it is bit-identical to answering the unit-cell
  /// ranges through AnswerRangesOnTransformed.
  void ReleaseHistogramOnTransformed(const Vector& xg, double n,
                                     double epsilon, Rng* rng,
                                     ReleaseWorkspace* ws, Vector* out) const;

  PrivacyGuarantee Guarantee(double epsilon) const;
  int64_t stretch() const { return stretch_; }
  size_t block() const { return block_; }
  std::string name() const { return "Transformed+SlabPrivelet"; }

 private:
  GridThetaRangeMechanism() = default;

  friend class GridThetaRangeMechanismTestPeer;

  /// One submit's noisy estimates: ext per spanner edge; row and col
  /// per cell, read only at internal edges' black cells.
  using Estimates = SlabReleases;

  /// Draws the submit's noise at ε' = ε/ℓ — the only randomized step —
  /// into `est`, with the black-cell grid and the Privelet buffers in
  /// `ws` (`est` may be ws->slab_estimates).
  void DrawEstimates(const Vector& xg, double epsilon, Rng* rng,
                     ReleaseWorkspace* ws, Estimates* est) const;
  /// Folds the estimates into the summed-area tables.
  void Tabulate(const Estimates& est, Releases* rel) const;

  /// Reconstructs the range [r1, r2]×[c1, c2] (inclusive) from the
  /// tables (the Figure 7d strip classification); the one-shot path,
  /// the cursor and the histogram release all call exactly this, so
  /// their answers are bit-identical.
  double AnswerOneRange(size_t r1, size_t r2, size_t c1, size_t c2,
                        const Releases& releases, double n) const;

  size_t k_ = 0;
  size_t theta_ = 0;
  size_t block_ = 0;
  int64_t stretch_ = 0;
  PolicyTransform transform_;  // over the spanner policy H
  std::string original_policy_name_;

  // Per-edge metadata (index = P_G column = spanner edge index).
  struct EdgeInfo {
    bool internal = false;
    size_t u = 0, v = 0;  // endpoints; an internal edge runs black -> red
  };
  std::vector<EdgeInfo> edge_info_;
  // External line groups: edge indices ordered along the line.
  std::vector<std::vector<size_t>> external_lines_;
  // Built once in Create: k/s-edge lines, s×k row and k×s column slabs.
  std::shared_ptr<const PriveletMechanism> line_privelet_;
  std::shared_ptr<const PriveletMechanism> row_privelet_;
  std::shared_ptr<const PriveletMechanism> col_privelet_;
};

}  // namespace blowfish

#endif  // BLOWFISH_CORE_MECHANISMS_KD_H_
