// The transformational-equivalence engine (Section 4). For a policy G
// it materializes P_G (after the Case II/III reduction) and provides
// the two linear maps of the main theorems:
//
//   workload:  W  ->  W_G = W' P_G        (Theorems 4.1 / 4.3)
//   database:  x  ->  x_G with P_G x_G = x'
//
// plus the inverse map used by the uniform release protocol: given a
// noisy estimate x̃_G of the transformed database, reconstruct a
// full-domain histogram estimate x̂ with x̂' = P_G x̃_G and
// x̂[removed_v] = n_C − Σ_{j in C} x̂[j]. For every linear query q,
// q·x̂ equals the paper's reconstruction q_G·x̃_G + c(q, n) exactly,
// so mechanisms built on this engine are *literally* the paper's
// mechanisms (the transform tests verify the identity).
//
// x_G is computed by a leaves-first sweep over a BFS spanning tree
// rooted at ⊥, O(edges): tree edges carry the subtree masses and
// non-tree edges carry 0. It is exact, and integral for integer
// counts. When the reduced graph is a tree this is the unique x_G;
// otherwise it is one preimage among many (P_G x_G = x'), which is all
// a data-independent linear inner mechanism needs: its answers are the
// noise-free answers (a function of P_G x_G = x') plus noise that does
// not depend on x_G.

#ifndef BLOWFISH_CORE_TRANSFORM_H_
#define BLOWFISH_CORE_TRANSFORM_H_

#include "common/status.h"
#include "core/pg_matrix.h"
#include "core/policy.h"
#include "workload/workload.h"

namespace blowfish {

/// \brief Equivalence transform for one policy.
class PolicyTransform {
 public:
  /// Builds the transform. Fails if the policy graph is empty.
  /// `prefer_removed` forwards to ReducePolicyGraph (Example 4.1
  /// removes the rightmost line vertex, which is also our default for
  /// single-component graphs).
  static Result<PolicyTransform> Create(Policy policy,
                                        size_t prefer_removed = SIZE_MAX);

  const Policy& policy() const { return policy_; }
  const PolicyReduction& reduction() const { return reduction_; }
  const SparseMatrix& pg() const { return pg_; }
  /// Number of columns of P_G = number of policy edges.
  size_t num_edges() const { return pg_.cols(); }
  /// True if the reduced graph (with ⊥) is a tree — the Theorem 4.3
  /// regime where equivalence holds for every mechanism.
  bool is_tree() const { return is_tree_; }

  /// W_G = W' P_G for a workload over the original domain.
  SparseMatrix TransformWorkload(const SparseMatrix& w) const;

  /// A preimage x_G with P_G x_G = x' for a database over the
  /// original domain (the unique one when is_tree()).
  Vector TransformDatabase(const Vector& x) const;

  /// Lifts an edge-domain estimate back to a full-domain histogram
  /// estimate. `component_total` supplies n_C for each removed vertex
  /// (ascending order, matching reduction().removed); for connected
  /// policies this is a single value — the public database size n.
  Vector ReconstructHistogram(const Vector& xg_estimate,
                              const Vector& component_totals) const;

  /// The same reconstruction into `out` (resized), from `num_totals`
  /// totals, with P_G x̃_G over the kept vertices in `kept`; allocates
  /// nothing once both have the capacity.
  void ReconstructHistogram(const Vector& xg_estimate,
                            const double* component_totals,
                            size_t num_totals, Vector* kept,
                            Vector* out) const;

  /// Per-component totals of a database, ordered like
  /// reduction().removed. (Public information under the policy.)
  Vector ComponentTotals(const Vector& x) const;

  /// Policy-specific L1 sensitivity ∆_W(G) of a workload
  /// (Definition 4.1) — equals the max column L1 norm of W_G
  /// (Lemma 4.7).
  double PolicySensitivity(const SparseMatrix& w) const;

  /// Empty placeholder; only assignable. Mechanisms hold a transform by
  /// value and populate it in their factory functions.
  PolicyTransform() = default;

 private:
  Policy policy_;
  PolicyReduction reduction_;
  SparseMatrix pg_;
  bool is_tree_ = false;

  // BFS spanning tree rooted at ⊥: for each kept vertex, its parent
  // edge and the sign of the vertex inside that edge column.
  std::vector<size_t> bfs_order_;     // kept vertices, root(⊥) side first
  std::vector<size_t> parent_edge_;   // edge index per kept vertex
  std::vector<double> parent_sign_;   // +1 if vertex is the +1 slot

  // component id per removed vertex — membership of kept vertices is in
  // reduction_.removed_of_component.
};

}  // namespace blowfish

#endif  // BLOWFISH_CORE_TRANSFORM_H_
