// Constructors for the policy graphs studied in the paper (Section 3
// and Section 5.1) plus classical graphs used in tests and lower
// bounds.

#ifndef BLOWFISH_GRAPH_BUILDERS_H_
#define BLOWFISH_GRAPH_BUILDERS_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace blowfish {

/// \brief Shape of a (possibly multi-dimensional) domain; vertex ids
/// are row-major flattened grid coordinates.
class DomainShape {
 public:
  DomainShape() = default;
  explicit DomainShape(std::vector<size_t> dims);

  size_t num_dims() const { return dims_.size(); }
  size_t dim(size_t i) const { return dims_[i]; }
  const std::vector<size_t>& dims() const { return dims_; }
  size_t size() const { return size_; }

  /// Row-major flatten of grid coordinates.
  size_t Flatten(const std::vector<size_t>& coords) const;
  /// Inverse of Flatten, into `coords` (resized; allocates nothing once
  /// it has the capacity) or a new vector.
  void Unflatten(size_t index, std::vector<size_t>* coords) const;
  std::vector<size_t> Unflatten(size_t index) const {
    std::vector<size_t> coords;
    Unflatten(index, &coords);
    return coords;
  }
  /// L1 distance between two flattened points; allocates nothing.
  size_t L1Distance(size_t a, size_t b) const;

 private:
  std::vector<size_t> dims_;
  size_t size_ = 0;
};

/// Line graph G^1_k: a_i -- a_{i+1} (Section 3, "Line Graph"). Edge j
/// connects vertices j and j+1; no bottom vertex.
Graph LineGraph(size_t k);

/// Cycle on k vertices (used by Theorem 4.4's negative result).
Graph CycleGraph(size_t k);

/// Complete graph on k vertices: bounded differential privacy.
Graph CompleteGraph(size_t k);

/// Star to bottom: edges (u, ⊥) for all u — unbounded differential
/// privacy. P_G of this graph is the identity.
Graph StarBottomGraph(size_t k);

/// Distance-threshold graph G^θ over a d-dimensional grid domain
/// (Section 5.1): edge (u, v) iff 0 < L1(u, v) <= θ. θ=1 on a
/// 1-dimensional domain is the line graph; θ=1 on a 2-dimensional
/// domain is the grid graph of Section 5.2.2.
Graph DistanceThresholdGraph(const DomainShape& domain, size_t theta);

/// DistanceThresholdGraph(domain, theta).num_edges(), counted without
/// building the graph: every offset δ with 0 < ‖δ‖₁ <= θ joins
/// Π_i (n_i − |δ_i|) vertex pairs, and δ and −δ name the same edges.
size_t DistanceThresholdEdgeCount(const DomainShape& domain, size_t theta);

/// "Sensitive attribute" policy of Appendix E: domain = product of
/// attribute domains; u ~ v iff they differ in exactly one attribute
/// and that attribute is in `sensitive_dims`. Generally disconnected.
Graph SensitiveAttributeGraph(const DomainShape& domain,
                              const std::vector<size_t>& sensitive_dims);

}  // namespace blowfish

#endif  // BLOWFISH_GRAPH_BUILDERS_H_
