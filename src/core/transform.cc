#include "core/transform.h"

#include "common/check.h"

namespace blowfish {

Result<PolicyTransform> PolicyTransform::Create(Policy policy,
                                                size_t prefer_removed) {
  if (policy.graph.num_edges() == 0) {
    return Status::InvalidArgument(
        "policy graph has no edges; nothing is protected");
  }
  PolicyTransform t;
  t.policy_ = std::move(policy);
  t.reduction_ = ReducePolicyGraph(t.policy_.graph, prefer_removed);
  t.pg_ = BuildPgMatrix(t.reduction_.graph);
  // Root a BFS spanning tree at ⊥ and record parent edges with signs.
  // Every component of the reduced graph touches ⊥, so the tree spans
  // every kept vertex.
  const Graph& g = t.reduction_.graph;
  const size_t kept = g.num_vertices();
  t.parent_edge_.assign(kept, SIZE_MAX);
  t.parent_sign_.assign(kept, 0.0);
  // bfs_order_ doubles as the queue, and a set parent edge marks a
  // visited vertex. The search starts from ⊥'s neighbours, in ascending
  // vertex order.
  t.bfs_order_.reserve(kept);
  for (const Graph::Incidence& inc : g.Neighbors(Graph::kBottom)) {
    t.parent_edge_[inc.neighbor] = inc.edge;
    t.parent_sign_[inc.neighbor] = 1.0;  // ⊥-edge column: +1 at u
    t.bfs_order_.push_back(inc.neighbor);
  }
  for (size_t head = 0; head < t.bfs_order_.size(); ++head) {
    const size_t u = t.bfs_order_[head];
    for (const Graph::Incidence& inc : g.Neighbors(u)) {
      const size_t w = inc.neighbor;
      if (w == Graph::kBottom || t.parent_edge_[w] != SIZE_MAX) continue;
      t.parent_edge_[w] = inc.edge;
      // Column of edge e = (a, b): +1 at a, -1 at b.
      t.parent_sign_[w] = (g.edges()[inc.edge].u == w) ? 1.0 : -1.0;
      t.bfs_order_.push_back(w);
    }
  }
  BF_CHECK_EQ(t.bfs_order_.size(), kept);
  // Connected through ⊥ on kept + 1 vertices: a tree iff kept edges.
  t.is_tree_ = g.num_edges() == kept;
  return t;
}

SparseMatrix PolicyTransform::TransformWorkload(const SparseMatrix& w) const {
  BF_CHECK_EQ(w.cols(), policy_.domain_size());
  const SparseMatrix reduced = ReduceWorkloadMatrix(w, reduction_);
  return reduced.Multiply(pg_);
}

Vector PolicyTransform::TransformDatabase(const Vector& x) const {
  BF_CHECK_EQ(x.size(), policy_.domain_size());
  const Vector reduced = ReduceDatabase(x, reduction_);
  const Graph& g = reduction_.graph;
  Vector xg(g.num_edges(), 0.0);
  // Leaves-first sweep over the BFS tree: non-tree edges stay 0, and
  // each vertex determines its parent edge weight from its own count
  // and its already-solved child edges.
  for (size_t i = bfs_order_.size(); i-- > 0;) {
    const size_t u = bfs_order_[i];
    double val = reduced[u];
    for (const Graph::Incidence& inc : g.Neighbors(u)) {
      if (inc.edge == parent_edge_[u]) continue;
      const double sign = (g.edges()[inc.edge].u == u) ? 1.0 : -1.0;
      val -= sign * xg[inc.edge];
    }
    xg[parent_edge_[u]] = parent_sign_[u] * val;
  }
  return xg;
}

Vector PolicyTransform::ReconstructHistogram(
    const Vector& xg_estimate, const Vector& component_totals) const {
  Vector kept, out;
  ReconstructHistogram(xg_estimate, component_totals.data(),
                       component_totals.size(), &kept, &out);
  return out;
}

void PolicyTransform::ReconstructHistogram(const Vector& xg_estimate,
                                           const double* component_totals,
                                           size_t num_totals, Vector* kept,
                                           Vector* out) const {
  BF_CHECK_EQ(xg_estimate.size(), pg_.cols());
  BF_CHECK_EQ(num_totals, reduction_.removed.size());
  pg_.MultiplyVector(xg_estimate, kept);
  const Vector& kept_estimate = *kept;
  out->assign(policy_.domain_size(), 0.0);
  for (size_t j = 0; j < reduction_.new_to_old.size(); ++j) {
    (*out)[reduction_.new_to_old[j]] = kept_estimate[j];
  }
  for (size_t r = 0; r < reduction_.removed.size(); ++r) {
    const size_t rv = reduction_.removed[r];
    double others = 0.0;
    for (size_t j = 0; j < reduction_.new_to_old.size(); ++j) {
      if (reduction_.removed_of_component[j] == rv) others += kept_estimate[j];
    }
    (*out)[rv] = component_totals[r] - others;
  }
}

Vector PolicyTransform::ComponentTotals(const Vector& x) const {
  BF_CHECK_EQ(x.size(), policy_.domain_size());
  Vector totals;
  totals.reserve(reduction_.removed.size());
  for (size_t rv : reduction_.removed) {
    double total = x[rv];
    for (size_t j = 0; j < reduction_.new_to_old.size(); ++j) {
      if (reduction_.removed_of_component[j] == rv) {
        total += x[reduction_.new_to_old[j]];
      }
    }
    totals.push_back(total);
  }
  return totals;
}

double PolicyTransform::PolicySensitivity(const SparseMatrix& w) const {
  return TransformWorkload(w).MaxColumnL1();
}

}  // namespace blowfish
