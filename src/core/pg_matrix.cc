#include "core/pg_matrix.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "graph/algorithms.h"

namespace blowfish {

SparseMatrix BuildPgMatrix(const Graph& g) {
  BF_CHECK_MSG(g.has_bottom(),
               "Case-I P_G requires ⊥-edges; reduce the policy first");
  // Row u of P_G is u's incidence list, already in ascending column
  // (edge) order: +1 where u is the edge's first endpoint, else -1.
  const size_t k = g.num_vertices();
  std::vector<size_t> row_ptr(k + 1, 0), cols;
  std::vector<double> values;
  cols.reserve(2 * g.num_edges() - g.num_bottom_edges());
  values.reserve(cols.capacity());
  for (size_t u = 0; u < k; ++u) {
    for (const Graph::Incidence& inc : g.Neighbors(u)) {
      cols.push_back(inc.edge);
      values.push_back(g.edges()[inc.edge].u == u ? 1.0 : -1.0);
    }
    row_ptr[u + 1] = cols.size();
  }
  return SparseMatrix::FromCsr(k, g.num_edges(), std::move(row_ptr),
                               std::move(cols), std::move(values));
}

PolicyReduction ReducePolicyGraph(const Graph& g, size_t prefer_removed) {
  const size_t k = g.num_vertices();
  PolicyReduction red;

  // Component structure, with ⊥ participating in connectivity: the one
  // component holding ⊥ (if any) is "grounded".
  size_t num_components = 0;
  const std::vector<size_t> comp = ConnectedComponents(g, &num_components);
  const size_t grounded =
      g.has_bottom() ? comp[g.Neighbors(Graph::kBottom)[0].neighbor] : SIZE_MAX;

  // Pick the removed vertex for each ungrounded component: the largest
  // index, unless prefer_removed lies in that component.
  std::vector<size_t> removed_vertex_of(num_components, SIZE_MAX);
  for (size_t u = 0; u < k; ++u) {
    if (comp[u] != grounded) removed_vertex_of[comp[u]] = u;
  }
  if (prefer_removed != SIZE_MAX) {
    BF_CHECK_LT(prefer_removed, k);
    const size_t c = comp[prefer_removed];
    if (c != grounded) removed_vertex_of[c] = prefer_removed;
  }

  // Index maps; old_to_new holds SIZE_MAX, which is Graph::kBottom, for
  // a removed vertex.
  red.old_to_new.assign(k, 0);
  for (size_t rv : removed_vertex_of) {
    if (rv != SIZE_MAX) {
      red.old_to_new[rv] = SIZE_MAX;
      red.removed.push_back(rv);
    }
  }
  std::sort(red.removed.begin(), red.removed.end());
  red.new_to_old.reserve(k - red.removed.size());
  for (size_t u = 0; u < k; ++u) {
    if (red.old_to_new[u] != SIZE_MAX) {
      red.old_to_new[u] = red.new_to_old.size();
      red.new_to_old.push_back(u);
    }
  }
  red.removed_of_component.assign(red.new_to_old.size(), SIZE_MAX);
  for (size_t j = 0; j < red.new_to_old.size(); ++j) {
    red.removed_of_component[j] = removed_vertex_of[comp[red.new_to_old[j]]];
  }

  // The edge list over kept vertices, in g's order; removed endpoints
  // become ⊥. No two edges are parallel: a kept vertex with a ⊥-edge in
  // g lies in the grounded component, which loses no vertex, and any
  // other kept vertex has at most one removed neighbour.
  std::vector<Graph::Edge> edges;
  edges.reserve(g.num_edges());
  for (const Graph::Edge& e : g.edges()) {
    size_t nu = red.old_to_new[e.u];
    size_t nv = e.v == Graph::kBottom ? Graph::kBottom : red.old_to_new[e.v];
    if (nu == Graph::kBottom) std::swap(nu, nv);
    BF_CHECK_MSG(nu != Graph::kBottom,
                 "removed vertices must come from distinct components");
    edges.push_back({nu, nv});
  }
  red.graph = Graph(red.new_to_old.size(), std::move(edges));
  return red;
}

SparseMatrix ReduceWorkloadMatrix(const SparseMatrix& w,
                                  const PolicyReduction& reduction) {
  const size_t k = reduction.old_to_new.size();
  BF_CHECK_EQ(w.cols(), k);
  const size_t kept = reduction.new_to_old.size();
  // Kept columns per removed vertex, for the q[j]·(n_C − Σ x) rewrite.
  std::vector<std::vector<size_t>> members;
  std::vector<size_t> member_slot(k, SIZE_MAX);
  for (size_t nc = 0; nc < kept; ++nc) {
    const size_t rv = reduction.removed_of_component[nc];
    if (rv == SIZE_MAX) continue;
    if (member_slot[rv] == SIZE_MAX) {
      member_slot[rv] = members.size();
      members.emplace_back();
    }
    members[member_slot[rv]].push_back(nc);
  }
  std::vector<Triplet> triplets;
  for (size_t r = 0; r < w.rows(); ++r) {
    const SparseMatrix::RowView row = w.Row(r);
    for (size_t i = 0; i < row.nnz; ++i) {
      const size_t j = row.cols[i];
      const double v = row.values[i];
      const size_t nj = reduction.old_to_new[j];
      if (nj != SIZE_MAX) {
        // Kept column: contributes +v at its new index.
        triplets.push_back({r, nj, v});
      } else {
        // Removed column j = removed vertex of some component C:
        // q[j] x[j] = q[j] (n_C - sum_{i in C, i != j} x[i]) subtracts
        // q[j] from every kept column of C.
        for (size_t nc : members[member_slot[j]]) {
          triplets.push_back({r, nc, -v});
        }
      }
    }
  }
  return SparseMatrix::FromTriplets(w.rows(), kept, std::move(triplets));
}

Vector ReduceDatabase(const Vector& x, const PolicyReduction& reduction) {
  BF_CHECK_EQ(x.size(), reduction.old_to_new.size());
  Vector out;
  out.reserve(reduction.new_to_old.size());
  for (size_t old : reduction.new_to_old) out.push_back(x[old]);
  return out;
}

}  // namespace blowfish
