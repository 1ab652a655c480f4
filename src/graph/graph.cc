#include "graph/graph.h"

#include <algorithm>
#include <utility>

namespace blowfish {

Graph::Graph(size_t num_vertices, std::vector<Edge> edges) {
  const Status built = Build(num_vertices, std::move(edges));
  BF_CHECK_MSG(built.ok(), built.message());
}

Result<Graph> Graph::FromEdges(size_t num_vertices, std::vector<Edge> edges) {
  Graph g;
  BF_RETURN_NOT_OK(g.Build(num_vertices, std::move(edges)));
  return g;
}

Status Graph::Build(size_t n, std::vector<Edge> edges) {
  // Row sizes are counted at offsets_[row + 2] (⊥ is row n), so filling
  // at offsets_[row + 1] leaves offsets_[row] at each row's start.
  offsets_.assign(n + 3, 0);
  for (Edge& e : edges) {
    if (e.u == kBottom) std::swap(e.u, e.v);
    if (e.u == e.v) {
      return Status::InvalidArgument("self loops are not valid policy edges");
    }
    if (e.u >= n || (e.v >= n && e.v != kBottom)) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    ++offsets_[e.u + 2];
    ++offsets_[std::min(e.v, n) + 2];
  }
  for (size_t i = 2; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  incidences_.resize(2 * edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {  // domain rows, by edge index
    const Edge& e = edges[i];
    incidences_[offsets_[e.u + 1]++] = {e.v, i};
    if (e.v != kBottom) incidences_[offsets_[e.v + 1]++] = {e.u, i};
  }
  // A duplicate repeats a neighbour within a row: stamp each neighbour
  // (⊥ at n) with row + 1. The same scan fills ⊥'s row by vertex.
  std::vector<size_t> stamp(n + 1, 0);
  for (size_t u = 0; u < n; ++u) {
    for (size_t j = offsets_[u]; j < offsets_[u + 1]; ++j) {
      const size_t w = std::min(incidences_[j].neighbor, n);
      if (std::exchange(stamp[w], u + 1) == u + 1) {
        return Status::InvalidArgument("duplicate policy edge");
      }
      if (w == n) incidences_[offsets_[n + 1]++] = {u, incidences_[j].edge};
    }
  }
  offsets_.pop_back();
  num_vertices_ = n;
  edges_ = std::move(edges);
  return Status::OK();
}

bool Graph::HasEdge(size_t u, size_t v) const {
  if (u == kBottom) std::swap(u, v);
  if (u == kBottom) return false;
  for (const Incidence& inc : Neighbors(u)) {
    if (inc.neighbor == v) return true;
  }
  return false;
}

}  // namespace blowfish
