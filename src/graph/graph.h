// Undirected policy graph over a finite domain, with the paper's
// special vertex ⊥ ("bottom", Definition 3.1). Domain values are
// vertices 0..k-1; ⊥ is represented by the sentinel Graph::kBottom.
// An edge (u, v) says an adversary must not distinguish value u from
// value v; an edge (u, ⊥) says presence of a tuple with value u must
// not be distinguishable from its absence (Definition 3.2).

#ifndef BLOWFISH_GRAPH_GRAPH_H_
#define BLOWFISH_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"

namespace blowfish {

/// \brief Immutable undirected graph without self-loops or parallel
/// edges over domain vertices plus an optional bottom vertex, in CSR
/// form: the edges in the given order (the edge index doubles as the
/// column index of the policy matrix P_G), per-vertex offsets and one
/// flat incidence array.
class Graph {
 public:
  static constexpr size_t kBottom = std::numeric_limits<size_t>::max();

  struct Edge {
    size_t u;  ///< domain vertex, always < num_vertices()
    size_t v;  ///< domain vertex or kBottom
  };

  struct Incidence {
    size_t neighbor;  ///< kBottom for bottom edges
    size_t edge;      ///< index into edges()
  };

  /// One vertex's incidences: a view into the flat array.
  struct Incidences {
    const Incidence* first;
    const Incidence* last;
    const Incidence* begin() const { return first; }
    const Incidence* end() const { return last; }
    size_t size() const { return static_cast<size_t>(last - first); }
    const Incidence& operator[](size_t i) const { return first[i]; }
  };

  /// Empty graph (no vertices); useful as a placeholder before
  /// assignment.
  Graph() = default;

  /// The graph on `num_vertices` vertices with `edges` in that order;
  /// an edge may name kBottom at either end (it is stored as v). Dies
  /// on a self-loop, an endpoint out of range or a duplicate edge,
  /// checked in O(V + E).
  explicit Graph(size_t num_vertices, std::vector<Edge> edges = {});

  /// The same check for edge lists read from outside the program:
  /// InvalidArgument naming the defect instead of dying.
  static Result<Graph> FromEdges(size_t num_vertices, std::vector<Edge> edges);

  /// True if (u, v) is an edge (order-insensitive).
  bool HasEdge(size_t u, size_t v) const;

  size_t num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return edges_.size(); }
  /// Number of edges incident to bottom.
  size_t num_bottom_edges() const {
    return offsets_.empty() ? 0 : Degree(kBottom);
  }
  bool has_bottom() const { return num_bottom_edges() > 0; }

  const std::vector<Edge>& edges() const { return edges_; }

  /// Incidences of a domain vertex by ascending edge index, or of
  /// kBottom (row num_vertices()) by ascending vertex.
  Incidences Neighbors(size_t u) const {
    const size_t row = u == kBottom ? num_vertices_ : u;
    BF_CHECK_LT(row + 1, offsets_.size());
    return {incidences_.data() + offsets_[row],
            incidences_.data() + offsets_[row + 1]};
  }

  /// Degree counting bottom edges.
  size_t Degree(size_t u) const { return Neighbors(u).size(); }

 private:
  Status Build(size_t num_vertices, std::vector<Edge> edges);

  size_t num_vertices_ = 0;
  std::vector<Edge> edges_;
  std::vector<size_t> offsets_;  ///< num_vertices() + 2 entries
  std::vector<Incidence> incidences_;
};

}  // namespace blowfish

#endif  // BLOWFISH_GRAPH_GRAPH_H_
