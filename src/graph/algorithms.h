// Graph algorithms used by the transformational-equivalence machinery:
// shortest paths (the Blowfish metric of Equation 1), connectivity
// (connected policies, Appendix E), spanning trees, and the stretch
// certification behind subgraph approximation (Lemma 4.5).

#ifndef BLOWFISH_GRAPH_ALGORITHMS_H_
#define BLOWFISH_GRAPH_ALGORITHMS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace blowfish {

/// Unweighted BFS distances from `source` to every domain vertex and to
/// bottom. `source` may be Graph::kBottom. Unreachable = -1. The last
/// entry of the result (index num_vertices()) is the distance to ⊥.
std::vector<int64_t> BfsDistances(const Graph& g, size_t source);

/// Shortest-path distance between two vertices (either may be kBottom);
/// -1 if disconnected. This is dist_G of Equation (1).
int64_t Distance(const Graph& g, size_t u, size_t v);

/// Component id per domain vertex; ⊥ (if present) participates in
/// connectivity. Returns number of components via out param.
std::vector<size_t> ConnectedComponents(const Graph& g,
                                        size_t* num_components);

/// True if all domain vertices and ⊥ (when present) form one component.
bool IsConnected(const Graph& g);

/// True if the graph (counting ⊥ as a vertex when present) is a tree:
/// connected with exactly (#vertices - 1) edges.
bool IsTree(const Graph& g);

/// BFS spanning tree rooted at `root` (domain vertex or kBottom).
/// Requires a connected graph. Preserves the vertex set; edges are a
/// subset of g's edges.
Graph BfsSpanningTree(const Graph& g, size_t root);

/// BFS spanning forest: one BFS tree per component (⊥-grounded
/// components are rooted at ⊥). Every policy edge stays within its
/// component, so MaxEdgeStretch(g, forest) certifies a per-component
/// stretch and the forest reduces to a single tree through the shared
/// ⊥ vertex (Appendix E / Case III).
Graph BfsSpanningForest(const Graph& g);

/// Maximum over edges (u,v) of `g` of the distance between u and v in
/// `h` — the stretch ℓ of Lemma 4.5 when h spans g's vertices. Returns
/// -1 if some edge of g has disconnected endpoints in h.
///
/// Exact, and local: one BFS over h per source vertex of g's edges,
/// stopping as soon as every distinct g-neighbour of that source is
/// reached. The cost is the ball of h each search explores, so it is
/// near-linear in k for bounded-stretch spanners and O(k·|h|) only in
/// the worst case; scratch arrays are allocated once for all sources.
int64_t MaxEdgeStretch(const Graph& g, const Graph& h);

}  // namespace blowfish

#endif  // BLOWFISH_GRAPH_ALGORITHMS_H_
