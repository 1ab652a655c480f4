#include "graph/algorithms.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace blowfish {

namespace {

// Internally ⊥ is mapped to index n so BFS can treat it uniformly.
size_t InternalIndex(const Graph& g, size_t v) {
  return v == Graph::kBottom ? g.num_vertices() : v;
}

// Breadth-first search from internal vertex `start` over the vertices
// whose `label` is still SIZE_MAX: labels each with `mark(parent, w)`'s
// result as it is found, parent first. `queue` is scratch of n + 1.
template <typename Mark>
void Bfs(const Graph& g, size_t start, std::vector<size_t>* label,
         std::vector<size_t>* queue, Mark mark) {
  const size_t n = g.num_vertices();
  size_t head = 0;
  size_t tail = 0;
  (*label)[start] = mark(SIZE_MAX, start);
  (*queue)[tail++] = start;
  while (head < tail) {
    const size_t u = (*queue)[head++];
    for (const Graph::Incidence& inc :
         g.Neighbors(u == n ? Graph::kBottom : u)) {
      const size_t w = InternalIndex(g, inc.neighbor);
      if ((*label)[w] != SIZE_MAX) continue;
      (*label)[w] = mark(u, w);
      (*queue)[tail++] = w;
    }
  }
}

}  // namespace

std::vector<int64_t> BfsDistances(const Graph& g, size_t source) {
  const size_t n = g.num_vertices();
  const size_t s = InternalIndex(g, source);
  BF_CHECK_LE(s, n);
  std::vector<size_t> depth(n + 1, SIZE_MAX), queue(n + 1);
  Bfs(g, s, &depth, &queue, [&](size_t parent, size_t) {
    return parent == SIZE_MAX ? 0 : depth[parent] + 1;
  });
  // SIZE_MAX (unreached) converts to -1.
  return std::vector<int64_t>(depth.begin(), depth.end());
}

int64_t Distance(const Graph& g, size_t u, size_t v) {
  const std::vector<int64_t> dist = BfsDistances(g, u);
  return dist[InternalIndex(g, v)];
}

std::vector<size_t> ConnectedComponents(const Graph& g,
                                        size_t* num_components) {
  // One BFS per component over shared scratch: O(V + E) in all. ⊥ is
  // labelled with the component of its first neighbour.
  const size_t n = g.num_vertices();
  std::vector<size_t> comp(n + 1, SIZE_MAX), queue(n + 1);
  size_t next = 0;
  for (size_t start = 0; start < n; ++start) {
    if (comp[start] != SIZE_MAX) continue;
    Bfs(g, start, &comp, &queue, [next](size_t, size_t) { return next; });
    ++next;
  }
  if (num_components != nullptr) *num_components = next;
  comp.resize(n);  // callers index by domain vertex
  return comp;
}

bool IsConnected(const Graph& g) {
  size_t n_comp = 0;
  ConnectedComponents(g, &n_comp);
  return n_comp <= 1;
}

bool IsTree(const Graph& g) {
  size_t n_comp = 0;
  ConnectedComponents(g, &n_comp);
  return IsTree(g, n_comp);
}

bool IsTree(const Graph& g, size_t num_components) {
  const size_t vertices = g.num_vertices() + (g.has_bottom() ? 1 : 0);
  return num_components <= 1 && g.num_edges() + 1 == vertices;
}

Graph BfsSpanningForest(const Graph& g) {
  const size_t n = g.num_vertices();
  const auto vertex = [n](size_t i) { return i == n ? Graph::kBottom : i; };
  std::vector<size_t> label(n + 1, SIZE_MAX), queue(n + 1);
  std::vector<Graph::Edge> forest;
  forest.reserve(n);
  const auto grow = [&](size_t root) {  // each non-root joins its parent
    Bfs(g, root, &label, &queue, [&](size_t parent, size_t w) -> size_t {
      if (parent != SIZE_MAX) forest.push_back({vertex(parent), vertex(w)});
      return 0;
    });
  };
  if (g.has_bottom()) grow(n);
  for (size_t v = 0; v < n; ++v) {
    if (label[v] == SIZE_MAX) grow(v);
  }
  return Graph(n, std::move(forest));
}

int64_t MaxEdgeStretch(const Graph& g, const Graph& h) {
  BF_CHECK_EQ(g.num_vertices(), h.num_vertices());
  const size_t n = g.num_vertices();
  // Stamped with source + 1, so they reset in O(1) per source.
  std::vector<size_t> seen(n + 1, 0), want(n + 1, 0), queue(n + 1);
  int64_t worst = 0;
  for (size_t src = 0; src < n; ++src) {
    const size_t stamp = src + 1;
    size_t remaining = 0;
    // Distances are symmetric, so each g-edge is checked once, from its
    // smaller endpoint (⊥, at n, is never a source).
    for (const Graph::Incidence& inc : g.Neighbors(src)) {
      const size_t t = InternalIndex(g, inc.neighbor);
      if (t < src) continue;
      remaining += want[t] != stamp;
      want[t] = stamp;
    }
    size_t head = 0;
    size_t tail = 0;
    const auto visit = [&](size_t w) {
      if (seen[w] == stamp) return;
      seen[w] = stamp;
      queue[tail++] = w;
      remaining -= want[w] == stamp;
    };
    visit(src);
    // BFS one level at a time. A vertex's distance is fixed when it is
    // first reached, so the search stops with the last target's level.
    int64_t level = 0;
    while (remaining > 0) {
      if (head == tail) return -1;  // some target is unreachable in h
      ++level;
      for (const size_t end = tail; head < end && remaining > 0; ++head) {
        const size_t u = queue[head];
        for (const Graph::Incidence& inc :
             h.Neighbors(u == n ? Graph::kBottom : u)) {
          visit(InternalIndex(h, inc.neighbor));
        }
      }
    }
    worst = std::max(worst, level);
  }
  return worst;
}

}  // namespace blowfish
