#include "graph/algorithms.h"

#include <algorithm>
#include <deque>

#include "common/check.h"

namespace blowfish {

namespace {

// Internally ⊥ is mapped to index n so BFS can treat it uniformly.
size_t InternalIndex(const Graph& g, size_t v) {
  return v == Graph::kBottom ? g.num_vertices() : v;
}

// Grows a BFS tree of g from internal vertex `start` over the vertices
// not yet `visited`, adding each tree edge to `tree` as it is found.
void GrowBfsTree(const Graph& g, size_t start, std::vector<bool>* visited,
                 Graph* tree) {
  const size_t n = g.num_vertices();
  std::deque<size_t> queue;
  (*visited)[start] = true;
  queue.push_back(start);
  while (!queue.empty()) {
    const size_t u = queue.front();
    queue.pop_front();
    if (u == n) {
      for (size_t w = 0; w < n; ++w) {
        if (!(*visited)[w] && g.HasEdge(w, Graph::kBottom)) {
          (*visited)[w] = true;
          tree->AddEdge(w, Graph::kBottom);
          queue.push_back(w);
        }
      }
      continue;
    }
    for (const Graph::Incidence& inc : g.Neighbors(u)) {
      const size_t w = InternalIndex(g, inc.neighbor);
      if (!(*visited)[w]) {
        (*visited)[w] = true;
        tree->AddEdge(u, inc.neighbor);
        queue.push_back(w);
      }
    }
  }
}

}  // namespace

std::vector<int64_t> BfsDistances(const Graph& g, size_t source) {
  const size_t n = g.num_vertices();
  std::vector<int64_t> dist(n + 1, -1);
  std::deque<size_t> queue;
  const size_t s = InternalIndex(g, source);
  BF_CHECK_LE(s, n);
  dist[s] = 0;
  queue.push_back(s);
  while (!queue.empty()) {
    const size_t u = queue.front();
    queue.pop_front();
    if (u == n) {
      // Expand from bottom: bottom's neighbors are all vertices with a
      // bottom edge; scan is O(V) but bottom is expanded at most once.
      for (size_t w = 0; w < n; ++w) {
        if (dist[w] == -1 && g.HasEdge(w, Graph::kBottom)) {
          dist[w] = dist[u] + 1;
          queue.push_back(w);
        }
      }
      continue;
    }
    for (const Graph::Incidence& inc : g.Neighbors(u)) {
      const size_t w = InternalIndex(g, inc.neighbor);
      if (dist[w] == -1) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

int64_t Distance(const Graph& g, size_t u, size_t v) {
  const std::vector<int64_t> dist = BfsDistances(g, u);
  return dist[InternalIndex(g, v)];
}

std::vector<size_t> ConnectedComponents(const Graph& g,
                                        size_t* num_components) {
  const size_t n = g.num_vertices();
  std::vector<size_t> comp(n + 1, SIZE_MAX);
  size_t next = 0;
  for (size_t start = 0; start <= n; ++start) {
    if (comp[start] != SIZE_MAX) continue;
    if (start == n && !g.has_bottom()) continue;  // ⊥ absent
    const std::vector<int64_t> dist =
        BfsDistances(g, start == n ? Graph::kBottom : start);
    for (size_t v = 0; v <= n; ++v) {
      if (dist[v] >= 0 && comp[v] == SIZE_MAX) comp[v] = next;
    }
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
  if (!IsConnected(g)) return false;
  const size_t vertices = g.num_vertices() + (g.has_bottom() ? 1 : 0);
  return g.num_edges() + 1 == vertices;
}

Graph BfsSpanningTree(const Graph& g, size_t root) {
  BF_CHECK_MSG(IsConnected(g), "spanning tree requires a connected graph");
  Graph tree(g.num_vertices());
  std::vector<bool> visited(g.num_vertices() + 1, false);
  GrowBfsTree(g, InternalIndex(g, root), &visited, &tree);
  return tree;
}

Graph BfsSpanningForest(const Graph& g) {
  const size_t n = g.num_vertices();
  Graph forest(n);
  std::vector<bool> visited(n + 1, false);
  if (g.has_bottom()) GrowBfsTree(g, n, &visited, &forest);
  for (size_t v = 0; v < n; ++v) {
    if (!visited[v]) GrowBfsTree(g, v, &visited, &forest);
  }
  return forest;
}

int64_t MaxEdgeStretch(const Graph& g, const Graph& h) {
  BF_CHECK_EQ(g.num_vertices(), h.num_vertices());
  const size_t n = g.num_vertices();
  // g's edges grouped by source (CSR): the partners of u, as internal
  // indices, are targets[first[u] .. first[u + 1]).
  std::vector<size_t> first(n + 2, 0);
  for (const Graph::Edge& e : g.edges()) ++first[e.u + 2];
  for (size_t i = 2; i < first.size(); ++i) first[i] += first[i - 1];
  std::vector<size_t> targets(g.num_edges());
  for (const Graph::Edge& e : g.edges()) {
    targets[first[e.u + 1]++] = InternalIndex(h, e.v);
  }
  // ⊥'s neighbours in h, in the order BfsDistances enqueues them.
  std::vector<size_t> bottom_neighbors;
  for (size_t w = 0; w < n; ++w) {
    if (h.HasEdge(w, Graph::kBottom)) bottom_neighbors.push_back(w);
  }

  // Stamped with source + 1, so they reset in O(1) per source.
  std::vector<size_t> seen(n + 1, 0), want(n + 1, 0), queue(n + 1);
  int64_t worst = 0;
  for (size_t src = 0; src < n; ++src) {
    const size_t stamp = src + 1;
    size_t remaining = 0;
    for (size_t i = first[src]; i < first[src + 1]; ++i) {
      remaining += want[targets[i]] != stamp;
      want[targets[i]] = stamp;
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
        if (u == n) {
          for (size_t w : bottom_neighbors) visit(w);
        } else {
          for (const Graph::Incidence& inc : h.Neighbors(u)) {
            visit(InternalIndex(h, inc.neighbor));
          }
        }
      }
    }
    worst = std::max(worst, level);
  }
  return worst;
}

}  // namespace blowfish
