#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/algorithms.h"
#include "graph/builders.h"
#include "graph/graph.h"

namespace blowfish {
namespace {

TEST(Graph, AddAndQueryEdges) {
  const Graph g(4, {{0, 1}, {2, Graph::kBottom}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(Graph::kBottom, 2));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.has_bottom());
  EXPECT_EQ(g.num_bottom_edges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(3), 0u);
}

TEST(Graph, NeighborsListEdgesInOrderAndBottomByVertex) {
  // ⊥ may be named at either end; it is stored as v.
  const Graph g(4, {{3, Graph::kBottom}, {0, 1}, {Graph::kBottom, 1},
                    {1, 2}});
  EXPECT_EQ(g.edges()[2].u, 1u);
  EXPECT_EQ(g.edges()[2].v, Graph::kBottom);
  const Graph::Incidences one = g.Neighbors(1);
  ASSERT_EQ(one.size(), 3u);
  EXPECT_EQ(one[0].neighbor, 0u);
  EXPECT_EQ(one[0].edge, 1u);
  EXPECT_EQ(one[1].neighbor, Graph::kBottom);
  EXPECT_EQ(one[1].edge, 2u);
  EXPECT_EQ(one[2].neighbor, 2u);
  EXPECT_EQ(one[2].edge, 3u);
  const Graph::Incidences bottom = g.Neighbors(Graph::kBottom);
  ASSERT_EQ(bottom.size(), 2u);
  EXPECT_EQ(bottom[0].neighbor, 1u);
  EXPECT_EQ(bottom[0].edge, 2u);
  EXPECT_EQ(bottom[1].neighbor, 3u);
  EXPECT_EQ(bottom[1].edge, 0u);
  EXPECT_EQ(g.Degree(Graph::kBottom), 2u);
}

TEST(GraphDeath, RejectsSelfLoopsAndDuplicates) {
  EXPECT_DEATH(Graph(3, {{0, 1}, {1, 0}}), "duplicate");
  EXPECT_DEATH(Graph(3, {{0, 1}, {2, 2}}), "self loops");
  EXPECT_DEATH(Graph(3, {{0, 1}, {0, 7}}), "out of range");
}

TEST(Graph, FromEdgesReportsTheDefect) {
  EXPECT_TRUE(Graph::FromEdges(3, {{0, 1}, {1, Graph::kBottom}}).ok());
  const Result<Graph> duplicate_bottom =
      Graph::FromEdges(3, {{0, Graph::kBottom}, {Graph::kBottom, 0}});
  ASSERT_FALSE(duplicate_bottom.ok());
  EXPECT_NE(duplicate_bottom.status().message().find("duplicate"),
            std::string::npos);
  const Result<Graph> loop = Graph::FromEdges(3, {{1, 1}});
  ASSERT_FALSE(loop.ok());
  EXPECT_NE(loop.status().message().find("self loops"), std::string::npos);
  const Result<Graph> far = Graph::FromEdges(3, {{3, Graph::kBottom}});
  ASSERT_FALSE(far.ok());
  EXPECT_NE(far.status().message().find("out of range"), std::string::npos);
  EXPECT_EQ(far.status().code(), StatusCode::kInvalidArgument);
}

TEST(DomainShape, FlattenUnflattenRoundTrip) {
  DomainShape d({3, 4, 5});
  EXPECT_EQ(d.size(), 60u);
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(d.Flatten(d.Unflatten(i)), i);
  }
  EXPECT_EQ(d.Flatten({1, 2, 3}), 1u * 20 + 2u * 5 + 3u);
}

TEST(DomainShape, L1Distance) {
  DomainShape d({4, 4});
  EXPECT_EQ(d.L1Distance(d.Flatten({0, 0}), d.Flatten({2, 3})), 5u);
  EXPECT_EQ(d.L1Distance(5, 5), 0u);
}

TEST(Builders, LineGraphShape) {
  const Graph g = LineGraph(5);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(IsTree(g));
  EXPECT_EQ(Distance(g, 0, 4), 4);
}

TEST(Builders, CycleGraphShape) {
  const Graph g = CycleGraph(6);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_FALSE(IsTree(g));
  EXPECT_EQ(Distance(g, 0, 3), 3);
  EXPECT_EQ(Distance(g, 0, 5), 1);
}

TEST(Builders, CompleteGraphShape) {
  const Graph g = CompleteGraph(5);
  EXPECT_EQ(g.num_edges(), 10u);
  EXPECT_EQ(Distance(g, 0, 4), 1);
}

TEST(Builders, StarBottomIsIdentityPolicy) {
  const Graph g = StarBottomGraph(4);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.num_bottom_edges(), 4u);
  EXPECT_TRUE(IsTree(g));  // star through ⊥
  EXPECT_EQ(Distance(g, 0, 3), 2);  // via ⊥
}

TEST(Builders, DistanceThreshold1DMatchesDefinition) {
  // Gθ_k: edge iff |i - j| <= θ (Section 5.1).
  DomainShape domain({7});
  const Graph g = DistanceThresholdGraph(domain, 2);
  size_t expected = 0;
  for (size_t i = 0; i < 7; ++i)
    for (size_t j = i + 1; j < 7; ++j)
      if (j - i <= 2) ++expected;
  EXPECT_EQ(g.num_edges(), expected);
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(0, 3));
}

TEST(Builders, DistanceThreshold2DMatchesDefinition) {
  DomainShape domain({4, 4});
  const Graph g = DistanceThresholdGraph(domain, 2);
  // Verify against brute force membership.
  for (size_t a = 0; a < 16; ++a) {
    for (size_t b = a + 1; b < 16; ++b) {
      const bool expected = domain.L1Distance(a, b) <= 2;
      EXPECT_EQ(g.HasEdge(a, b), expected) << a << "," << b;
    }
  }
}

TEST(Builders, DistanceThresholdEdgeCountMatchesBuiltGraph) {
  const std::vector<std::vector<size_t>> shapes = {
      {1},    {5},    {17},      {4, 4},   {8, 8},   {12, 12},
      {3, 7}, {7, 3}, {1, 9},    {5, 12},  {16, 2},  {3, 4, 5}};
  for (const std::vector<size_t>& dims : shapes) {
    const DomainShape domain(dims);
    for (size_t theta : {1, 2, 3, 4, 5, 8, 20}) {
      EXPECT_EQ(DistanceThresholdEdgeCount(domain, theta),
                DistanceThresholdGraph(domain, theta).num_edges())
          << "dims " << dims.size() << " first " << dims[0] << " theta "
          << theta;
    }
  }
}

TEST(Builders, UnitGridIs2DLattice) {
  DomainShape domain({3, 5});
  const Graph g = DistanceThresholdGraph(domain, 1);
  EXPECT_EQ(g.num_edges(), 2u * 5 + 3u * 4);  // vertical + horizontal
}

TEST(Builders, SensitiveAttributeGraphIsDisconnected) {
  // 2 attributes of size 3 and 2; only attribute 0 sensitive: values
  // differing in attribute 1 are never connected.
  DomainShape domain({3, 2});
  const Graph g = SensitiveAttributeGraph(domain, {0});
  size_t n_comp = 0;
  ConnectedComponents(g, &n_comp);
  EXPECT_EQ(n_comp, 2u);  // one component per attribute-1 value
  EXPECT_TRUE(g.HasEdge(domain.Flatten({0, 0}), domain.Flatten({2, 0})));
  EXPECT_FALSE(g.HasEdge(domain.Flatten({0, 0}), domain.Flatten({0, 1})));
}

TEST(Algorithms, BfsDistancesWithBottom) {
  const Graph g(3, {{0, 1}, {1, Graph::kBottom}});
  const std::vector<int64_t> dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[3], 2);   // ⊥ entry is last
  EXPECT_EQ(dist[2], -1);  // isolated vertex
}

TEST(Algorithms, ConnectivityAndComponents) {
  const Graph g(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(IsConnected(g));
  size_t n_comp = 0;
  const std::vector<size_t> comp = ConnectedComponents(g, &n_comp);
  EXPECT_EQ(n_comp, 2u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
}

// Union-find labels of the domain vertices, ⊥ as vertex n, renumbered
// in order of each component's smallest vertex.
std::vector<size_t> UnionFindLabels(const Graph& g, size_t* num_components) {
  const size_t n = g.num_vertices();
  std::vector<size_t> parent(n + 1);
  for (size_t v = 0; v <= n; ++v) parent[v] = v;
  const auto find = [&](size_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (const Graph::Edge& e : g.edges()) {
    parent[find(e.u)] = find(e.v == Graph::kBottom ? n : e.v);
  }
  std::vector<size_t> id_of_root(n + 1, SIZE_MAX), labels(n);
  *num_components = 0;
  for (size_t v = 0; v < n; ++v) {
    size_t& id = id_of_root[find(v)];
    if (id == SIZE_MAX) id = (*num_components)++;
    labels[v] = id;
  }
  return labels;
}

TEST(Algorithms, ConnectedComponentsMatchUnionFind) {
  std::mt19937_64 gen(33);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t n = 1 + gen() % 200;
    // Sparse trials leave many components; some ground a few vertices.
    const size_t edges_wanted = gen() % (2 * n);
    const bool with_bottom = trial % 2 == 1;
    std::vector<Graph::Edge> edges;
    std::set<std::pair<size_t, size_t>> seen;
    for (size_t i = 0; i < edges_wanted; ++i) {
      const size_t u = gen() % n;
      size_t v = gen() % (n + 1);
      if (v == n) {
        if (!with_bottom || gen() % 4 != 0) continue;
        v = Graph::kBottom;
      }
      if (u == v || !seen.insert({std::min(u, v), std::max(u, v)}).second) {
        continue;
      }
      edges.push_back({u, v});
    }
    const Graph g(n, std::move(edges));
    size_t expected_count = 0;
    const std::vector<size_t> expected = UnionFindLabels(g, &expected_count);
    size_t count = 0;
    EXPECT_EQ(ConnectedComponents(g, &count), expected);
    EXPECT_EQ(count, expected_count);
    EXPECT_EQ(IsConnected(g), expected_count <= 1);
  }
}

TEST(Algorithms, BottomMergesComponents) {
  // Two cliques each wired to ⊥ are one component through ⊥.
  const Graph g(4,
                {{0, 1}, {2, 3}, {0, Graph::kBottom}, {2, Graph::kBottom}});
  EXPECT_TRUE(IsConnected(g));
}

TEST(Algorithms, BfsSpanningForestOfACycleIsATree) {
  const Graph g = CycleGraph(8);
  const Graph t = BfsSpanningForest(g);
  EXPECT_TRUE(IsTree(t));
  EXPECT_EQ(t.num_edges(), 7u);
}

TEST(Algorithms, MaxEdgeStretchCycleVsSpanningTree) {
  // Dropping one edge of an n-cycle stretches that edge to n-1
  // (Section 4.3's discussion).
  const Graph g = CycleGraph(9);
  const Graph t = BfsSpanningForest(g);
  EXPECT_EQ(MaxEdgeStretch(g, t), 8);
}

TEST(Algorithms, MaxEdgeStretchDisconnected) {
  const Graph g(3, {{0, 1}, {1, 2}});
  const Graph h(3, {{0, 1}});
  EXPECT_EQ(MaxEdgeStretch(g, h), -1);
}

TEST(Algorithms, IsTreeCountsBottom) {
  // Path 0-1-⊥: 3 vertices (incl ⊥), 2 edges -> tree.
  const Graph g(2, {{0, 1}, {1, Graph::kBottom}});
  EXPECT_TRUE(IsTree(g));
  // Adding 0-⊥ creates a cycle through ⊥.
  const Graph cycle(2, {{0, 1}, {1, Graph::kBottom}, {0, Graph::kBottom}});
  EXPECT_FALSE(IsTree(cycle));
}

}  // namespace
}  // namespace blowfish
