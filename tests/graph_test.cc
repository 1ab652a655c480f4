#include <gtest/gtest.h>

#include <vector>

#include "graph/algorithms.h"
#include "graph/builders.h"
#include "graph/graph.h"

namespace blowfish {
namespace {

TEST(Graph, AddAndQueryEdges) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, Graph::kBottom);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(Graph::kBottom, 2));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.has_bottom());
  EXPECT_EQ(g.num_bottom_edges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(3), 0u);
}

TEST(GraphDeath, RejectsSelfLoopsAndDuplicates) {
  Graph g(3);
  g.AddEdge(0, 1);
  EXPECT_DEATH(g.AddEdge(1, 0), "duplicate");
  EXPECT_DEATH(g.AddEdge(2, 2), "self loops");
  EXPECT_DEATH(g.AddEdge(0, 7), "out of range");
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
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, Graph::kBottom);
  const std::vector<int64_t> dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[3], 2);   // ⊥ entry is last
  EXPECT_EQ(dist[2], -1);  // isolated vertex
}

TEST(Algorithms, ConnectivityAndComponents) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  EXPECT_FALSE(IsConnected(g));
  size_t n_comp = 0;
  const std::vector<size_t> comp = ConnectedComponents(g, &n_comp);
  EXPECT_EQ(n_comp, 2u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(Algorithms, BottomMergesComponents) {
  // Two cliques each wired to ⊥ are one component through ⊥.
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  g.AddEdge(0, Graph::kBottom);
  g.AddEdge(2, Graph::kBottom);
  EXPECT_TRUE(IsConnected(g));
}

TEST(Algorithms, BfsSpanningTreeIsTree) {
  const Graph g = CycleGraph(8);
  const Graph t = BfsSpanningTree(g, 0);
  EXPECT_TRUE(IsTree(t));
  EXPECT_EQ(t.num_edges(), 7u);
}

TEST(Algorithms, MaxEdgeStretchCycleVsSpanningTree) {
  // Dropping one edge of an n-cycle stretches that edge to n-1
  // (Section 4.3's discussion).
  const Graph g = CycleGraph(9);
  const Graph t = BfsSpanningTree(g, 0);
  EXPECT_EQ(MaxEdgeStretch(g, t), 8);
}

TEST(Algorithms, MaxEdgeStretchDisconnected) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  Graph h(3);
  h.AddEdge(0, 1);
  EXPECT_EQ(MaxEdgeStretch(g, h), -1);
}

TEST(Algorithms, IsTreeCountsBottom) {
  // Path 0-1-⊥: 3 vertices (incl ⊥), 2 edges -> tree.
  Graph g(2);
  g.AddEdge(0, 1);
  g.AddEdge(1, Graph::kBottom);
  EXPECT_TRUE(IsTree(g));
  // Adding 0-⊥ creates a cycle through ⊥.
  g.AddEdge(0, Graph::kBottom);
  EXPECT_FALSE(IsTree(g));
}

}  // namespace
}  // namespace blowfish
