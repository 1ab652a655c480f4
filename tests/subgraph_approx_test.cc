// Subgraph approximation (Lemma 4.5): spanner builders and stretch
// certification.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "core/subgraph_approx.h"
#include "graph/algorithms.h"
#include "graph/builders.h"

namespace blowfish {
namespace {

TEST(LineSpanner, MatchesFigure6Structure) {
  // H³_9 (0-based): reds at 2, 5, 8; non-reds hang off the next red.
  const LineSpanner s = BuildLineThetaSpanner(9, 3);
  EXPECT_TRUE(IsTree(s.graph));
  EXPECT_EQ(s.graph.num_edges(), 8u);
  EXPECT_TRUE(s.graph.HasEdge(0, 2));
  EXPECT_TRUE(s.graph.HasEdge(1, 2));
  EXPECT_TRUE(s.graph.HasEdge(2, 5));  // red-red path
  EXPECT_TRUE(s.graph.HasEdge(3, 5));
  EXPECT_TRUE(s.graph.HasEdge(5, 8));
  EXPECT_FALSE(s.graph.HasEdge(0, 1));
  // Groups: first group has θ-1 = 2 edges; others θ = 3.
  ASSERT_EQ(s.group_ends.size(), 3u);
  EXPECT_EQ(s.group_ends[0], 2u);
  EXPECT_EQ(s.group_ends[1], 5u);
  EXPECT_EQ(s.group_ends[2], 8u);
}

TEST(LineSpanner, ThetaOneIsLineGraph) {
  const LineSpanner s = BuildLineThetaSpanner(6, 1);
  EXPECT_TRUE(IsTree(s.graph));
  for (size_t i = 0; i + 1 < 6; ++i) EXPECT_TRUE(s.graph.HasEdge(i, i + 1));
}

class LineSpannerStretchTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

// Section 5.3.1: every Gθ_k edge is connected in Hθ_k by a path of
// length at most 3.
TEST_P(LineSpannerStretchTest, StretchAtMostThree) {
  const auto [k, theta] = GetParam();
  const Policy g = Theta1DPolicy(k, theta);
  const SpannerCertificate cert =
      LineThetaSpannerFor(g, theta).ValueOrDie();
  EXPECT_LE(cert.stretch, 3);
  EXPECT_GE(cert.stretch, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LineSpannerStretchTest,
    ::testing::Values(std::make_pair(12u, 2u), std::make_pair(12u, 3u),
                      std::make_pair(16u, 4u), std::make_pair(64u, 4u),
                      std::make_pair(64u, 8u), std::make_pair(128u, 16u)),
    [](const auto& param_info) {
      return "k" + std::to_string(param_info.param.first) + "_t" +
             std::to_string(param_info.param.second);
    });

TEST(LineSpanner, RequiresDivisibility) {
  EXPECT_FALSE(LineThetaSpannerFor(Theta1DPolicy(10, 3), 3).ok());
}

TEST(GridSpanner, StructureFigure7) {
  // 6x6 grid, block 2: reds at odd coordinates.
  const DomainShape domain({6, 6});
  const GridSpanner s = BuildGridThetaSpanner(domain, 2);
  // Each non-red vertex has exactly one internal edge.
  size_t internal = 0;
  for (size_t u = 0; u < 36; ++u) {
    if (s.red_of[u] == u) {
      EXPECT_EQ(s.internal_edge[u], SIZE_MAX);
    } else {
      ASSERT_NE(s.internal_edge[u], SIZE_MAX);
      ++internal;
    }
  }
  EXPECT_EQ(internal, 36u - 9u);  // 9 red corners
  // External edges: red 3x3 grid -> 2*3*2 = 12 edges.
  EXPECT_EQ(s.graph.num_edges(), internal + 12u);
  EXPECT_TRUE(IsConnected(s.graph));
}

TEST(GridSpanner, BlockOneMakesAllRed) {
  const DomainShape domain({4, 4});
  const GridSpanner s = BuildGridThetaSpanner(domain, 1);
  for (size_t u = 0; u < 16; ++u) EXPECT_EQ(s.red_of[u], u);
  // Pure red grid = unit grid graph.
  EXPECT_EQ(s.graph.num_edges(), 2u * 4 * 3);
}

class GridSpannerStretchTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

// The certified stretch for Gθ over a 2D grid with block θ/2 is a
// small constant (used with budget ε/stretch in Theorem 5.6's
// mechanism).
TEST_P(GridSpannerStretchTest, StretchSmallAndStable) {
  const auto [k, theta] = GetParam();
  const size_t block = std::max<size_t>(1, theta / 2);
  if (k % block != 0) GTEST_SKIP();
  const DomainShape domain({k, k});
  const Graph g = DistanceThresholdGraph(domain, theta);
  const GridSpanner h = BuildGridThetaSpanner(domain, block);
  const int64_t stretch = MaxEdgeStretch(g, h.graph);
  ASSERT_GT(stretch, 0);
  EXPECT_LE(stretch, 8);

  // Translation invariance: the stretch at a larger grid of the same
  // block structure matches.
  const size_t k2 = k * 2;
  const DomainShape domain2({k2, k2});
  const Graph g2 = DistanceThresholdGraph(domain2, theta);
  const GridSpanner h2 = BuildGridThetaSpanner(domain2, block);
  EXPECT_EQ(MaxEdgeStretch(g2, h2.graph), stretch);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GridSpannerStretchTest,
    ::testing::Values(std::make_pair(8u, 2u), std::make_pair(8u, 3u),
                      std::make_pair(8u, 4u), std::make_pair(12u, 6u)),
    [](const auto& param_info) {
      return "k" + std::to_string(param_info.param.first) + "_t" +
             std::to_string(param_info.param.second);
    });

TEST(Certify, RejectsDisconnectedSpanner) {
  Policy g = Theta1DPolicy(6, 2);
  Graph h(6);
  h.AddEdge(0, 1);  // misses most vertices
  EXPECT_FALSE(
      CertifySpanner(g, Policy{"bad", DomainShape({6}), h}).ok());
}

TEST(Certify, IdenticalGraphHasStretchOne)
{
  Policy g = Theta1DPolicy(6, 2);
  const SpannerCertificate cert = CertifySpanner(g, g).ValueOrDie();
  EXPECT_EQ(cert.stretch, 1);
}

// ---------------------------------------------------------------------
// Early-exit MaxEdgeStretch against the full-BFS oracle.

// The certification loop MaxEdgeStretch used before its BFS stopped
// early: one full BFS over h per source vertex of g's edges.
int64_t FullBfsMaxEdgeStretch(const Graph& g, const Graph& h) {
  std::vector<std::vector<size_t>> by_source(g.num_vertices());
  for (const Graph::Edge& e : g.edges()) {
    by_source[e.u].push_back(e.v == Graph::kBottom ? h.num_vertices() : e.v);
  }
  int64_t worst = 0;
  for (size_t src = 0; src < by_source.size(); ++src) {
    if (by_source[src].empty()) continue;
    const std::vector<int64_t> dist = BfsDistances(h, src);
    for (size_t t : by_source[src]) {
      if (dist[t] < 0) return -1;
      worst = std::max(worst, dist[t]);
    }
  }
  return worst;
}

// `h` without its edge number `drop`, other edges in order.
Graph WithoutEdge(const Graph& h, size_t drop) {
  Graph out(h.num_vertices());
  for (size_t e = 0; e < h.num_edges(); ++e) {
    if (e != drop) out.AddEdge(h.edges()[e].u, h.edges()[e].v);
  }
  return out;
}

TEST(StretchOracle, ThetaLineSpanners) {
  for (size_t k : {64u, 256u, 1024u, 4096u}) {
    for (size_t theta : {2u, 3u, 4u, 6u, 8u}) {
      if (k % theta != 0) continue;
      SCOPED_TRACE("k=" + std::to_string(k) + " θ=" + std::to_string(theta));
      const Graph g = Theta1DPolicy(k, theta).graph;
      const Graph h = BuildLineThetaSpanner(k, theta).graph;
      const int64_t expected = FullBfsMaxEdgeStretch(g, h);
      ASSERT_GE(expected, 1);
      EXPECT_EQ(MaxEdgeStretch(g, h), expected);
    }
  }
}

TEST(StretchOracle, GridThetaSpanners) {
  for (size_t k : {8u, 12u, 16u, 24u, 32u, 48u, 64u}) {
    for (size_t theta = 2; theta <= 6; ++theta) {
      const size_t block = std::max<size_t>(1, theta / 2);
      if (k % block != 0) continue;
      SCOPED_TRACE("k=" + std::to_string(k) + " θ=" + std::to_string(theta));
      const DomainShape domain({k, k});
      const Graph g = DistanceThresholdGraph(domain, theta);
      const Graph h = BuildGridThetaSpanner(domain, block).graph;
      const int64_t expected = FullBfsMaxEdgeStretch(g, h);
      ASSERT_GE(expected, 1);
      EXPECT_EQ(MaxEdgeStretch(g, h), expected);
    }
  }
}

TEST(StretchOracle, CycleVersusSpanningTree) {
  for (size_t n : {3u, 9u, 64u}) {
    const Graph g = CycleGraph(n);
    const Graph t = BfsSpanningTree(g, 0);
    EXPECT_EQ(FullBfsMaxEdgeStretch(g, t), static_cast<int64_t>(n) - 1);
    EXPECT_EQ(MaxEdgeStretch(g, t), static_cast<int64_t>(n) - 1);
  }
}

TEST(StretchOracle, BottomEdges) {
  // Line 0-…-7 with ⊥ edges at 0, 3 and 7: certification must both
  // reach ⊥ as a target and route through it.
  Graph g(8);
  for (size_t i = 0; i + 1 < 8; ++i) g.AddEdge(i, i + 1);
  g.AddEdge(0, Graph::kBottom);
  g.AddEdge(3, Graph::kBottom);
  g.AddEdge(7, Graph::kBottom);
  // Spanner: the BFS forest roots at ⊥, so 0-1 routes via ⊥ or 1-0.
  const Graph forest = BfsSpanningForest(g);
  EXPECT_EQ(MaxEdgeStretch(g, forest), FullBfsMaxEdgeStretch(g, forest));
  // Spanner of ⊥ edges only: every line edge routes i-⊥-(i+1).
  Graph star(8);
  for (size_t i = 0; i < 8; ++i) star.AddEdge(i, Graph::kBottom);
  EXPECT_EQ(FullBfsMaxEdgeStretch(g, star), 2);
  EXPECT_EQ(MaxEdgeStretch(g, star), 2);
  // Drop ⊥ from the spanner's reach: every ⊥ target is unreachable.
  Graph line(8);
  for (size_t i = 0; i + 1 < 8; ++i) line.AddEdge(i, i + 1);
  EXPECT_EQ(FullBfsMaxEdgeStretch(g, line), -1);
  EXPECT_EQ(MaxEdgeStretch(g, line), -1);
}

TEST(StretchOracle, RandomGraphsWithBottom) {
  std::mt19937_64 gen(20261018);
  size_t disconnected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 2 + gen() % 30;
    Graph g(n);
    Graph h(n);
    for (size_t u = 0; u < n; ++u) {
      for (size_t v = u + 1; v <= n; ++v) {
        const size_t w = v == n ? Graph::kBottom : v;
        if (gen() % 4 == 0) g.AddEdge(u, w);
        if (gen() % 5 == 0) h.AddEdge(u, w);
      }
    }
    const int64_t expected = FullBfsMaxEdgeStretch(g, h);
    if (expected < 0) ++disconnected;
    EXPECT_EQ(MaxEdgeStretch(g, h), expected) << "trial " << trial;
  }
  // Both outcomes occur, so the -1 path is exercised too.
  EXPECT_GT(disconnected, 0u);
  EXPECT_LT(disconnected, 200u);
}

TEST(StretchOracle, SpannerMissingOneEdgeIsRejected) {
  // Hθ_k is a tree, so dropping any edge disconnects some Gθ_k edge.
  const Graph g_line = Theta1DPolicy(64, 4).graph;
  const Graph h_line = BuildLineThetaSpanner(64, 4).graph;
  for (size_t drop = 0; drop < h_line.num_edges(); ++drop) {
    const Graph cut = WithoutEdge(h_line, drop);
    ASSERT_EQ(FullBfsMaxEdgeStretch(g_line, cut), -1) << "edge " << drop;
    EXPECT_EQ(MaxEdgeStretch(g_line, cut), -1) << "edge " << drop;
  }
  // The grid spanner: dropping an internal edge strands a black cell;
  // dropping an external one leaves the red grid connected but
  // lengthens some paths. Either way the answer matches the oracle.
  const DomainShape domain({12, 12});
  const Graph g_grid = DistanceThresholdGraph(domain, 4);
  const GridSpanner h_grid = BuildGridThetaSpanner(domain, 2);
  size_t rejected = 0;
  for (size_t drop = 0; drop < h_grid.graph.num_edges(); ++drop) {
    const Graph cut = WithoutEdge(h_grid.graph, drop);
    const int64_t expected = FullBfsMaxEdgeStretch(g_grid, cut);
    if (expected < 0) ++rejected;
    EXPECT_EQ(MaxEdgeStretch(g_grid, cut), expected) << "edge " << drop;
  }
  EXPECT_EQ(rejected, 144u - 36u);  // one per black cell
}

}  // namespace
}  // namespace blowfish
