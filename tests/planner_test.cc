// Policy-aware mechanism selection.

#include <gtest/gtest.h>

#include "core/grid_theta_adapter.h"
#include "core/mechanisms_1d.h"
#include "core/mechanisms_2d.h"
#include "core/planner.h"
#include "graph/builders.h"

namespace blowfish {
namespace {

TEST(Planner, LinePolicyGetsTreeTransformWithConsistency) {
  PlanRequest req{LinePolicy(16), /*prefer_data_dependent=*/false};
  const Plan plan = PlanMechanism(std::move(req)).ValueOrDie();
  EXPECT_EQ(plan.kind, "tree-transform");
  EXPECT_NE(plan.rationale.find("isotonic"), std::string::npos);
  ASSERT_NE(plan.mechanism, nullptr);
  // The mechanism actually runs.
  Vector x(16, 1.0);
  Rng rng(1);
  EXPECT_EQ(plan.mechanism->Run(x, 1.0, &rng).size(), 16u);
}

TEST(Planner, Theta1DGetsSpanner) {
  PlanRequest req{Theta1DPolicy(32, 4), false};
  const Plan plan = PlanMechanism(std::move(req)).ValueOrDie();
  EXPECT_EQ(plan.kind, "spanner-tree");
  EXPECT_EQ(plan.stretch, 3);
  ASSERT_NE(plan.mechanism, nullptr);
}

TEST(Planner, UnitGridGetsMatrixMechanism) {
  PlanRequest req{GridPolicy(DomainShape({6, 6}), 1), false};
  const Plan plan = PlanMechanism(std::move(req)).ValueOrDie();
  EXPECT_EQ(plan.kind, "grid-matrix");
  ASSERT_NE(plan.mechanism, nullptr);
}

TEST(Planner, GridThetaRoutedToRangeMechanism) {
  PlanRequest req{GridPolicy(DomainShape({8, 8}), 4), false};
  const Plan plan = PlanMechanism(std::move(req)).ValueOrDie();
  EXPECT_EQ(plan.kind, "grid-theta-range");
  // The slab strategy is wrapped in the histogram adapter, so the
  // uniform release protocol holds here too.
  ASSERT_NE(plan.mechanism, nullptr);
  EXPECT_GE(plan.stretch, 1);
  Vector x(64, 2.0);
  Rng rng(3);
  EXPECT_EQ(plan.mechanism->Run(x, 1.0, &rng).size(), 64u);
}

TEST(Planner, GridThetaMissingOneEdgeIsNotRoutedAsGridTheta) {
  // Same θ (the dropped edge is a unit step), one edge short of Gθ:
  // the grid-θ mechanism's guarantee would not hold for this policy.
  const DomainShape domain({8, 8});
  const Graph full = DistanceThresholdGraph(domain, 3);
  std::vector<Graph::Edge> edges;
  bool dropped = false;
  for (const Graph::Edge& e : full.edges()) {
    if (!dropped && domain.L1Distance(e.u, e.v) == 1) {
      dropped = true;
      continue;
    }
    edges.push_back(e);
  }
  ASSERT_TRUE(dropped);
  PlanRequest req{Policy{"almost-grid", domain,
                         Graph(full.num_vertices(), std::move(edges))},
                  false};
  const Plan plan = PlanMechanism(std::move(req)).ValueOrDie();
  EXPECT_NE(plan.kind, "grid-theta-range");
  ASSERT_NE(plan.mechanism, nullptr);
}

TEST(Planner, CycleFallsBackToSpanningTree) {
  PlanRequest req{Policy{"cycle", DomainShape({10}), CycleGraph(10)}, false};
  const Plan plan = PlanMechanism(std::move(req)).ValueOrDie();
  EXPECT_EQ(plan.kind, "spanning-tree-fallback");
  // Section 4.3: dropping one cycle edge stretches it to n-1.
  EXPECT_EQ(plan.stretch, 9);
  ASSERT_NE(plan.mechanism, nullptr);
}

TEST(Planner, UnboundedDpPolicyIsATree) {
  // Star-⊥ is a tree through ⊥: tree transform with P_G = I.
  PlanRequest req{UnboundedDpPolicy(8), false};
  const Plan plan = PlanMechanism(std::move(req)).ValueOrDie();
  EXPECT_EQ(plan.kind, "tree-transform");
}

TEST(Planner, GroundedPathWithKEdgesIsATree) {
  // A path 0-1-..-7 hung from ⊥ at vertex 0: k edges over k+1 vertices
  // counting ⊥, the most edges a tree can have, so the planner must
  // still build the transform and find the tree.
  std::vector<Graph::Edge> edges = LineGraph(8).edges();
  edges.push_back({0, Graph::kBottom});
  Graph g(8, std::move(edges));
  ASSERT_EQ(g.num_edges(), g.num_vertices());
  PlanRequest req{Policy{"grounded-path", DomainShape({8}), std::move(g)},
                  false};
  const Plan plan = PlanMechanism(std::move(req)).ValueOrDie();
  EXPECT_EQ(plan.kind, "tree-transform");
  ASSERT_NE(plan.mechanism, nullptr);
  Vector x(8, 1.0);
  Rng rng(5);
  EXPECT_EQ(plan.mechanism->Run(x, 1.0, &rng).size(), 8u);
}

TEST(Planner, DataDependentPreferenceSelectsDawa) {
  PlanRequest req{LinePolicy(32), /*prefer_data_dependent=*/true};
  const Plan plan = PlanMechanism(std::move(req)).ValueOrDie();
  EXPECT_NE(plan.mechanism->name().find("DAWA"), std::string::npos);
}

TEST(Planner, EmptyPolicyRejected) {
  PlanRequest req{Policy{"empty", DomainShape({4}), Graph(4)}, false};
  EXPECT_FALSE(PlanMechanism(std::move(req)).ok());
}

TEST(Planner, SensitiveAttributePolicyReducesToTree) {
  // Each component is a clique; cliques are not trees, so this goes
  // through the fallback or tree path depending on component size.
  const DomainShape domain({2, 3});
  PlanRequest req{SensitiveAttributePolicy(domain, {0}), false};
  const Plan plan = PlanMechanism(std::move(req)).ValueOrDie();
  // Components are single edges (attribute 0 has 2 values): reduced
  // graph is a forest joined at ⊥ -> tree transform.
  EXPECT_EQ(plan.kind, "tree-transform");
}

// What a plan's mechanism releases from: a tree transform's x_G, fed
// to the requested inner mechanism, or a non-tree transform's, fed to
// Privelet only (GridBlowfishMechanism and the slab strategy fix it).
struct Feeds {
  bool tree = false;
  bool privelet_only = false;
};

Feeds FeedsOf(const BlowfishMechanism& m) {
  if (const auto* spanner = dynamic_cast<const SpannerMechanism*>(&m)) {
    return FeedsOf(spanner->inner());
  }
  if (const auto* tree = dynamic_cast<const TreeTransformMechanism*>(&m)) {
    return {tree->transform().is_tree(), false};
  }
  if (const auto* grid = dynamic_cast<const GridBlowfishMechanism*>(&m)) {
    return {grid->transform().is_tree(), true};
  }
  if (dynamic_cast<const GridThetaHistogramAdapter*>(&m) != nullptr) {
    return {false, true};
  }
  ADD_FAILURE() << "unknown mechanism " << m.name();
  return {};
}

// The sweep's x_G on a non-tree graph is one preimage among many, on
// which a neighbour is not a unit change: only a data-independent
// linear release (Privelet) may see it, whichever inner is requested.
TEST(Planner, NonTreeTransformsFeedOnlyPrivelet) {
  std::vector<Graph::Edge> edges = LineGraph(12).edges();
  edges.push_back({0, 11});
  const Graph cycle(12, std::move(edges));
  const std::vector<std::pair<std::string, Policy>> families = {
      {"tree-transform", LinePolicy(32)},
      {"tree-transform", UnboundedDpPolicy(16)},
      {"spanner-tree", Theta1DPolicy(32, 4)},
      {"grid-matrix", GridPolicy(DomainShape({6, 6}), 1)},
      {"grid-matrix", GridPolicy(DomainShape({4, 4, 4}), 1)},
      {"grid-theta-range", GridPolicy(DomainShape({8, 8}), 4)},
      {"spanning-tree-fallback", GridPolicy(DomainShape({6, 8}), 2)},
      {"spanning-tree-fallback",
       Policy{"C_12", DomainShape({12}), std::move(cycle)}},
  };
  for (const auto& [kind, policy] : families) {
    for (bool dd : {false, true}) {
      SCOPED_TRACE(policy.name + (dd ? " dawa" : " laplace"));
      const Plan plan = PlanMechanism(PlanRequest{policy, dd, {}}).ValueOrDie();
      EXPECT_EQ(plan.kind, kind);
      const Feeds feeds = FeedsOf(*plan.mechanism);
      EXPECT_TRUE(feeds.tree || feeds.privelet_only);
      EXPECT_EQ(feeds.privelet_only, kind == "grid-matrix" ||
                                         kind == "grid-theta-range");
      if (!feeds.tree) {
        EXPECT_EQ(plan.mechanism->name().find("DAWA"), std::string::npos);
        EXPECT_NE(plan.mechanism->name().find("Privelet"), std::string::npos);
      }
    }
  }
}

}  // namespace
}  // namespace blowfish
