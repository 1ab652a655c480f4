// Randomized property sweeps over the transformational-equivalence
// machinery: random tree policies, random connected policies, and
// random workloads must satisfy the paper's identities
//
//   (P1) exact reconstruction:  P_G x_G lifts back to x,
//   (P2) answer preservation:   W x = W_G x_G + c(W, n),
//   (P3) Lemma 4.7:             ∆_W(G) = ∆_{W_G},
//   (P4) Lemma 4.9 (trees):     Blowfish neighbors <-> L1 distance 1,
//   (P5) Lemma 4.5 accounting:  certified stretch bounds the path
//                               length of every policy edge,
//
// and, on graphs that are not trees, that the spanning-tree sweep's x_G
// is an exact integral preimage (P_G x_G == x' bit for bit) whose
// grid-matrix and slab releases match the minimum-norm preimage's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/grid_theta_adapter.h"
#include "core/mechanisms_2d.h"
#include "core/sensitivity.h"
#include "core/subgraph_approx.h"
#include "core/transform.h"
#include "graph/algorithms.h"
#include "linalg/pinv.h"
#include "rng/rng.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

Graph RandomTree(size_t k, Rng* rng) {
  std::vector<Graph::Edge> edges;
  // Random attachment: vertex i links to a uniform earlier vertex.
  for (size_t i = 1; i < k; ++i) {
    edges.push_back({i, static_cast<size_t>(rng->UniformInt(0, i - 1))});
  }
  return Graph(k, std::move(edges));
}

Graph RandomConnectedGraph(size_t k, double extra_edge_prob, Rng* rng) {
  const Graph tree = RandomTree(k, rng);
  std::vector<Graph::Edge> edges = tree.edges();
  for (size_t u = 0; u < k; ++u) {
    for (size_t v = u + 1; v < k; ++v) {
      if (!tree.HasEdge(u, v) && rng->Uniform() < extra_edge_prob) {
        edges.push_back({u, v});
      }
    }
  }
  return Graph(k, std::move(edges));
}

SparseMatrix RandomWorkloadMatrix(size_t q, size_t k, Rng* rng) {
  std::vector<Triplet> triplets;
  for (size_t r = 0; r < q; ++r) {
    for (size_t c = 0; c < k; ++c) {
      if (rng->Uniform() < 0.4) {
        triplets.push_back(
            {r, c, static_cast<double>(rng->UniformInt(-3, 3))});
      }
    }
  }
  return SparseMatrix::FromTriplets(q, k, std::move(triplets));
}

Vector RandomDatabase(size_t k, Rng* rng) {
  Vector x(k);
  for (double& v : x) v = static_cast<double>(rng->UniformInt(0, 30));
  return x;
}

class EquivalencePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivalencePropertyTest, RandomTreePolicySatisfiesAllIdentities) {
  Rng rng(GetParam());
  const size_t k = 4 + static_cast<size_t>(rng.UniformInt(0, 12));
  Policy policy{"random-tree", DomainShape({k}), RandomTree(k, &rng)};
  const PolicyTransform t = PolicyTransform::Create(policy).ValueOrDie();
  ASSERT_TRUE(t.is_tree());

  // (P1) reconstruction.
  const Vector x = RandomDatabase(k, &rng);
  const Vector xg = t.TransformDatabase(x);
  const Vector rebuilt = t.ReconstructHistogram(xg, t.ComponentTotals(x));
  for (size_t i = 0; i < k; ++i) EXPECT_NEAR(rebuilt[i], x[i], 1e-7);

  // (P2) answer preservation for a random workload.
  const SparseMatrix w = RandomWorkloadMatrix(6, k, &rng);
  const SparseMatrix wg = t.TransformWorkload(w);
  const Vector direct = w.MultiplyVector(x);
  const Vector via = w.MultiplyVector(rebuilt);
  for (size_t q = 0; q < direct.size(); ++q) {
    EXPECT_NEAR(direct[q], via[q], 1e-6);
  }
  EXPECT_EQ(wg.cols(), t.num_edges());

  // (P3) Lemma 4.7.
  EXPECT_NEAR(PolicySpecificSensitivity(w, policy), wg.MaxColumnL1(), 1e-9);

  // (P4) Lemma 4.9 on a sample of pairs.
  for (int trial = 0; trial < 10; ++trial) {
    const size_t u = static_cast<size_t>(rng.UniformInt(0, k - 1));
    const size_t v = static_cast<size_t>(rng.UniformInt(0, k - 1));
    if (u == v) continue;
    Vector y = x, z = x;
    z[u] -= 1.0;
    z[v] += 1.0;
    const double l1 =
        NormL1(Sub(t.TransformDatabase(y), t.TransformDatabase(z)));
    if (policy.graph.HasEdge(u, v)) {
      EXPECT_NEAR(l1, 1.0, 1e-9);
    } else {
      EXPECT_GT(l1, 1.0 + 1e-9);
    }
  }
}

TEST_P(EquivalencePropertyTest, RandomConnectedPolicyIdentities) {
  Rng rng(GetParam() ^ 0xABCDEF);
  const size_t k = 5 + static_cast<size_t>(rng.UniformInt(0, 10));
  Policy policy{"random-graph", DomainShape({k}),
                RandomConnectedGraph(k, 0.25, &rng)};
  const PolicyTransform t = PolicyTransform::Create(policy).ValueOrDie();

  // (P1) reconstruction from the spanning-tree sweep's preimage.
  const Vector x = RandomDatabase(k, &rng);
  const Vector xg = t.TransformDatabase(x);
  const Vector rebuilt = t.ReconstructHistogram(xg, t.ComponentTotals(x));
  for (size_t i = 0; i < k; ++i) EXPECT_NEAR(rebuilt[i], x[i], 1e-6);

  // (P3) Lemma 4.7 holds for any connected policy.
  const SparseMatrix w = RandomWorkloadMatrix(5, k, &rng);
  EXPECT_NEAR(PolicySpecificSensitivity(w, policy),
              t.TransformWorkload(w).MaxColumnL1(), 1e-9);

  // (P5) spanning-tree stretch certificate is an upper bound on every
  // edge's path length and is attained by some edge.
  const Graph tree = BfsSpanningForest(policy.graph);
  const int64_t stretch = MaxEdgeStretch(policy.graph, tree);
  ASSERT_GE(stretch, 1);
  int64_t attained = 0;
  for (const Graph::Edge& e : policy.graph.edges()) {
    const int64_t d = Distance(tree, e.u, e.v);
    ASSERT_GE(d, 1);
    EXPECT_LE(d, stretch);
    attained = std::max(attained, d);
  }
  EXPECT_EQ(attained, stretch);
}

TEST_P(EquivalencePropertyTest, RandomDisconnectedPolicyIdentities) {
  Rng rng(GetParam() ^ 0x1234567);
  // Two random components of random sizes.
  const size_t k1 = 3 + static_cast<size_t>(rng.UniformInt(0, 5));
  const size_t k2 = 3 + static_cast<size_t>(rng.UniformInt(0, 5));
  const size_t k = k1 + k2;
  std::vector<Graph::Edge> edges = RandomTree(k1, &rng).edges();
  const Graph b = RandomConnectedGraph(k2, 0.3, &rng);
  for (const Graph::Edge& e : b.edges()) edges.push_back({k1 + e.u, k1 + e.v});
  Policy policy{"random-disconnected", DomainShape({k}),
                Graph(k, std::move(edges))};
  const PolicyTransform t = PolicyTransform::Create(policy).ValueOrDie();
  EXPECT_EQ(t.reduction().removed.size(), 2u);

  const Vector x = RandomDatabase(k, &rng);
  const Vector rebuilt = t.ReconstructHistogram(t.TransformDatabase(x),
                                                t.ComponentTotals(x));
  for (size_t i = 0; i < k; ++i) EXPECT_NEAR(rebuilt[i], x[i], 1e-6);

  const SparseMatrix w = RandomWorkloadMatrix(4, k, &rng);
  EXPECT_NEAR(PolicySpecificSensitivity(w, policy),
              t.TransformWorkload(w).MaxColumnL1(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalencePropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// The sweep's x_G for integer counts: integral, P_G x_G equal to the
// reduced database bit for bit, and x lifted back exactly.
void ExpectExactIntegralPreimage(const Policy& policy, Rng* rng) {
  SCOPED_TRACE(policy.name);
  const PolicyTransform t = PolicyTransform::Create(policy).ValueOrDie();
  const Vector x = RandomDatabase(policy.domain_size(), rng);
  const Vector xg = t.TransformDatabase(x);
  for (double v : xg) ASSERT_EQ(v, std::round(v));
  EXPECT_EQ(t.pg().MultiplyVector(xg), ReduceDatabase(x, t.reduction()));
  EXPECT_EQ(t.ReconstructHistogram(xg, t.ComponentTotals(x)), x);
}

TEST(SweepPreimage, ExactAndIntegralOnNonTreePolicies) {
  Rng rng(31);
  ExpectExactIntegralPreimage(GridPolicy(DomainShape({32, 32}), 1), &rng);
  ExpectExactIntegralPreimage(Theta1DPolicy(64, 4), &rng);
  for (int i = 0; i < 20; ++i) {
    const size_t k = 5 + static_cast<size_t>(rng.UniformInt(0, 40));
    ExpectExactIntegralPreimage(
        Policy{"random-connected-" + std::to_string(i), DomainShape({k}),
               RandomConnectedGraph(k, 0.25, &rng)},
        &rng);
  }
}

// x_G = P_G⁺ x', the minimum-norm preimage, from a dense pseudoinverse.
Vector MinNormPreimage(const PolicyTransform& t, const Vector& x) {
  const Matrix pinv = PseudoInverse(t.pg().ToDense()).ValueOrDie();
  return pinv.MultiplyVector(ReduceDatabase(x, t.reduction()));
}

void ExpectSameAnswers(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-9 * std::max(1.0, std::fabs(b[i])))
        << "answer " << i;
  }
}

// The grid matrix releases through Privelet, a data-independent linear
// mechanism, so any preimage gives the same answers up to rounding:
// the sweep's (what PrecomputeRelease holds) and the minimum-norm one
// (what the conjugate-gradient transform computed, and what a "grid/1"
// snapshot payload from it holds).
TEST(SweepPreimage, GridMatrixReleasesMatchTheMinNormPreimage) {
  const auto mech =
      GridBlowfishMechanism::Create(GridPolicy(DomainShape({4, 4}), 1))
          .ValueOrDie();
  ASSERT_FALSE(mech->transform().is_tree());
  Rng data_rng(41);
  const Vector x = RandomDatabase(16, &data_rng);
  const auto swept = mech->PrecomputeRelease(x);
  BlowfishMechanism::PrecomputePayload payload;
  payload.vectors = {MinNormPreimage(mech->transform(), x)};
  payload.scalars = {Sum(x)};
  const auto min_norm = mech->DecodePrecompute("grid/1", payload);
  ASSERT_NE(min_norm, nullptr);
  BlowfishMechanism::PrecomputePayload swept_payload;
  swept->EncodePayload(&swept_payload);
  EXPECT_GT(NormL1(Sub(swept_payload.vectors[0], payload.vectors[0])), 1.0);

  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng a(seed), b(seed);
    ExpectSameAnswers(mech->RunPrecomputed(*swept, 0.5, &a),
                      mech->RunPrecomputed(*min_norm, 0.5, &b));
  }
}

// The same for the slab strategy over the spanner H (8×8, θ = 2 and
// θ = 4), on the histogram release and on explicit range workloads.
TEST(SweepPreimage, SlabReleasesMatchTheMinNormPreimage) {
  const DomainShape domain({8, 8});
  for (size_t theta : {2, 4}) {
    SCOPED_TRACE(theta);
    const auto adapter =
        GridThetaHistogramAdapter::Create(GridPolicy(domain, theta), theta)
            .ValueOrDie();
    const GridThetaRangeMechanism& inner = adapter->inner();
    // The mechanism's transform over H, rebuilt from the same spanner.
    const PolicyTransform h =
        PolicyTransform::Create(
            Policy{"H", domain, BuildGridThetaSpanner(domain, theta / 2).graph})
            .ValueOrDie();
    ASSERT_FALSE(h.is_tree());
    Rng data_rng(43 + theta);
    const Vector x = RandomDatabase(domain.size(), &data_rng);
    ASSERT_EQ(h.TransformDatabase(x), inner.PrecomputeTransformed(x));
    const Vector min_norm = MinNormPreimage(h, x);
    const Vector swept = inner.PrecomputeTransformed(x);
    EXPECT_GT(NormL1(Sub(swept, min_norm)), 1.0);

    BlowfishMechanism::PrecomputePayload payload;
    payload.vectors = {min_norm};
    payload.scalars = {Sum(x)};
    const auto min_norm_pre = adapter->DecodePrecompute("slab/1", payload);
    ASSERT_NE(min_norm_pre, nullptr);
    const auto swept_pre = adapter->PrecomputeRelease(x);
    Rng qrng(47);
    const RangeWorkload ranges = RandomRanges(domain, 40, &qrng);
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      Rng a(seed), b(seed);
      ExpectSameAnswers(adapter->RunPrecomputed(*swept_pre, 0.5, &a),
                        adapter->RunPrecomputed(*min_norm_pre, 0.5, &b));
      ExpectSameAnswers(
          inner.AnswerRangesOnTransformed(ranges, swept, Sum(x), 0.5, &a),
          inner.AnswerRangesOnTransformed(ranges, min_norm, Sum(x), 0.5, &b));
    }
  }
}

}  // namespace
}  // namespace blowfish
