// P_G construction (Section 4.4): Lemma 4.7 (sensitivity preservation),
// Lemma 4.8 (rank k), Lemma 4.9 / Claim 4.2 (trees map Blowfish
// neighbors to DP neighbors), Lemma 4.10 (Case II), Appendix E
// (Case III).

#include <gtest/gtest.h>

#include "core/pg_matrix.h"
#include "core/policy.h"
#include "core/sensitivity.h"
#include "graph/algorithms.h"
#include "linalg/eigen_sym.h"
#include "linalg/pinv.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

// Figure 2's example: the line graph with the rightmost node replaced
// by ⊥ has a bidiagonal P_G whose inverse is the cumulative workload.
TEST(PgMatrix, Figure2Example) {
  const Graph g(3, {{0, 1}, {1, 2}, {2, Graph::kBottom}});
  const Matrix pg = BuildPgMatrix(g).ToDense();
  const Matrix expected{{1.0, 0.0, 0.0}, {-1.0, 1.0, 0.0}, {0.0, -1.0, 1.0}};
  EXPECT_LT(pg.MaxAbsDiff(expected), 1e-15);
  // P_G^{-1} = C'_3 (lower triangular of ones), as in Example 4.1.
  const Matrix inv = RightInverse(pg.Transpose()).ValueOrDie().Transpose();
  const Matrix cumulative{{1.0, 0.0, 0.0}, {1.0, 1.0, 0.0}, {1.0, 1.0, 1.0}};
  EXPECT_LT(inv.MaxAbsDiff(cumulative), 1e-9);
}

TEST(PgMatrix, ColumnsHaveTwoSignedEntries) {
  const Graph g(4,
                {{0, 1}, {1, 3}, {2, Graph::kBottom}, {3, Graph::kBottom}});
  const SparseMatrix pg = BuildPgMatrix(g);
  EXPECT_EQ(pg.rows(), 4u);
  EXPECT_EQ(pg.cols(), 4u);
  const Vector norms = pg.ColumnL1Norms();
  EXPECT_DOUBLE_EQ(norms[0], 2.0);  // (0,1)
  EXPECT_DOUBLE_EQ(norms[1], 2.0);  // (1,3)
  EXPECT_DOUBLE_EQ(norms[2], 1.0);  // (2,⊥)
  EXPECT_DOUBLE_EQ(norms[3], 1.0);  // (3,⊥)
}

// Lemma 4.8: P_G has rank k for connected graphs with ⊥.
TEST(PgMatrix, FullRowRank) {
  for (size_t k : {3u, 5u, 9u}) {
    Policy theta = Theta1DPolicy(k, 2);
    const PolicyReduction red = ReducePolicyGraph(theta.graph);
    const Matrix pg = BuildPgMatrix(red.graph).ToDense();
    // rank = #positive eigenvalues of P P^T.
    const Vector eigs =
        SymmetricEigenvalues(pg.GramRows()).ValueOrDie();
    size_t rank = 0;
    for (double e : eigs) {
      if (e > 1e-9) ++rank;
    }
    EXPECT_EQ(rank, k - 1) << "k=" << k;  // one vertex replaced by ⊥
  }
}

// Lemma 4.7: policy-specific sensitivity of W equals the unbounded
// sensitivity of W_G, i.e. max column L1 of W' P_G.
TEST(PgMatrix, SensitivityLemmaOnLinePolicy) {
  const size_t k = 6;
  const Policy policy = LinePolicy(k);
  const Workload w = CumulativeWorkload(k);
  // Direct Definition 4.1 evaluation.
  const double direct = PolicySpecificSensitivity(w.matrix(), policy);
  // Through the transform: reduce + multiply.
  const PolicyReduction red = ReducePolicyGraph(policy.graph);
  const SparseMatrix wg =
      ReduceWorkloadMatrix(w.matrix(), red).Multiply(BuildPgMatrix(red.graph));
  EXPECT_DOUBLE_EQ(direct, wg.MaxColumnL1());
  // C_k under the line policy has sensitivity 1: neighbors differ in
  // adjacent values, changing exactly one prefix count.
  EXPECT_DOUBLE_EQ(direct, 1.0);
}

TEST(PgMatrix, SensitivityLemmaOnThetaPolicy) {
  const size_t k = 8;
  const Policy policy = Theta1DPolicy(k, 3);
  const Workload w = CumulativeWorkload(k);
  const double direct = PolicySpecificSensitivity(w.matrix(), policy);
  const PolicyReduction red = ReducePolicyGraph(policy.graph);
  const SparseMatrix wg =
      ReduceWorkloadMatrix(w.matrix(), red).Multiply(BuildPgMatrix(red.graph));
  EXPECT_DOUBLE_EQ(direct, wg.MaxColumnL1());
  // Moving a tuple by θ changes θ prefix counts.
  EXPECT_DOUBLE_EQ(direct, 3.0);
}

// Lemma 4.10 (ii): y, z neighbors under G iff reduced vectors are
// neighbors under G'. Verified by brute force on all single-move
// database pairs.
TEST(PgMatrix, CaseIIPreservesNeighborsBruteForce) {
  const size_t k = 5;
  const Policy policy = Theta1DPolicy(k, 2);
  const PolicyReduction red = ReducePolicyGraph(policy.graph);
  ASSERT_EQ(red.removed.size(), 1u);
  const size_t rv = red.removed[0];

  // Enumerate single-entry moves u -> v on a base database.
  Vector base(k, 2.0);
  for (size_t u = 0; u < k; ++u) {
    for (size_t v = 0; v < k; ++v) {
      if (u == v) continue;
      Vector y = base;
      Vector z = base;
      z[u] -= 1.0;
      z[v] += 1.0;
      const bool neighbors_g = policy.graph.HasEdge(u, v);
      // Reduced vectors.
      const Vector yr = ReduceDatabase(y, red);
      const Vector zr = ReduceDatabase(z, red);
      // Neighbors under G' iff they differ on an edge of the reduced
      // graph: either two entries (+1/-1) on a kept edge, or one entry
      // on a ⊥-edge.
      double l1 = 0.0;
      for (size_t i = 0; i < yr.size(); ++i) l1 += std::fabs(yr[i] - zr[i]);
      if (neighbors_g) {
        const bool involves_removed = (u == rv || v == rv);
        EXPECT_DOUBLE_EQ(l1, involves_removed ? 1.0 : 2.0)
            << "u=" << u << " v=" << v;
      }
    }
  }
}

// Case III (Appendix E): disconnected policies reduce one vertex per
// ungrounded component and share ⊥.
TEST(PgMatrix, DisconnectedPolicyReduction) {
  // Two components: {0,1,2} path and {3,4} edge.
  const Graph g(5, {{0, 1}, {1, 2}, {3, 4}});
  const PolicyReduction red = ReducePolicyGraph(g);
  EXPECT_EQ(red.removed.size(), 2u);
  EXPECT_EQ(red.removed[0], 2u);  // max index of component 1
  EXPECT_EQ(red.removed[1], 4u);  // max index of component 2
  EXPECT_TRUE(IsConnected(red.graph));  // through the shared ⊥
  EXPECT_TRUE(IsTree(red.graph));
  EXPECT_EQ(red.graph.num_edges(), 3u);
}

TEST(PgMatrix, GroundedComponentsNeedNoRemoval) {
  const Policy policy = UnboundedDpPolicy(4);
  const PolicyReduction red = ReducePolicyGraph(policy.graph);
  EXPECT_TRUE(red.removed.empty());
  EXPECT_EQ(red.new_to_old.size(), 4u);
  // P_G of the star-⊥ policy is the identity.
  const Matrix pg = BuildPgMatrix(red.graph).ToDense();
  EXPECT_LT(pg.MaxAbsDiff(Matrix::Identity(4)), 1e-15);
}

TEST(PgMatrix, PreferredRemovedVertexHonored) {
  const Policy policy = LinePolicy(5);
  const PolicyReduction red = ReducePolicyGraph(policy.graph, 0);
  ASSERT_EQ(red.removed.size(), 1u);
  EXPECT_EQ(red.removed[0], 0u);
}

// Workload reduction identity: W x == W' x_{-v} + (removed coefficient
// terms), checked via reconstruction on the cumulative workload.
TEST(PgMatrix, WorkloadReductionAnswerIdentity) {
  const size_t k = 6;
  const Policy policy = LinePolicy(k);
  const PolicyReduction red = ReducePolicyGraph(policy.graph);
  const Workload w = CumulativeWorkload(k);
  const SparseMatrix w_reduced = ReduceWorkloadMatrix(w.matrix(), red);

  Vector x{3.0, 1.0, 4.0, 1.0, 5.0, 9.0};
  const double n = Sum(x);
  const Vector full_answer = w.Answer(x);
  const Vector reduced_answer =
      w_reduced.MultiplyVector(ReduceDatabase(x, red));
  // For each query, the constant is q[removed] * n (Lemma D.4).
  const size_t rv = red.removed[0];
  const SparseMatrix wt = w.matrix().Transpose();
  Vector removed_coeff(w.num_queries(), 0.0);
  const SparseMatrix::RowView col = wt.Row(rv);
  for (size_t i = 0; i < col.nnz; ++i) removed_coeff[col.cols[i]] = col.values[i];
  for (size_t q = 0; q < w.num_queries(); ++q) {
    EXPECT_NEAR(full_answer[q], reduced_answer[q] + removed_coeff[q] * n,
                1e-9)
        << "query " << q;
  }
}

}  // namespace
}  // namespace blowfish
