// The transformational-equivalence engine: the W x = W_G x_G identity
// (Theorems 4.1 / 4.3), the tree sweep against the dense minimum-norm
// preimage, exact reconstruction, and the Lemma 5.1 support structure
// of transformed queries.

#include <set>

#include <gtest/gtest.h>

#include "core/transform.h"
#include "linalg/pinv.h"
#include "rng/rng.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

Vector RandomDatabase(size_t k, Rng* rng) {
  Vector x(k);
  for (double& v : x) v = static_cast<double>(rng->UniformInt(0, 20));
  return x;
}

struct PolicyCase {
  std::string label;
  Policy policy;
};

std::vector<PolicyCase> EquivalencePolicies() {
  std::vector<PolicyCase> cases;
  cases.push_back({"line8", LinePolicy(8)});
  cases.push_back({"theta8_3", Theta1DPolicy(8, 3)});
  cases.push_back({"grid4x4", GridPolicy(DomainShape({4, 4}), 1)});
  cases.push_back({"grid3x3_t2", GridPolicy(DomainShape({3, 3}), 2)});
  cases.push_back({"unboundedDP", UnboundedDpPolicy(7)});
  cases.push_back({"boundedDP", BoundedDpPolicy(6)});
  cases.push_back({"cycle7", Policy{"cycle7", DomainShape({7}), CycleGraph(7)}});
  return cases;
}

class TransformIdentityTest
    : public ::testing::TestWithParam<PolicyCase> {};

// The core identity behind all equivalence theorems: W x = W_G x_G
// (plus the public Case-II constants, which ReconstructHistogram folds
// back in). Equivalent statement tested here: reconstructing from the
// *noise-free* transformed database returns the database exactly.
TEST_P(TransformIdentityTest, NoiseFreeReconstructionIsExact) {
  const Policy& policy = GetParam().policy;
  const PolicyTransform t = PolicyTransform::Create(policy).ValueOrDie();
  Rng rng(42);
  for (int trial = 0; trial < 5; ++trial) {
    const Vector x = RandomDatabase(policy.domain_size(), &rng);
    const Vector xg = t.TransformDatabase(x);
    const Vector rebuilt = t.ReconstructHistogram(xg, t.ComponentTotals(x));
    ASSERT_EQ(rebuilt.size(), x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(rebuilt[i], x[i], 1e-6) << GetParam().label << " i=" << i;
    }
  }
}

TEST_P(TransformIdentityTest, WorkloadAnswersAgreeThroughTransform) {
  const Policy& policy = GetParam().policy;
  const size_t k = policy.domain_size();
  const PolicyTransform t = PolicyTransform::Create(policy).ValueOrDie();
  const Workload w = CumulativeWorkload(k);
  const SparseMatrix wg = t.TransformWorkload(w.matrix());
  EXPECT_EQ(wg.cols(), t.num_edges());

  Rng rng(7);
  const Vector x = RandomDatabase(k, &rng);
  const Vector xg = t.TransformDatabase(x);
  const Vector truth = w.Answer(x);
  const Vector transformed_answer = wg.MultiplyVector(xg);
  // W x = W_G x_G + c(W, n): recover the constant from a second
  // database with the same component totals — or directly: the
  // difference must equal W applied to the reconstruction residual,
  // which is zero, so compare via reconstruction.
  const Vector rebuilt = t.ReconstructHistogram(xg, t.ComponentTotals(x));
  const Vector rebuilt_answer = w.Answer(rebuilt);
  for (size_t q = 0; q < truth.size(); ++q) {
    EXPECT_NEAR(truth[q], rebuilt_answer[q], 1e-6)
        << GetParam().label << " q=" << q;
  }
  // And the explicit identity with constants: c_q = truth - W_G x_G
  // must be independent of the (fixed-total) database.
  const Vector x2 = RandomDatabase(k, &rng);
  // Adjust x2 so component totals match x (constants depend on totals).
  // Simplest: scale-free check only when totals already match.
  if (t.ComponentTotals(x) == t.ComponentTotals(x2)) {
    const Vector truth2 = w.Answer(x2);
    const Vector ans2 = wg.MultiplyVector(t.TransformDatabase(x2));
    for (size_t q = 0; q < truth.size(); ++q) {
      EXPECT_NEAR(truth[q] - transformed_answer[q], truth2[q] - ans2[q],
                  1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, TransformIdentityTest,
                         ::testing::ValuesIn(EquivalencePolicies()),
                         [](const auto& param_info) { return param_info.param.label; });

// The line policy's transformed database is the prefix-sum vector
// (Algorithm 1, Example 4.1).
TEST(Transform, LinePolicyTransformIsPrefixSums) {
  const size_t k = 7;
  const PolicyTransform t =
      PolicyTransform::Create(LinePolicy(k)).ValueOrDie();
  EXPECT_TRUE(t.is_tree());
  const Vector x{2.0, 0.0, 3.0, 1.0, 0.0, 4.0, 5.0};
  const Vector xg = t.TransformDatabase(x);
  ASSERT_EQ(xg.size(), k - 1);  // edges of the reduced line
  const Vector prefix = PrefixSums(x);
  for (size_t i = 0; i + 1 < k; ++i) {
    EXPECT_NEAR(xg[i], prefix[i], 1e-9) << "i=" << i;
  }
}

// On a tree policy the sweep's x_G is the only preimage, so it equals
// the minimum-norm x_G = P⁺ x' from a dense pseudoinverse.
TEST(Transform, TreeSweepIsTheMinNormPreimage) {
  const size_t k = 9;
  // Build a bushy tree policy: star-of-paths.
  const Graph g(k, {{0, 1}, {1, 2}, {0, 3}, {3, 4}, {4, 5}, {0, 6}, {6, 7},
                    {7, 8}});
  const Policy tree_policy{"bushy", DomainShape({k}), g};
  const PolicyTransform t = PolicyTransform::Create(tree_policy).ValueOrDie();
  ASSERT_TRUE(t.is_tree());

  Rng rng(3);
  const Vector x = RandomDatabase(k, &rng);
  const Vector fast = t.TransformDatabase(x);
  const Vector slow =
      PseudoInverse(t.pg().ToDense())
          .ValueOrDie()
          .MultiplyVector(ReduceDatabase(x, t.reduction()));
  ASSERT_EQ(fast.size(), slow.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-7) << "edge " << i;
  }
}

// Lemma 5.1: the support of a transformed counting query is exactly
// the set of policy edges with one endpoint in the query's support.
TEST(Transform, Lemma51SupportStructure) {
  const size_t k = 10;
  const Policy policy = Theta1DPolicy(k, 2);
  const PolicyTransform t = PolicyTransform::Create(policy).ValueOrDie();

  // Query counts {3, 4, 5}.
  std::vector<Triplet> trip{{0, 3, 1.0}, {0, 4, 1.0}, {0, 5, 1.0}};
  const SparseMatrix q = SparseMatrix::FromTriplets(1, k, std::move(trip));
  const SparseMatrix qg = t.TransformWorkload(q);

  const std::set<size_t> support{3, 4, 5};
  const Graph& reduced = t.reduction().graph;
  const SparseMatrix::RowView row = qg.Row(0);
  std::set<size_t> nonzero_edges(row.cols, row.cols + row.nnz);
  for (size_t e = 0; e < reduced.num_edges(); ++e) {
    const Graph::Edge edge = reduced.edges()[e];
    const size_t u_old = t.reduction().new_to_old[edge.u];
    // ⊥ stands for the removed vertex (k-1 here), outside the support.
    const size_t v_old = (edge.v == Graph::kBottom)
                             ? t.reduction().removed[0]
                             : t.reduction().new_to_old[edge.v];
    const bool u_in = support.count(u_old) > 0;
    const bool v_in = support.count(v_old) > 0;
    EXPECT_EQ(nonzero_edges.count(e) > 0, u_in != v_in)
        << "edge " << u_old << "-" << v_old;
  }
}

TEST(Transform, PolicySensitivityMatchesDirectComputation) {
  const Policy policy = Theta1DPolicy(9, 3);
  const PolicyTransform t = PolicyTransform::Create(policy).ValueOrDie();
  const Workload w = CumulativeWorkload(9);
  EXPECT_DOUBLE_EQ(t.PolicySensitivity(w.matrix()), 3.0);
}

TEST(Transform, RejectsEmptyPolicy) {
  Policy empty{"empty", DomainShape({3}), Graph(3)};
  EXPECT_FALSE(PolicyTransform::Create(empty).ok());
}

TEST(Transform, DisconnectedPolicyReconstruction) {
  // Sensitive-attribute policy: two components; totals per component
  // are public and reconstruction must use both.
  const DomainShape domain({3, 2});
  const Policy policy = SensitiveAttributePolicy(domain, {0});
  const PolicyTransform t = PolicyTransform::Create(policy).ValueOrDie();
  EXPECT_EQ(t.reduction().removed.size(), 2u);
  Rng rng(5);
  const Vector x = RandomDatabase(domain.size(), &rng);
  const Vector xg = t.TransformDatabase(x);
  const Vector rebuilt = t.ReconstructHistogram(xg, t.ComponentTotals(x));
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(rebuilt[i], x[i], 1e-7);
}

}  // namespace
}  // namespace blowfish
