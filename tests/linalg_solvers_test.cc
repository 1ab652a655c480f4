// Eigensolver, Cholesky, and pseudoinverse — the hand-rolled numerical
// kernels behind Theorem 4.1 (A+) and the Appendix A SVD bound.

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/pinv.h"
#include "rng/rng.h"

namespace blowfish {
namespace {

Matrix RandomSymmetric(size_t n, Rng* rng) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = i; j < n; ++j) {
      m(i, j) = rng->Normal();
      m(j, i) = m(i, j);
    }
  return m;
}

Matrix RandomSpd(size_t n, Rng* rng) {
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) a(i, j) = rng->Normal();
  Matrix spd = a.GramColumns();
  for (size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

TEST(EigenSym, DiagonalMatrix) {
  const Matrix d = Matrix::Diagonal({3.0, 1.0, 2.0});
  const Vector values = SymmetricEigenvalues(d).ValueOrDie();
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], 2.0, 1e-12);
  EXPECT_NEAR(values[2], 3.0, 1e-12);
}

TEST(EigenSym, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  Matrix m{{2.0, 1.0}, {1.0, 2.0}};
  const Vector values = SymmetricEigenvalues(m).ValueOrDie();
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], 3.0, 1e-12);
}

TEST(EigenSym, ReconstructsMatrix) {
  Rng rng(4);
  const Matrix m = RandomSymmetric(12, &rng);
  const SymmetricEigenResult eig = SymmetricEigen(m).ValueOrDie();
  // V D V^T == M.
  const Matrix vd =
      eig.vectors.Multiply(Matrix::Diagonal(eig.values));
  const Matrix rebuilt = vd.Multiply(eig.vectors.Transpose());
  EXPECT_LT(rebuilt.MaxAbsDiff(m), 1e-9);
}

TEST(EigenSym, EigenvectorsOrthonormal) {
  Rng rng(5);
  const Matrix m = RandomSymmetric(10, &rng);
  const SymmetricEigenResult eig = SymmetricEigen(m).ValueOrDie();
  const Matrix vtv = eig.vectors.Transpose().Multiply(eig.vectors);
  EXPECT_LT(vtv.MaxAbsDiff(Matrix::Identity(10)), 1e-9);
}

TEST(EigenSym, TraceAndSumAgree) {
  Rng rng(6);
  const Matrix m = RandomSymmetric(15, &rng);
  const Vector values = SymmetricEigenvalues(m).ValueOrDie();
  double trace = 0.0, sum = 0.0;
  for (size_t i = 0; i < 15; ++i) trace += m(i, i);
  for (double v : values) sum += v;
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(EigenSym, ConvergesOnClusteredSpectra) {
  // Regression: Grams of tree-aggregation matrices mix one huge
  // eigenvalue with a large cluster of exactly-equal small ones; the
  // QL convergence test must be judged against the global matrix
  // magnitude or iteration stalls (observed at n >= 350).
  const size_t n = 384;
  // T^T T for a binary interval tree: (i, j) entry = number of common
  // tree ancestors of leaves i and j (including leaves).
  Matrix gram(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      size_t lo_i = i, lo_j = j, width = 1;
      size_t common = 0;
      // Count levels where i and j fall in the same node.
      while (width <= n) {
        if (lo_i / width == lo_j / width) ++common;
        width *= 2;
      }
      gram(i, j) = static_cast<double>(common);
      gram(j, i) = gram(i, j);
    }
  }
  const Result<Vector> eig = SymmetricEigenvalues(gram);
  ASSERT_TRUE(eig.ok()) << eig.status().ToString();
  double sum = 0.0, trace = 0.0;
  for (double v : eig.ValueOrDie()) sum += v;
  for (size_t i = 0; i < n; ++i) trace += gram(i, i);
  EXPECT_NEAR(sum, trace, 1e-6 * trace);
}

TEST(EigenSym, RejectsNonSymmetric) {
  Matrix m{{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_FALSE(SymmetricEigenvalues(m).ok());
}

TEST(SingularValues, MatchKnownMatrix) {
  // diag(3, 4) embedded in a wide matrix has singular values {4, 3}.
  Matrix a{{3.0, 0.0, 0.0}, {0.0, 4.0, 0.0}};
  const Vector sv = SingularValues(a).ValueOrDie();
  EXPECT_NEAR(sv[0], 4.0, 1e-10);
  EXPECT_NEAR(sv[1], 3.0, 1e-10);
}

TEST(SingularValues, InvariantUnderTranspose) {
  Rng rng(7);
  Matrix a(5, 9);
  for (size_t i = 0; i < 5; ++i)
    for (size_t j = 0; j < 9; ++j) a(i, j) = rng.Normal();
  const Vector s1 = SingularValues(a).ValueOrDie();
  const Vector s2 = SingularValues(a.Transpose()).ValueOrDie();
  for (size_t i = 0; i < 5; ++i) EXPECT_NEAR(s1[i], s2[i], 1e-8);
}

TEST(Cholesky, SolveRecoversSolution) {
  Rng rng(8);
  const Matrix a = RandomSpd(9, &rng);
  Vector x_true(9);
  for (double& v : x_true) v = rng.Normal();
  const Vector b = a.MultiplyVector(x_true);
  const Cholesky chol = Cholesky::Factor(a).ValueOrDie();
  const Vector x = chol.Solve(b);
  for (size_t i = 0; i < 9; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(Cholesky, FactorSatisfiesLLT) {
  Rng rng(9);
  const Matrix a = RandomSpd(6, &rng);
  const Cholesky chol = Cholesky::Factor(a).ValueOrDie();
  const Matrix rebuilt = chol.lower().Multiply(chol.lower().Transpose());
  EXPECT_LT(rebuilt.MaxAbsDiff(a), 1e-9);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix m{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3 and -1
  EXPECT_FALSE(Cholesky::Factor(m).ok());
}

TEST(PseudoInverse, MoorePenroseConditions) {
  Rng rng(11);
  // Rank-deficient wide matrix: 4x6 with rank 3.
  Matrix base(3, 6);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 6; ++j) base(i, j) = rng.Normal();
  Matrix a(4, 6);
  for (size_t j = 0; j < 6; ++j) {
    a(0, j) = base(0, j);
    a(1, j) = base(1, j);
    a(2, j) = base(2, j);
    a(3, j) = base(0, j) + base(1, j);  // dependent row
  }
  const Matrix ap = PseudoInverse(a).ValueOrDie();
  const Matrix a_ap = a.Multiply(ap);
  const Matrix ap_a = ap.Multiply(a);
  // 1) A A+ A = A        2) A+ A A+ = A+
  EXPECT_LT(a_ap.Multiply(a).MaxAbsDiff(a), 1e-8);
  EXPECT_LT(ap_a.Multiply(ap).MaxAbsDiff(ap), 1e-8);
  // 3) (A A+)^T = A A+   4) (A+ A)^T = A+ A
  EXPECT_LT(a_ap.Transpose().MaxAbsDiff(a_ap), 1e-8);
  EXPECT_LT(ap_a.Transpose().MaxAbsDiff(ap_a), 1e-8);
}

TEST(PseudoInverse, InverseForSquareNonsingular) {
  Rng rng(12);
  const Matrix a = RandomSpd(5, &rng);
  const Matrix ap = PseudoInverse(a).ValueOrDie();
  EXPECT_LT(a.Multiply(ap).MaxAbsDiff(Matrix::Identity(5)), 1e-7);
}

TEST(RightInverse, SatisfiesARightInverse) {
  Rng rng(13);
  Matrix a(3, 7);  // full row rank w.h.p.
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 7; ++j) a(i, j) = rng.Normal();
  const Matrix r = RightInverse(a).ValueOrDie();
  EXPECT_LT(a.Multiply(r).MaxAbsDiff(Matrix::Identity(3)), 1e-9);
}

TEST(RightInverse, FailsForRankDeficient) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};  // rank 1
  EXPECT_FALSE(RightInverse(a).ok());
}

}  // namespace
}  // namespace blowfish
