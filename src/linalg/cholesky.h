// Cholesky factorization and SPD solves. RightInverse (pinv.h) factors
// the Gram matrix A Aᵀ with it to form the minimum-norm right inverse
// Aᵀ (A Aᵀ)⁻¹ — for A = P_G, the dense P_G^{-1} of Section 4.4.

#ifndef BLOWFISH_LINALG_CHOLESKY_H_
#define BLOWFISH_LINALG_CHOLESKY_H_

#include "common/status.h"
#include "linalg/matrix.h"

namespace blowfish {

/// \brief Lower-triangular Cholesky factor of an SPD matrix, with
/// forward/backward substitution solves.
class Cholesky {
 public:
  /// Factors a = L L^T. Fails with NumericalError if `a` is not
  /// (numerically) positive definite.
  static Result<Cholesky> Factor(const Matrix& a);

  /// Solves A x = b.
  Vector Solve(const Vector& b) const;

  /// Solves A X = B column-by-column.
  Matrix SolveMatrix(const Matrix& b) const;

  const Matrix& lower() const { return l_; }

 private:
  explicit Cholesky(Matrix l) : l_(std::move(l)) {}
  Matrix l_;
};

}  // namespace blowfish

#endif  // BLOWFISH_LINALG_CHOLESKY_H_
