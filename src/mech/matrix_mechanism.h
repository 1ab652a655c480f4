// The matrix mechanism of Li et al. (Equation 2 of the paper):
//
//     M_A(W, x) = W x + W A⁺ Lap(∆_A / ε)^p
//
// answers workload W through strategy A. All matrix-mechanism
// algorithms are data independent, which is exactly why Theorem 4.1
// shows transformational equivalence holds for them under *every*
// policy graph. This dense implementation is test support: it is the
// Theorem 4.1 oracle of theorem41_test and mech_basic_test, and nothing
// in the library or the benches calls it. Served releases use the
// structured strategies (privelet.h, core/mechanisms_*.h).

#ifndef BLOWFISH_MECH_MATRIX_MECHANISM_H_
#define BLOWFISH_MECH_MATRIX_MECHANISM_H_

#include <string>

#include "common/status.h"
#include "linalg/matrix.h"
#include "rng/rng.h"

namespace blowfish {

/// \brief Dense matrix mechanism instance for a fixed (W, A) pair.
class MatrixMechanism {
 public:
  /// Requires W A⁺ A = W (every workload row in the row space of A);
  /// fails with InvalidArgument otherwise.
  static Result<MatrixMechanism> Create(Matrix w, Matrix a);

  /// One noisy release: W x + W A⁺ Lap(∆_A/ε)^p.
  Vector Run(const Vector& x, double epsilon, Rng* rng) const;

  /// Runs with an externally supplied noise vector (length = rows of
  /// A). Used by the equivalence tests to show the *same* noise draws
  /// produce the same answers before and after the policy transform
  /// (Theorem 4.1's proof).
  Vector RunWithNoise(const Vector& x, double epsilon,
                      const Vector& noise_unit_scale) const;

  /// Expected total squared error at budget ε:
  /// 2 (∆_A/ε)² ‖W A⁺‖_F²  (variance of Laplace(λ) is 2λ²).
  double ExpectedTotalSquaredError(double epsilon) const;

  /// L1 sensitivity of the strategy (max column L1 norm of A).
  double strategy_sensitivity() const { return delta_a_; }
  const Matrix& workload() const { return w_; }
  const Matrix& strategy() const { return a_; }
  const Matrix& reconstruction() const { return w_a_pinv_; }

 private:
  MatrixMechanism(Matrix w, Matrix a, Matrix w_a_pinv, double delta_a)
      : w_(std::move(w)),
        a_(std::move(a)),
        w_a_pinv_(std::move(w_a_pinv)),
        delta_a_(delta_a) {}

  Matrix w_;
  Matrix a_;
  Matrix w_a_pinv_;  // W A⁺
  double delta_a_;
};

}  // namespace blowfish

#endif  // BLOWFISH_MECH_MATRIX_MECHANISM_H_
