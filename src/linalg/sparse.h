// Compressed sparse row (CSR) matrix. Workloads W (10k range queries
// over a 4096-cell domain) and the policy transform P_G (two nonzeros
// per column) are far too sparse to materialize densely; every
// workload transform W_G = W * P_G in the paper is a sparse-sparse
// product here.

#ifndef BLOWFISH_LINALG_SPARSE_H_
#define BLOWFISH_LINALG_SPARSE_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector_ops.h"

namespace blowfish {

/// \brief One nonzero entry for COO-style construction.
struct Triplet {
  size_t row;
  size_t col;
  double value;
};

/// \brief Immutable CSR sparse matrix.
class SparseMatrix {
 public:
  SparseMatrix() : rows_(0), cols_(0) {}

  /// Builds from unordered triplets; duplicate (row, col) entries are
  /// summed. Zero-valued results are dropped.
  static SparseMatrix FromTriplets(size_t rows, size_t cols,
                                   std::vector<Triplet> triplets);

  /// Adopts CSR arrays: row r's entries are [row_ptr[r], row_ptr[r+1])
  /// of `col_idx`/`values`, columns ascending within a row, no
  /// duplicates. Only the shape is checked.
  static SparseMatrix FromCsr(size_t rows, size_t cols,
                              std::vector<size_t> row_ptr,
                              std::vector<size_t> col_idx,
                              std::vector<double> values);

  /// Identity of size n.
  static SparseMatrix Identity(size_t n);

  /// Converts a dense matrix, dropping exact zeros.
  static SparseMatrix FromDense(const Matrix& dense);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }

  /// y = A * x.
  Vector MultiplyVector(const Vector& x) const;
  /// y = A * x into `y` (resized).
  void MultiplyVector(const Vector& x, Vector* y) const;
  /// y = A^T * x.
  Vector TransposeMultiplyVector(const Vector& x) const;
  /// C = A * B (CSR x CSR -> CSR).
  SparseMatrix Multiply(const SparseMatrix& other) const;
  /// A^T as CSR.
  SparseMatrix Transpose() const;
  /// Scales all values.
  SparseMatrix Scale(double s) const;
  /// Vertical concatenation [this; other] (column counts must match).
  SparseMatrix VStack(const SparseMatrix& other) const;

  Matrix ToDense() const;

  /// L1 norm of each column — column c's norm is the sensitivity
  /// contribution of domain value c (Lemma 4.7 reduces policy-specific
  /// sensitivity to max column L1 of the transformed workload).
  Vector ColumnL1Norms() const;
  double MaxColumnL1() const;

  /// Dot product of row r with x.
  double RowDot(size_t r, const Vector& x) const;

  /// Row slice access (CSR internals) for structural analysis of
  /// transformed queries (Lemma 5.1 decompositions).
  struct RowView {
    const size_t* cols;
    const double* values;
    size_t nnz;
  };
  RowView Row(size_t r) const;

  /// Sum of |a_ij - b_ij| over all positions (structural comparison in
  /// tests). Sizes must match.
  double AbsDiffSum(const SparseMatrix& other) const;

 private:
  size_t rows_, cols_;
  std::vector<size_t> row_ptr_;   // size rows_+1
  std::vector<size_t> col_idx_;   // size nnz
  std::vector<double> values_;    // size nnz
};

}  // namespace blowfish

#endif  // BLOWFISH_LINALG_SPARSE_H_
