#include "linalg/sparse.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace blowfish {

SparseMatrix SparseMatrix::FromTriplets(size_t rows, size_t cols,
                                        std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    BF_CHECK_LT(t.row, rows);
    BF_CHECK_LT(t.col, cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              if (a.row != b.row) return a.row < b.row;
              return a.col < b.col;
            });
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  size_t i = 0;
  for (size_t r = 0; r < rows; ++r) {
    m.row_ptr_[r] = m.values_.size();
    while (i < triplets.size() && triplets[i].row == r) {
      const size_t c = triplets[i].col;
      double v = 0.0;
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == c) {
        v += triplets[i].value;
        ++i;
      }
      if (v != 0.0) {
        m.col_idx_.push_back(c);
        m.values_.push_back(v);
      }
    }
  }
  m.row_ptr_[rows] = m.values_.size();
  return m;
}

SparseMatrix SparseMatrix::FromCsr(size_t rows, size_t cols,
                                   std::vector<size_t> row_ptr,
                                   std::vector<size_t> col_idx,
                                   std::vector<double> values) {
  BF_CHECK_EQ(row_ptr.size(), rows + 1);
  BF_CHECK_EQ(row_ptr.back(), col_idx.size());
  BF_CHECK_EQ(col_idx.size(), values.size());
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

SparseMatrix SparseMatrix::Identity(size_t n) {
  std::vector<Triplet> t;
  t.reserve(n);
  for (size_t i = 0; i < n; ++i) t.push_back({i, i, 1.0});
  return FromTriplets(n, n, std::move(t));
}

SparseMatrix SparseMatrix::FromDense(const Matrix& dense) {
  std::vector<Triplet> t;
  for (size_t r = 0; r < dense.rows(); ++r)
    for (size_t c = 0; c < dense.cols(); ++c)
      if (dense(r, c) != 0.0) t.push_back({r, c, dense(r, c)});
  return FromTriplets(dense.rows(), dense.cols(), std::move(t));
}

Vector SparseMatrix::MultiplyVector(const Vector& x) const {
  Vector y;
  MultiplyVector(x, &y);
  return y;
}

void SparseMatrix::MultiplyVector(const Vector& x, Vector* y) const {
  BF_CHECK_EQ(cols_, x.size());
  y->resize(rows_);
  double* out = y->data();
  for (size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      acc += values_[k] * x[col_idx_[k]];
    out[r] = acc;
  }
}

Vector SparseMatrix::TransposeMultiplyVector(const Vector& x) const {
  BF_CHECK_EQ(rows_, x.size());
  Vector y(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double s = x[r];
    if (s == 0.0) continue;
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      y[col_idx_[k]] += s * values_[k];
  }
  return y;
}

SparseMatrix SparseMatrix::Multiply(const SparseMatrix& other) const {
  BF_CHECK_EQ(cols_, other.rows_);
  // Gustavson's algorithm with a dense accumulator per output row.
  SparseMatrix out;
  out.rows_ = rows_;
  out.cols_ = other.cols_;
  out.row_ptr_.assign(rows_ + 1, 0);
  std::vector<double> acc(other.cols_, 0.0);
  std::vector<size_t> touched;
  touched.reserve(64);
  for (size_t r = 0; r < rows_; ++r) {
    out.row_ptr_[r] = out.values_.size();
    touched.clear();
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const size_t mid = col_idx_[k];
      const double a = values_[k];
      for (size_t k2 = other.row_ptr_[mid]; k2 < other.row_ptr_[mid + 1];
           ++k2) {
        const size_t c = other.col_idx_[k2];
        if (acc[c] == 0.0) touched.push_back(c);
        acc[c] += a * other.values_[k2];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (size_t c : touched) {
      // Exact cancellation to zero is kept out of the structure; it is
      // semantically a zero entry.
      if (acc[c] != 0.0) {
        out.col_idx_.push_back(c);
        out.values_.push_back(acc[c]);
      }
      acc[c] = 0.0;
    }
  }
  out.row_ptr_[rows_] = out.values_.size();
  return out;
}

SparseMatrix SparseMatrix::Transpose() const {
  std::vector<Triplet> t;
  t.reserve(nnz());
  for (size_t r = 0; r < rows_; ++r)
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      t.push_back({col_idx_[k], r, values_[k]});
  return FromTriplets(cols_, rows_, std::move(t));
}

SparseMatrix SparseMatrix::Scale(double s) const {
  SparseMatrix out = *this;
  for (double& v : out.values_) v *= s;
  return out;
}

SparseMatrix SparseMatrix::VStack(const SparseMatrix& other) const {
  BF_CHECK_EQ(cols_, other.cols_);
  SparseMatrix out;
  out.rows_ = rows_ + other.rows_;
  out.cols_ = cols_;
  out.row_ptr_.reserve(out.rows_ + 1);
  out.row_ptr_ = row_ptr_;
  out.row_ptr_.pop_back();
  const size_t base = values_.size();
  for (size_t r = 0; r <= other.rows_; ++r)
    out.row_ptr_.push_back(base + other.row_ptr_[r]);
  out.col_idx_ = col_idx_;
  out.col_idx_.insert(out.col_idx_.end(), other.col_idx_.begin(),
                      other.col_idx_.end());
  out.values_ = values_;
  out.values_.insert(out.values_.end(), other.values_.begin(),
                     other.values_.end());
  return out;
}

Matrix SparseMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r)
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      out(r, col_idx_[k]) += values_[k];
  return out;
}

Vector SparseMatrix::ColumnL1Norms() const {
  Vector norms(cols_, 0.0);
  for (size_t k = 0; k < values_.size(); ++k)
    norms[col_idx_[k]] += std::fabs(values_[k]);
  return norms;
}

double SparseMatrix::MaxColumnL1() const {
  const Vector norms = ColumnL1Norms();
  double best = 0.0;
  for (double v : norms) best = std::max(best, v);
  return best;
}

double SparseMatrix::RowDot(size_t r, const Vector& x) const {
  BF_CHECK_LT(r, rows_);
  BF_CHECK_EQ(cols_, x.size());
  double acc = 0.0;
  for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
    acc += values_[k] * x[col_idx_[k]];
  return acc;
}

SparseMatrix::RowView SparseMatrix::Row(size_t r) const {
  BF_CHECK_LT(r, rows_);
  RowView view;
  view.cols = col_idx_.data() + row_ptr_[r];
  view.values = values_.data() + row_ptr_[r];
  view.nnz = row_ptr_[r + 1] - row_ptr_[r];
  return view;
}

double SparseMatrix::AbsDiffSum(const SparseMatrix& other) const {
  BF_CHECK_EQ(rows_, other.rows_);
  BF_CHECK_EQ(cols_, other.cols_);
  double acc = 0.0;
  for (size_t r = 0; r < rows_; ++r) {
    RowView a = Row(r);
    RowView b = other.Row(r);
    size_t i = 0, j = 0;
    while (i < a.nnz || j < b.nnz) {
      if (j >= b.nnz || (i < a.nnz && a.cols[i] < b.cols[j])) {
        acc += std::fabs(a.values[i]);
        ++i;
      } else if (i >= a.nnz || b.cols[j] < a.cols[i]) {
        acc += std::fabs(b.values[j]);
        ++j;
      } else {
        acc += std::fabs(a.values[i] - b.values[j]);
        ++i;
        ++j;
      }
    }
  }
  return acc;
}

}  // namespace blowfish
