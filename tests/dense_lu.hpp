#pragma once
// The dense oracle the sparse solver is checked against: a row-major dense
// matrix, LU factorization with partial pivoting and the vector norms and
// difference that residual checks use, written the plain way.  linalg_test
// pins the oracle itself; sparse_solver_test cross-checks SparseLu
// factor/refactor/solve against it.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "linalg/vector.hpp"

namespace prox::testref {

using linalg::Vector;

/// Euclidean norm of @p v.
inline double norm2(const Vector& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

/// Infinity norm (largest absolute entry) of @p v.
inline double normInf(const Vector& v) {
  double s = 0.0;
  for (double x : v) s = std::max(s, std::fabs(x));
  return s;
}

/// Element-wise a - b. Sizes must match.
inline Vector subtract(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("testref::subtract: size mismatch");
  }
  Vector r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] - b[i];
  return r;
}

/// Row-major dense matrix of doubles, zero-initialized.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Resets every entry to zero without reallocating.
  void setZero() { std::fill(data_.begin(), data_.end(), 0.0); }

  /// Resizes to rows x cols and zeroes the content.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  /// y = A*x.  x.size() must equal cols().
  Vector multiply(const Vector& x) const {
    if (x.size() != cols_) {
      throw std::invalid_argument("Matrix::multiply: size mismatch");
    }
    Vector y(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
      double acc = 0.0;
      for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * x[c];
      y[r] = acc;
    }
    return y;
  }

  /// Largest absolute entry.
  double maxAbs() const {
    double s = 0.0;
    for (double x : data_) s = std::max(s, std::fabs(x));
    return s;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial (row) pivoting.  After a successful
/// factor(), solve() may be called with any number of right-hand sides; the
/// factorization owns a copy of the matrix.
class LuFactorization {
 public:
  /// Factors @p a.  Returns false if the matrix is numerically singular
  /// (pivot magnitude below @p pivotTol times the matrix scale).
  bool factor(const Matrix& a, double pivotTol = 1e-13) {
    if (a.rows() != a.cols()) {
      throw std::invalid_argument("LuFactorization: matrix must be square");
    }
    const std::size_t n = a.rows();
    lu_ = a;
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), std::size_t{0});
    permSign_ = 1;
    valid_ = false;

    const double tiny = pivotTol * std::max(lu_.maxAbs(), 1.0);
    for (std::size_t k = 0; k < n; ++k) {
      // Partial pivoting: the row with the largest |entry| in column k.
      std::size_t pivotRow = k;
      double pivotMag = std::fabs(lu_(k, k));
      for (std::size_t r = k + 1; r < n; ++r) {
        const double mag = std::fabs(lu_(r, k));
        if (mag > pivotMag) {
          pivotMag = mag;
          pivotRow = r;
        }
      }
      if (pivotMag < tiny) return false;  // numerically singular
      if (pivotRow != k) {
        for (std::size_t c = 0; c < n; ++c) {
          std::swap(lu_(k, c), lu_(pivotRow, c));
        }
        std::swap(perm_[k], perm_[pivotRow]);
        permSign_ = -permSign_;
      }
      const double inv = 1.0 / lu_(k, k);
      for (std::size_t r = k + 1; r < n; ++r) {
        const double f = lu_(r, k) * inv;
        lu_(r, k) = f;  // L factor in the lower triangle
        if (f == 0.0) continue;
        for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= f * lu_(k, c);
      }
    }
    valid_ = true;
    return true;
  }

  /// Solves A x = b with the stored factors.  factor() must have succeeded.
  Vector solve(const Vector& b) const {
    if (!valid_) {
      throw std::runtime_error("LuFactorization::solve: not factored");
    }
    const std::size_t n = lu_.rows();
    if (b.size() != n) {
      throw std::invalid_argument("LuFactorization::solve: rhs size mismatch");
    }
    Vector x(n);
    // Permute, then forward-substitute through L (unit diagonal).
    for (std::size_t r = 0; r < n; ++r) {
      double acc = b[perm_[r]];
      for (std::size_t c = 0; c < r; ++c) acc -= lu_(r, c) * x[c];
      x[r] = acc;
    }
    // Back-substitute through U.
    for (std::size_t ri = n; ri-- > 0;) {
      double acc = x[ri];
      for (std::size_t c = ri + 1; c < n; ++c) acc -= lu_(ri, c) * x[c];
      x[ri] = acc / lu_(ri, ri);
    }
    return x;
  }

  /// Product of the pivots with the permutation's sign.  Valid only after a
  /// successful factor().
  double determinant() const {
    if (!valid_) {
      throw std::runtime_error("LuFactorization::determinant: not factored");
    }
    double det = permSign_;
    for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
    return det;
  }

  bool valid() const { return valid_; }
  std::size_t size() const { return lu_.rows(); }

 private:
  Matrix lu_;                      // combined L (unit lower) and U factors
  std::vector<std::size_t> perm_;  // row permutation
  int permSign_ = 1;
  bool valid_ = false;
};

/// One-shot A x = b; throws std::runtime_error if @p a is singular.
inline Vector solve(const Matrix& a, const Vector& b) {
  LuFactorization lu;
  if (!lu.factor(a)) throw std::runtime_error("testref::solve: singular matrix");
  return lu.solve(b);
}

}  // namespace prox::testref
