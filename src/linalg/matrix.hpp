// Dense row-major matrix and vector helpers.
//
// Sized for the Newton systems inside the Adams-Gear solver (hundreds to a
// few thousand unknowns, dense storage, partial-pivoting LU) and the
// Jacobians of the bounded Levenberg-Marquardt optimizer, which it factors
// by QR (linalg/qr.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "support/assert.hpp"

namespace rms::linalg {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    RMS_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    RMS_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* row(std::size_t r) { return &data_[r * cols_]; }
  const double* row(std::size_t r) const { return &data_[r * cols_]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// y = A * x.
  void multiply(const Vector& x, Vector& y) const;

  /// y = A^T * x.
  void multiply_transpose(const Vector& x, Vector& y) const;

  /// C = A * B.
  [[nodiscard]] Matrix multiply(const Matrix& other) const;

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean norm of a vector.
double norm2(const Vector& v);

/// Infinity norm of a vector.
double norm_inf(const Vector& v);

/// Dot product (sizes must match).
double dot(const Vector& a, const Vector& b);

/// y += alpha * x.
void axpy(double alpha, const Vector& x, Vector& y);

}  // namespace rms::linalg
