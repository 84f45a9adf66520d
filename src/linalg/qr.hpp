// Householder QR for least-squares subproblems.
//
// The bounded Levenberg-Marquardt optimizer solves its damped steps through
// DampedLeastSquares: each Jacobian J = QR is factored once, and every
// damped trial solves the small 2n x n system
// [R; sqrt(lambda) D] dx = [-(Q^T r)_1..n; 0] through a second
// QrFactorization. QR keeps that well-conditioned even when J^T J would
// lose half the digits.
//
// The factor is stored column-major, so each Householder step streams
// contiguous columns. Column dot products run in a fixed number of
// interleaved partial sums: the summation order depends only on m, never on
// the thread count or the caller.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace rms::linalg {

class QrFactorization {
 public:
  /// Factors the m x n matrix `a` (m >= n) as A = QR. The factorization is
  /// always completed, so r() and apply_qt() describe A even when it is
  /// rank deficient (a column that is zero after the earlier reflections
  /// keeps a zero R diagonal). Returns false if a column is numerically
  /// rank deficient or non-finite; solve_least_squares then is unavailable.
  bool factor(const Matrix& a);

  /// Minimizes ||A x - b||_2; b has m entries, x gets n entries. Requires a
  /// full-rank factorization.
  void solve_least_squares(const Vector& b, Vector& x) const;

  /// y = Q^T b (m entries; the first n are the ones R multiplies).
  void apply_qt(const Vector& b, Vector& y) const;

  /// The n x n upper-triangular factor R (zeros below the diagonal).
  [[nodiscard]] Matrix r() const;

  [[nodiscard]] bool ok() const { return ok_; }

 private:
  const double* column(std::size_t k) const { return &qr_[k * rows_]; }
  double* column(std::size_t k) { return &qr_[k * rows_]; }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  // Column-major: Householder vectors below the diagonal, R on/above.
  std::vector<double> qr_;
  Vector tau_;  // Householder scalar factors.
  bool ok_ = false;
};

/// min ||A dx + b||^2 + lambda ||D dx||^2 for one A and b and many lambda
/// (the Levenberg-Marquardt trial step). factor() costs one QR of the m x n
/// A and one Q^T b, O(m n^2); each solve() and model_reduction() is
/// O(n^3) and O(n^2) and touches no m-length array.
class DampedLeastSquares {
 public:
  /// Factors A = QR and keeps R and the first n entries of Q^T b. A may be
  /// rank deficient: [R; sqrt(lambda) D] has full rank for lambda > 0.
  void factor(const Matrix& a, const Vector& b);

  /// Solves [R; sqrt(lambda) D] dx = [-(Q^T b)_1..n; 0] in the least-squares
  /// sense; `d` is the positive diagonal of D. Returns false when that
  /// system is numerically rank deficient (lambda too small for D).
  bool solve(double lambda, const Vector& d, Vector& dx);

  /// 0.5 ||b||^2 - 0.5 ||b + A dx||^2 = -(Q^T b).(R dx) - 0.5 ||R dx||^2.
  [[nodiscard]] double model_reduction(const Vector& dx) const;

 private:
  QrFactorization a_qr_;
  Matrix r_;      // n x n factor of A
  Vector qt_b_;   // Q^T b; the first n entries are used
  QrFactorization damped_qr_;
  Matrix damped_;  // [R; sqrt(lambda) D]
  Vector damped_rhs_;
};

/// One-shot helper; returns false on rank deficiency.
bool solve_least_squares(const Matrix& a, const Vector& b, Vector& x);

}  // namespace rms::linalg
