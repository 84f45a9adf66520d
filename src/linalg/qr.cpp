#include "linalg/qr.hpp"

#include <cmath>
#include <limits>

namespace rms::linalg {

namespace {

// Dot product of x[0..len) and y[0..len) in kLanes interleaved partial sums
// added in a fixed order, so the result depends only on the data and len.
constexpr std::size_t kLanes = 4;

double dot_lanes(const double* x, const double* y, std::size_t len) {
  double s[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= len; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) s[l] += x[i + l] * y[i + l];
  }
  for (std::size_t l = 0; i < len; ++i, ++l) s[l] += x[i] * y[i];
  return (s[0] + s[1]) + (s[2] + s[3]);
}

}  // namespace

bool QrFactorization::factor(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  RMS_CHECK(m >= n);
  rows_ = m;
  cols_ = n;
  qr_.resize(m * n);
  tau_.assign(n, 0.0);
  ok_ = true;

  // One transposing pass into column-major storage.
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = a.row(i);
    for (std::size_t j = 0; j < n; ++j) qr_[j * m + i] = row[j];
  }

  // Rank-deficiency threshold relative to the overall matrix scale.
  double frobenius_sq = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    frobenius_sq += dot_lanes(column(j), column(j), m);
  }
  const double tolerance = std::sqrt(frobenius_sq) * 1e-12;

  for (std::size_t k = 0; k < n; ++k) {
    // Householder vector for column k, rows k..m-1.
    double* v = column(k);
    const double norm = std::sqrt(dot_lanes(v + k, v + k, m - k));
    if (!(norm > tolerance)) ok_ = false;  // also catches NaN
    if (!std::isfinite(norm) || norm < std::numeric_limits<double>::min()) {
      // Nothing (representable) left to reflect: H = I, R(k, k) stays.
      continue;
    }
    const double alpha = v[k] >= 0.0 ? -norm : norm;
    const double v0 = v[k] - alpha;
    // Normalize so v[k] = 1 implicitly; store v[i]/v0 below the diagonal.
    const double inv_v0 = 1.0 / v0;
    for (std::size_t i = k + 1; i < m; ++i) v[i] *= inv_v0;
    const double tau = -v0 / alpha;  // H = I - tau * v * v^T
    tau_[k] = tau;
    v[k] = alpha;  // R diagonal entry

    // Apply H to the remaining columns.
    for (std::size_t j = k + 1; j < n; ++j) {
      double* c = column(j);
      const double s =
          tau * (c[k] + dot_lanes(v + k + 1, c + k + 1, m - k - 1));
      c[k] -= s;
      for (std::size_t i = k + 1; i < m; ++i) c[i] -= s * v[i];
    }
  }
  return ok_;
}

void QrFactorization::apply_qt(const Vector& b, Vector& y) const {
  const std::size_t m = rows_;
  RMS_CHECK(b.size() == m);
  y = b;
  for (std::size_t k = 0; k < cols_; ++k) {
    const double* v = column(k);
    const double s =
        tau_[k] * (y[k] + dot_lanes(v + k + 1, y.data() + k + 1, m - k - 1));
    y[k] -= s;
    for (std::size_t i = k + 1; i < m; ++i) y[i] -= s * v[i];
  }
}

Matrix QrFactorization::r() const {
  Matrix r(cols_, cols_);
  for (std::size_t j = 0; j < cols_; ++j) {
    for (std::size_t i = 0; i <= j; ++i) r(i, j) = column(j)[i];
  }
  return r;
}

void QrFactorization::solve_least_squares(const Vector& b, Vector& x) const {
  RMS_CHECK(ok_);
  Vector y;
  apply_qt(b, y);

  // Back substitution with R.
  const std::size_t n = cols_;
  x.assign(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) sum -= column(j)[ii] * x[j];
    x[ii] = sum / column(ii)[ii];
  }
}

void DampedLeastSquares::factor(const Matrix& a, const Vector& b) {
  const std::size_t n = a.cols();
  a_qr_.factor(a);
  r_ = a_qr_.r();
  a_qr_.apply_qt(b, qt_b_);
  damped_ = Matrix(2 * n, n);
  damped_rhs_.assign(2 * n, 0.0);
  for (std::size_t j = 0; j < n; ++j) damped_rhs_[j] = -qt_b_[j];
}

bool DampedLeastSquares::solve(double lambda, const Vector& d, Vector& dx) {
  const std::size_t n = r_.cols();
  RMS_CHECK(d.size() == n);
  const double sqrt_lambda = std::sqrt(lambda);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) damped_(i, j) = r_(i, j);
    damped_(n + i, i) = sqrt_lambda * d[i];
  }
  if (!damped_qr_.factor(damped_)) return false;
  damped_qr_.solve_least_squares(damped_rhs_, dx);
  return true;
}

double DampedLeastSquares::model_reduction(const Vector& dx) const {
  const std::size_t n = r_.cols();
  RMS_CHECK(dx.size() == n);
  double reduction = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double r_dx = 0.0;
    for (std::size_t j = i; j < n; ++j) r_dx += r_(i, j) * dx[j];
    reduction -= qt_b_[i] * r_dx + 0.5 * r_dx * r_dx;
  }
  return reduction;
}

bool solve_least_squares(const Matrix& a, const Vector& b, Vector& x) {
  QrFactorization qr;
  if (!qr.factor(a)) return false;
  qr.solve_least_squares(b, x);
  return true;
}

}  // namespace rms::linalg
