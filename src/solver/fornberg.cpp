#include "solver/fornberg.hpp"

#include "support/assert.hpp"

namespace rms::solver {

void fornberg_weights(double x0, const double* x, int n, int max_derivative,
                      std::vector<double>& weights) {
  RMS_CHECK(n >= 1 && max_derivative >= 0);
  const int m = max_derivative;
  weights.assign(static_cast<std::size_t>(m + 1) * n, 0.0);
  auto w = [&](int d, int j) -> double& {
    return weights[static_cast<std::size_t>(d) * n + j];
  };

  double c1 = 1.0;
  double c4 = x[0] - x0;
  w(0, 0) = 1.0;
  for (int i = 1; i < n; ++i) {
    const int mn = std::min(i, m);
    double c2 = 1.0;
    const double c5 = c4;
    c4 = x[i] - x0;
    for (int j = 0; j < i; ++j) {
      const double c3 = x[i] - x[j];
      RMS_CHECK_MSG(c3 != 0.0, "fornberg_weights: duplicate nodes");
      c2 *= c3;
      if (j == i - 1) {
        for (int d = mn; d >= 1; --d) {
          w(d, i) = c1 * (d * w(d - 1, i - 1) - c5 * w(d, i - 1)) / c2;
        }
        w(0, i) = -c1 * c5 * w(0, i - 1) / c2;
      }
      for (int d = mn; d >= 1; --d) {
        w(d, j) = (c4 * w(d, j) - d * w(d - 1, j)) / c3;
      }
      w(0, j) = c4 * w(0, j) / c3;
    }
    c1 = c2;
  }
}

void LagrangeBasis::reset(const double* x, int n) {
  RMS_CHECK(n >= 1 && n <= kMaxNodes);
  n_ = n;
  for (int k = 0; k < n; ++k) {
    x_[k] = x[k];
    double denominator = 1.0;
    for (int j = 0; j < n; ++j) {
      if (j != k) denominator *= x[k] - x[j];
    }
    RMS_CHECK_MSG(denominator != 0.0, "LagrangeBasis: duplicate nodes");
    scale_[k] = 1.0 / denominator;
  }
}

void LagrangeBasis::weights(double t, double* w) const {
  // w[k] = beta_k * (prod_{j < k} (t - x_j)) * (prod_{j > k} (t - x_j)).
  std::array<double, kMaxNodes> prefix;
  double product = 1.0;
  for (int k = 0; k < n_; ++k) {
    prefix[k] = product;
    product *= t - x_[k];
  }
  double suffix = 1.0;
  for (int k = n_ - 1; k >= 0; --k) {
    w[k] = scale_[k] * prefix[k] * suffix;
    suffix *= t - x_[k];
  }
}

}  // namespace rms::solver
