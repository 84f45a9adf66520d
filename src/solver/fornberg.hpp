// Fornberg finite-difference weights, and the Lagrange basis the dense
// output evaluates at many times between two steps.
//
// Computes the weights w[d][j] such that the d-th derivative at x0 of the
// polynomial interpolating f at nodes x[0..n-1] equals sum_j w[d][j]*f(x[j]).
// The variable-step BDF (Adams-Gear) solver uses the first-derivative
// weights to build its corrector equation, and the zeroth-derivative
// weights for its predictor.
//
// Reference algorithm: B. Fornberg, "Generation of finite difference
// formulas on arbitrarily spaced grids", Math. Comp. 51 (1988).
#pragma once

#include <array>
#include <vector>

namespace rms::solver {

/// weights[d * n + j] = weight of f(x[j]) for the d-th derivative at x0,
/// for d = 0..max_derivative. Nodes must be distinct.
void fornberg_weights(double x0, const double* x, int n, int max_derivative,
                      std::vector<double>& weights);

/// The Lagrange basis l_k(t) = beta_k * prod_{j != k} (t - x_j) of up to
/// kMaxNodes distinct nodes, for evaluation at many t on the same nodes.
/// reset() computes each node's scale beta_k = 1 / prod_{j != k} (x_k - x_j)
/// once; weights() then costs O(n) multiplications (prefix and suffix
/// products), with no division and no allocation. The weights are
/// fornberg_weights(t, x, n, 0, w) up to rounding.
class LagrangeBasis {
 public:
  static constexpr int kMaxNodes = 8;

  void reset(const double* x, int n);
  [[nodiscard]] int size() const { return n_; }
  /// w[k] = l_k(t) for k = 0..size()-1.
  void weights(double t, double* w) const;

 private:
  int n_ = 0;
  std::array<double, kMaxNodes> x_{};
  std::array<double, kMaxNodes> scale_{};
};

}  // namespace rms::solver
