// Bounded non-linear least squares (the role of IMSL's
// imsl_f_bounded_least_squares).
//
// A modified Levenberg-Marquardt method [Levenberg 1944, Marquardt 1963]
// with simple variable bounds: each damped step minimizes
//   ||J dx + r||^2 + lambda ||D dx||^2   (D: Marquardt column scales),
// the candidate is projected onto the box (the active-set treatment of
// binding bounds), and lambda adapts on accept/reject. As in MINPACK's
// lmder [More 1978], each Jacobian is factored once, J = QR, keeping the
// n x n R and the first n entries of Q^T r; every lambda trial then solves
// the 2n x n system [R; sqrt(lambda) D] dx = [-Q^T r; 0] and predicts its
// reduction from R dx, in O(n^3) with no pass over the m residuals
// (linalg::DampedLeastSquares). The Jacobian is forward-difference with
// bound-aware perturbations. This is the estimator the Parallel Parameter
// Estimator wraps around the ODE solver to fit kinetic rate constants to
// experimental data (paper §4.2).
#pragma once

#include <functional>
#include <string>

#include "linalg/matrix.hpp"
#include "support/status.hpp"

namespace rms::nlopt {

/// Computes the residual vector r(x) (length fixed across calls).
using ResidualFunction =
    std::function<support::Status(const linalg::Vector& x, linalg::Vector& r)>;

/// Batched forward-difference Jacobian hook: fills the m x n matrix with
/// column j = (r(x + steps[j] e_j) - r) / steps[j]. The optimizer supplies
/// the base point x, the base residual r(x), and the bound-aware (always
/// nonzero) perturbations `steps`; the *caller* owns how the n perturbed
/// residual evaluations are computed — the parallel estimator schedules
/// them as one flat pool of (column, data file) ODE solves instead of n
/// serial objective calls. The optimizer calls it only at the point whose
/// residuals it evaluated last, so the hook may reuse what that evaluation
/// recorded: the estimator replays the base ODE solves' steps.
using JacobianFunction = std::function<support::Status(
    const linalg::Vector& x, const linalg::Vector& r,
    const linalg::Vector& steps, linalg::Matrix& jacobian)>;

struct LevMarOptions {
  std::size_t max_iterations = 200;
  /// Convergence: ||J^T r||_inf below this.
  double gradient_tolerance = 1e-8;
  /// Convergence: relative step length below this.
  double step_tolerance = 1e-12;
  /// Convergence (MINPACK's ftol test, in chi-square units): a trial
  /// whose predicted and |actual| cost reductions are both at most
  /// cost_tolerance * cost / (m - n) ends the fit, accepted if it lowered
  /// the cost. cost / (m - n) is half the residual variance the fit
  /// implies, so 1.0 stops once a step moves chi-square by less than 1.
  /// 0 (the default) turns the test off.
  double cost_tolerance = 0.0;
  double initial_lambda = 1e-3;
  double lambda_shrink = 1.0 / 3.0;
  double lambda_grow = 4.0;
  double max_lambda = 1e12;
  /// Relative forward-difference step for the Jacobian.
  double fd_relative_step = 1e-7;
};

struct LevMarResult {
  linalg::Vector x;
  double cost = 0.0;  ///< 0.5 * ||r||^2
  std::size_t iterations = 0;
  std::size_t residual_evaluations = 0;
  std::size_t jacobian_evaluations = 0;
  bool converged = false;
  std::string message;
};

/// Minimizes 0.5*||r(x)||^2 subject to lower <= x <= upper.
/// `residual_size` is the length of r. x0 must lie inside the bounds
/// (it is clamped if not). A residual error at x0 or in the Jacobian ends
/// the fit with that error, and so does a non-finite residual at x0 or a
/// non-finite Jacobian entry (a numeric error naming the residual index or
/// the column). An error or a non-finite cost at a trial point rejects the
/// step and grows lambda, and if lambda then passes max_lambda the result's
/// message names the last trial error.
support::Expected<LevMarResult> bounded_least_squares(
    const ResidualFunction& residuals, std::size_t residual_size,
    linalg::Vector x0, const linalg::Vector& lower, const linalg::Vector& upper,
    const LevMarOptions& options = {});

/// Same, with the Jacobian computed through `jacobian` (null falls back to
/// the serial per-column loop over `residuals`). Each hook invocation
/// counts as n residual evaluations.
support::Expected<LevMarResult> bounded_least_squares(
    const ResidualFunction& residuals, const JacobianFunction& jacobian,
    std::size_t residual_size, linalg::Vector x0, const linalg::Vector& lower,
    const linalg::Vector& upper, const LevMarOptions& options = {});

/// The forward-difference perturbation for a parameter at `x` inside
/// [lower, upper]: relative-sized, flipped backward when the forward step
/// leaves the box, shrunk to the wider in-box side when neither full step
/// fits, and never zero (a parameter pinned by a zero-width box keeps the
/// nominal forward step). Exposed for tests and for callers implementing
/// JacobianFunction against the same step convention.
double bound_aware_fd_step(double x, double lower, double upper,
                           double relative_step);

}  // namespace rms::nlopt
