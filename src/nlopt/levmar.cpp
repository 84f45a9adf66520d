#include "nlopt/levmar.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/qr.hpp"
#include "support/strings.hpp"

namespace rms::nlopt {

namespace {

using linalg::Matrix;
using linalg::Vector;
using support::Status;

double cost_of(const Vector& r) {
  double sum = 0.0;
  for (double v : r) sum += v * v;
  return 0.5 * sum;
}

void clamp_to_bounds(Vector& x, const Vector& lower, const Vector& upper) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::clamp(x[i], lower[i], upper[i]);
  }
}

}  // namespace

double bound_aware_fd_step(double x, double lower, double upper,
                           double relative_step) {
  double step = relative_step * std::max(std::fabs(x), 1e-8);
  const double up_room = upper - x;
  const double down_room = x - lower;
  if (step <= up_room) return step;
  if (step <= down_room) return -step;
  // Box narrower than the step on both sides (x hugging a bound of a tight
  // box): take the wider side at its full width so the perturbed point
  // stays feasible and the step stays nonzero.
  if (up_room >= down_room && up_room > 0.0) return up_room;
  if (down_room > 0.0) return -down_room;
  // Zero-width box: the parameter is pinned, its column cannot matter, but
  // a zero step would divide by zero — keep the nominal forward step.
  return step;
}

support::Expected<LevMarResult> bounded_least_squares(
    const ResidualFunction& residuals, std::size_t residual_size,
    Vector x0, const Vector& lower, const Vector& upper,
    const LevMarOptions& options) {
  return bounded_least_squares(residuals, JacobianFunction{}, residual_size,
                               std::move(x0), lower, upper, options);
}

support::Expected<LevMarResult> bounded_least_squares(
    const ResidualFunction& residuals, const JacobianFunction& jacobian_fn,
    std::size_t residual_size, Vector x0, const Vector& lower,
    const Vector& upper, const LevMarOptions& options) {
  const std::size_t n = x0.size();
  const std::size_t m = residual_size;
  if (lower.size() != n || upper.size() != n) {
    return support::invalid_argument("bound dimension mismatch");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (lower[i] > upper[i]) {
      return support::invalid_argument(support::str_format(
          "lower bound %zu exceeds upper bound (%g > %g)", i, lower[i],
          upper[i]));
    }
  }
  if (m < n) {
    return support::invalid_argument(
        "fewer residuals than parameters: the problem is underdetermined");
  }

  LevMarResult result;
  clamp_to_bounds(x0, lower, upper);
  result.x = std::move(x0);

  Vector r(m);
  RMS_RETURN_IF_ERROR(residuals(result.x, r));
  ++result.residual_evaluations;
  if (r.size() != m) {
    return support::invalid_argument("residual size mismatch");
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (!std::isfinite(r[i])) {
      return support::numeric_error(support::str_format(
          "residual %zu is not finite at the start point", i));
    }
  }
  result.cost = cost_of(r);

  Matrix jacobian(m, n);
  Vector r_pert(m);
  Vector r_new(m);
  Vector gradient(n);
  // Marquardt column scaling: the damping acts on D dx rather than dx, so
  // parameters of wildly different magnitudes (rate prefactors ~1e7 next to
  // O(1) constants) take sensible steps. Scales only ever grow (MINPACK
  // convention), keeping the trust region stable.
  Vector scale(n, 0.0);
  // J = QR once per Jacobian; every trial solves on the n x n factor.
  linalg::DampedLeastSquares damped;
  Vector damping(n);
  Vector dx;
  double lambda = options.initial_lambda;
  bool jacobian_valid = false;

  for (result.iterations = 0; result.iterations < options.max_iterations;
       ++result.iterations) {
    if (!jacobian_valid) {
      // Forward-difference Jacobian with bound-aware, never-zero
      // perturbations (backward when forward leaves the box, shrunk when
      // the box is narrower than the step).
      Vector steps(n);
      for (std::size_t j = 0; j < n; ++j) {
        steps[j] = bound_aware_fd_step(result.x[j], lower[j], upper[j],
                                       options.fd_relative_step);
      }
      if (jacobian_fn) {
        // The caller owns the n perturbed evaluations (parallel FD columns).
        RMS_RETURN_IF_ERROR(jacobian_fn(result.x, r, steps, jacobian));
        result.residual_evaluations += n;
      } else {
        for (std::size_t j = 0; j < n; ++j) {
          Vector x_pert = result.x;
          x_pert[j] += steps[j];
          RMS_RETURN_IF_ERROR(residuals(x_pert, r_pert));
          ++result.residual_evaluations;
          const double inv_step = 1.0 / steps[j];
          for (std::size_t i = 0; i < m; ++i) {
            jacobian(i, j) = (r_pert[i] - r[i]) * inv_step;
          }
        }
      }
      ++result.jacobian_evaluations;
      jacobian_valid = true;
      // Column norms in one row-major pass; a non-finite entry ends the fit.
      Vector column_norm_sq(n, 0.0);
      for (std::size_t i = 0; i < m; ++i) {
        const double* row = jacobian.row(i);
        for (std::size_t j = 0; j < n; ++j) {
          column_norm_sq[j] += row[j] * row[j];
        }
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (!std::isfinite(column_norm_sq[j])) {
          for (std::size_t i = 0; i < m; ++i) {
            if (!std::isfinite(jacobian(i, j))) {
              return support::numeric_error(support::str_format(
                  "Jacobian column %zu is not finite (row %zu)", j, i));
            }
          }
        }
        scale[j] = std::max(scale[j], std::sqrt(column_norm_sq[j]));
      }
      // A rank-deficient J (a parameter the data do not see) still
      // factors; the damped system has full rank for lambda > 0.
      damped.factor(jacobian, r);
      for (std::size_t j = 0; j < n; ++j) {
        damping[j] = scale[j] > 0.0 ? scale[j] : 1.0;
      }
    }

    // gradient = J^T r; scale-invariant convergence check (MINPACK's gtol
    // criterion: the cosine of the angle between r and each column of J).
    jacobian.multiply_transpose(r, gradient);
    const double r_norm = std::sqrt(2.0 * result.cost);
    double gradient_measure = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      // Projected gradient: a binding bound with the gradient pushing
      // outward contributes nothing (active-set treatment).
      const bool at_lower = result.x[j] <= lower[j] && gradient[j] > 0.0;
      const bool at_upper = result.x[j] >= upper[j] && gradient[j] < 0.0;
      if (at_lower || at_upper) continue;
      const double denom = scale[j] * r_norm;
      if (denom > 0.0) {
        gradient_measure =
            std::max(gradient_measure, std::fabs(gradient[j]) / denom);
      }
    }
    if (gradient_measure < options.gradient_tolerance ||
        r_norm == 0.0) {
      result.converged = true;
      result.message = "projected gradient below tolerance";
      break;
    }

    // Damped step: minimize ||J dx + r||^2 + lambda ||D dx||^2.
    bool step_accepted = false;
    Status trial_error = Status::ok();
    while (lambda <= options.max_lambda) {
      if (!damped.solve(lambda, damping, dx)) {
        lambda *= options.lambda_grow;
        continue;
      }

      Vector x_new = result.x;
      for (std::size_t j = 0; j < n; ++j) x_new[j] += dx[j];
      clamp_to_bounds(x_new, lower, upper);

      // Reduction the Gauss-Newton model predicts for the damped step.
      const double predicted_reduction = damped.model_reduction(dx);

      // A trial point whose residuals fail (e.g. a stiff solve that cannot
      // finish there) is a rejected step, like a non-finite cost: a shorter
      // step may stay where the model still solves.
      const Status trial = residuals(x_new, r_new);
      ++result.residual_evaluations;
      if (!trial.is_ok()) trial_error = trial;
      const double new_cost = trial.is_ok() ? cost_of(r_new) : HUGE_VAL;

      // MINPACK's ftol test in chi-square units: cost / (m - n) estimates
      // half the residual variance, so a reduction below cost_tolerance
      // times that moves chi-square by less than cost_tolerance. When
      // neither the model nor the trial finds that much, the fit sits at
      // its noise floor whether or not this trial is accepted.
      const double chi_square_unit =
          m > n ? result.cost / static_cast<double>(m - n) : 0.0;
      const double negligible = options.cost_tolerance * chi_square_unit;
      const bool at_floor = negligible > 0.0 &&
                            predicted_reduction <= negligible &&
                            std::fabs(result.cost - new_cost) <= negligible;

      if (new_cost < result.cost && std::isfinite(new_cost)) {
        // Accept.
        double step_norm = 0.0;
        double x_norm = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          step_norm += (x_new[j] - result.x[j]) * (x_new[j] - result.x[j]);
          x_norm += x_new[j] * x_new[j];
        }
        result.x = std::move(x_new);
        r.swap(r_new);
        result.cost = new_cost;
        lambda = std::max(lambda * options.lambda_shrink, 1e-12);
        jacobian_valid = false;
        step_accepted = true;

        if (std::sqrt(step_norm) <
            options.step_tolerance * (std::sqrt(x_norm) + 1e-30)) {
          result.converged = true;
          result.message = "step length below tolerance";
        }
        if (at_floor) {
          result.converged = true;
          result.message = "cost reduction below tolerance";
        }
        break;
      }
      if (at_floor) {
        result.converged = true;
        result.message = "cost reduction below tolerance";
        break;
      }
      lambda *= options.lambda_grow;
    }

    if (!step_accepted && !result.converged) {
      result.converged = result.cost == 0.0;
      result.message = "lambda exceeded maximum without an acceptable step";
      if (!trial_error.is_ok()) {
        result.message += "; last trial error: " + trial_error.to_string();
      }
      break;
    }
    if (result.converged) break;
  }

  if (!result.converged && result.message.empty()) {
    result.message = "iteration limit reached";
  }
  return result;
}

}  // namespace rms::nlopt
