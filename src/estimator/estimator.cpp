#include "estimator/estimator.hpp"

namespace rms::estimator {

support::Expected<EstimationResult> estimate_parameters(
    ObjectiveFunction& objective, std::vector<double> x0,
    const std::vector<double>& lower_bounds,
    const std::vector<double>& upper_bounds,
    const EstimatorOptions& options) {
  auto residual_fn = [&objective](const linalg::Vector& x,
                                  linalg::Vector& r) -> support::Status {
    return objective.evaluate(x, r);
  };
  // The objective owns the FD Jacobian: the optimizer hands over the base
  // residual and the bound-aware steps, and all (column, file) solves run
  // as one flat task pool (replaying the base solve's steps when it
  // recorded them).
  auto jacobian_fn = [&objective](const linalg::Vector& x,
                                  const linalg::Vector& r,
                                  const linalg::Vector& steps,
                                  linalg::Matrix& jacobian) -> support::Status {
    return objective.evaluate_jacobian(x, r, steps, jacobian);
  };
  auto lm = nlopt::bounded_least_squares(residual_fn, jacobian_fn,
                                         objective.residual_size(),
                                         std::move(x0), lower_bounds,
                                         upper_bounds, options.levmar);
  if (!lm.is_ok()) return lm.status();

  EstimationResult result;
  result.rate_constants = lm->x;
  result.final_cost = lm->cost;
  result.iterations = lm->iterations;
  result.objective_evaluations = lm->residual_evaluations;
  result.converged = lm->converged;
  result.message = lm->message;
  result.file_times = objective.last_file_times();
  result.solver_stats = objective.solver_stats();
  return result;
}

}  // namespace rms::estimator
