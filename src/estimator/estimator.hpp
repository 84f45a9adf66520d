// Parallel Parameter Estimator (paper §4): bounded Levenberg-Marquardt over
// the parallel objective function, estimating the kinetic rate constants
// that best fit the experimental data within chemist-supplied bounds.
#pragma once

#include <vector>

#include "estimator/objective.hpp"
#include "nlopt/levmar.hpp"
#include "support/status.hpp"

namespace rms::estimator {

struct EstimationResult {
  /// Estimated value per parameter (same order as estimated_slots).
  std::vector<double> rate_constants;
  double final_cost = 0.0;
  std::size_t iterations = 0;
  std::size_t objective_evaluations = 0;
  bool converged = false;
  std::string message;
  /// Per-file solve seconds from the final objective evaluation.
  std::vector<double> file_times;
  /// Aggregated Adams-Gear work over every per-file solve of the run
  /// (steps, Newton iterations, Jacobian evaluations, factorizations,
  /// replayed column solves).
  SolverStats solver_stats;
};

struct EstimatorOptions {
  nlopt::LevMarOptions levmar;

  EstimatorOptions() {
    // Residuals come out of an adaptive ODE solver whose output carries
    // tolerance-level noise (~rtol). A forward-difference step well above
    // that floor keeps the Jacobian signal-dominated; 1e-7 (the analytic
    // default) would difference the solver noise instead.
    levmar.fd_relative_step = 1e-4;
    // The same noise gives the fit a floor: once a step can move
    // chi-square by less than 1, further iterations only fit solver noise.
    levmar.cost_tolerance = 1.0;
  }
};

/// Runs the full estimation: bounds constrain the rate constants
/// (paper §4: "the chemist ... set[s] bounds on the different kinetic
/// parameters"), x0 is the initial guess.
support::Expected<EstimationResult> estimate_parameters(
    ObjectiveFunction& objective, std::vector<double> x0,
    const std::vector<double>& lower_bounds,
    const std::vector<double>& upper_bounds,
    const EstimatorOptions& options = {});

}  // namespace rms::estimator
