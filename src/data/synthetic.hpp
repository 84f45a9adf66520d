// Synthetic experimental data generation.
//
// The paper's evaluation uses 16 lab data files recording crosslink
// concentration evolution for different rubber formulations. We do not have
// the Purdue lab's measurements, so we synthesize equivalents: integrate the
// model with ground-truth rate constants and a formulation-specific initial
// state, sample an observable at >3000 time points, and add measurement
// noise. Because the ground truth is known, the synthetic files also let
// tests verify that the parameter estimator recovers the constants it
// should.
#pragma once

#include <vector>

#include "data/experiment.hpp"
#include "solver/ode.hpp"
#include "support/status.hpp"

namespace rms::data {

/// The measured property (defined next to the solver, which interpolates
/// it at record times).
using solver::Observable;

struct SyntheticOptions {
  double t_begin = 0.0;
  double t_end = 10.0;
  std::size_t record_count = 3200;  ///< paper: "more than 3000 records"
  /// Relative measurement noise (std-dev as a fraction of the signal range);
  /// 0 disables noise.
  double noise_level = 0.0;
  std::uint64_t noise_seed = 1;
  solver::IntegrationOptions integration;
};

/// Integrates `system` from y0 with the stiff solver and samples
/// `observable` at uniformly spaced times.
support::Expected<ExperimentData> synthesize_experiment(
    const solver::OdeSystem& system, const std::vector<double>& y0,
    const Observable& observable, const SyntheticOptions& options,
    std::string name = {});

}  // namespace rms::data
