// The paper's Fig. 1 workflow end to end: propose a vulcanization reaction
// model, compile it to optimized ODE code, "measure" cure curves for a set
// of rubber formulations (synthetic experiments with known ground-truth
// kinetics + noise), then run the Parameter Estimator to recover the
// kinetic rate constants from the data and report the fit quality.
//
// Run: ./build/examples/vulcanization_study
#include <cmath>
#include <cstdio>

#include "data/synthetic.hpp"
#include "estimator/estimator.hpp"
#include "models/vulcanization.hpp"
#include "rms/execution.hpp"
#include "support/strings.hpp"

int main() {
  using namespace rms;

  // ---- 1. Propose the reaction model and compile it. ----
  models::VulcanizationConfig config;
  config.max_chain_length = 3;
  std::printf("Compiling the vulcanization model (polysulfide chains up to "
              "S%d)...\n",
              config.max_chain_length);
  auto built = models::build_vulcanization_model(config);
  if (!built.is_ok()) {
    std::fprintf(stderr, "model build failed: %s\n",
                 built.status().to_string().c_str());
    return 1;
  }
  const std::size_t n = built->equation_count();
  std::printf("  %zu species, %zu reactions, %zu -> %zu arithmetic ops "
              "after optimization\n\n",
              n, built->network.reactions.size(),
              built->report.before.total(), built->report.after.total());

  // Observable: total crosslink concentration (what the rheometer sees).
  data::Observable observable;
  for (std::size_t i = 0; i < n; ++i) {
    if (built->odes.species_names[i].rfind("RSR_", 0) == 0) {
      observable.weighted_species.emplace_back(i, 1.0);
    }
  }

  // ---- 2. "Collect" experimental data for four formulations. ----
  // Ground truth: the compiled constants; each formulation varies the
  // accelerator loading. The "lab" integrates the compiled model on the
  // bytecode VM with its analytic sparse Jacobian.
  const std::vector<double> true_rates = built->rates.values();
  ExecutionOptions execution;
  execution.backend = Backend::kVm;
  const Execution exec = Execution::create(*built, execution);
  const solver::OdeSystem system = exec.make_system(&true_rates);
  std::vector<estimator::Experiment> experiments;
  std::printf("Synthesizing cure curves (ground truth hidden from the "
              "estimator):\n");
  for (int f = 0; f < 4; ++f) {
    estimator::Experiment e;
    e.initial_state = built->odes.init_concentrations;
    // Vary accelerator level per formulation.
    for (std::size_t i = 0; i < n; ++i) {
      if (built->odes.species_names[i].rfind("AcSAc_", 0) == 0) {
        e.initial_state[i] *= 0.5 + 0.5 * f;
      }
    }
    data::SyntheticOptions options;
    options.integration.newton_linear_solver =
        solver::NewtonLinearSolver::kSparseLu;
    options.t_end = 6.0;
    options.record_count = 3200;  // paper: >3000 records per file
    options.noise_level = 0.004;
    options.noise_seed = 11 + static_cast<std::uint64_t>(f);
    auto data = data::synthesize_experiment(
        system, e.initial_state, observable, options,
        support::str_format("formulation-%d", f + 1));
    if (!data.is_ok()) {
      std::fprintf(stderr, "synthesis failed: %s\n",
                   data.status().to_string().c_str());
      return 1;
    }
    e.data = std::move(data).value();
    std::printf("  %s: %zu records, final crosslink level %.4f\n",
                e.data.name.c_str(), e.data.record_count(),
                e.data.values.back());
    experiments.push_back(std::move(e));
  }

  // ---- 3. Estimate the kinetic constants from the data. ----
  // The chemist bounds each constant within a factor of 10 of a rough
  // guess; the optimizer starts well away from the truth.
  const std::size_t n_params = built->rates.size();
  std::vector<std::uint32_t> slots;
  for (std::uint32_t s = 0; s < n_params; ++s) slots.push_back(s);
  std::vector<double> x0(n_params);
  std::vector<double> lower(n_params);
  std::vector<double> upper(n_params);
  for (std::size_t i = 0; i < n_params; ++i) {
    x0[i] = true_rates[i] * 2.2;  // deliberately wrong starting guess
    lower[i] = true_rates[i] * 0.1;
    upper[i] = true_rates[i] * 10.0;
  }

  estimator::ObjectiveFunction objective(built->program_optimized, observable,
                                         std::move(experiments), slots,
                                         true_rates);
  std::printf("\nRunning the parameter estimator (%zu parameters, %zu "
              "residuals)...\n",
              n_params, objective.residual_size());
  auto result = estimator::estimate_parameters(objective, x0, lower, upper);
  if (!result.is_ok()) {
    std::fprintf(stderr, "estimation failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }

  std::printf("  converged: %s (%s), %zu iterations, %zu objective "
              "evaluations, final cost %.3e\n\n",
              result->converged ? "yes" : "no", result->message.c_str(),
              result->iterations, result->objective_evaluations,
              result->final_cost);

  std::printf("%-12s %12s %12s %10s\n", "constant", "true", "estimated",
              "error");
  double worst = 0.0;
  for (std::size_t i = 0; i < n_params; ++i) {
    const double error =
        std::fabs(result->rate_constants[i] - true_rates[i]) /
        std::fabs(true_rates[i]);
    worst = std::max(worst, error);
    std::printf("%-12s %12.5f %12.5f %9.2f%%\n",
                built->rates.canonical_name(static_cast<std::uint32_t>(i))
                    .c_str(),
                true_rates[i], result->rate_constants[i], 100.0 * error);
  }
  std::printf("\nWorst relative error: %.2f%% — the model + estimator "
              "recover the kinetics the data was generated with.\n",
              100.0 * worst);
  return worst < 0.25 ? 0 : 2;
}
