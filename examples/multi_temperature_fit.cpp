// Multi-temperature parameter estimation with Arrhenius kinetics.
//
// The paper's experimental files record crosslink evolution "for different
// formulations cured at different temperatures". This example compiles the
// Arrhenius vulcanization model (models_rdl/vulcanization_arrhenius.rdl
// inline), synthesizes cure curves at three temperatures from hidden
// ground-truth prefactors, and lets the Parameter Estimator recover the
// temperature-independent prefactors from the combined data — something a
// single-temperature fit could not disentangle from the activation
// energies.
//
// Run: ./build/examples/multi_temperature_fit
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "data/synthetic.hpp"
#include "estimator/estimator.hpp"
#include "rms/execution.hpp"
#include "rms/suite.hpp"
#include "support/strings.hpp"

namespace {

const char* kModelSource = R"rdl(
species AcSAc(n = 1..3) = "NS{n}N";
species AcSR(n = 1..3)  = "NS{n}[RH3]";
species RSR(n = 1..3)   = "[RH3]S{n}[RH3]";
species AcH = "N";
species RH  = "[RH4]";

init AcSAc_3 = 0.05;
init RH = 1.0;

const k_attack   = arrhenius(1.4e7, 39000);
const k_scission = arrhenius(6.6e7, 46500);
const k_abstract = arrhenius(2.8e7, 39000);
const k_combine  = arrhenius(1.1e6, 29000);

rule attach_rubber {
  site nc: N;  site s: S;  bond nc s 1;
  site r: R where h >= 4;
  disconnect nc s;  remove_h r;  connect s r;  add_h nc;
  rate k_attack;
}
rule chain_scission {
  site a: S where depth >= 1;  site b: S;  bond a b 1;
  disconnect a b;
  rate k_scission;
}
rule h_abstraction {
  site s: S where radical;  site r: R where h >= 4;
  remove_h r;  add_h s;
  rate k_abstract;
}
rule recombination {
  site s: S where radical;  site r: R where radical;
  connect s r;
  rate k_combine;
}
)rdl";

}  // namespace

int main() {
  using namespace rms;

  auto built = Suite::compile(kModelSource);
  if (!built.is_ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 built.status().to_string().c_str());
    return 1;
  }
  const std::size_t n = built->equation_count();
  const std::size_t n_params = built->rates.size();
  std::printf("Model: %zu species, %zu Arrhenius rate constants.\n\n", n,
              n_params);

  data::Observable observable;
  for (std::size_t i = 0; i < n; ++i) {
    if (built->odes.species_names[i].rfind("RSR_", 0) == 0) {
      observable.weighted_species.emplace_back(i, 1.0);
    }
  }

  // Ground truth: the compiled prefactors.
  std::vector<double> true_prefactors(n_params);
  for (std::uint32_t s = 0; s < n_params; ++s) {
    const rcip::ArrheniusParams* params = built->rates.arrhenius(s);
    if (params == nullptr) {
      std::fprintf(stderr, "slot %u is not Arrhenius-form\n", s);
      return 1;
    }
    true_prefactors[s] = params->prefactor;
  }

  // Cure curves at three temperatures (the hot cure finishes much faster),
  // integrated on the bytecode VM with the analytic sparse Jacobian.
  ExecutionOptions execution;
  execution.backend = Backend::kVm;
  const Execution exec = Execution::create(*built, execution);
  std::vector<estimator::Experiment> experiments;
  std::printf("Synthesizing cure curves:\n");
  for (double temperature : {300.0, 320.0, 340.0}) {
    const std::vector<double> rates_at_t = built->rates.values_at(temperature);
    const solver::OdeSystem system = exec.make_system(&rates_at_t);
    data::SyntheticOptions options;
    options.integration.newton_linear_solver =
        solver::NewtonLinearSolver::kSparseLu;
    options.t_end = 12.0;
    options.record_count = 3200;
    options.noise_level = 0.003;
    options.noise_seed = static_cast<std::uint64_t>(temperature);
    estimator::Experiment e;
    e.initial_state = built->odes.init_concentrations;
    e.temperature = temperature;
    auto data = data::synthesize_experiment(
        system, e.initial_state, observable, options,
        support::str_format("cure-%.0fK", temperature));
    if (!data.is_ok()) {
      std::fprintf(stderr, "synthesis failed: %s\n",
                   data.status().to_string().c_str());
      return 1;
    }
    e.data = std::move(data).value();
    std::printf("  %s: final crosslink level %.4f\n", e.data.name.c_str(),
                e.data.values.back());
    experiments.push_back(std::move(e));
  }

  // Estimate the prefactors (activation energies held at the quantum-
  // chemistry values, as the paper's workflow prescribes).
  std::vector<std::uint32_t> slots;
  std::vector<double> x0(n_params);
  std::vector<double> lower(n_params);
  std::vector<double> upper(n_params);
  for (std::uint32_t s = 0; s < n_params; ++s) {
    slots.push_back(s);
    x0[s] = true_prefactors[s] * 0.4;
    lower[s] = true_prefactors[s] * 0.05;
    upper[s] = true_prefactors[s] * 20.0;
  }
  estimator::ObjectiveOptions options;
  options.rate_table = &built->rates;
  // Throughput layer: persistent 2-worker pool, LPT-ordered (column, file)
  // Jacobian tasks whose FD columns replay the base solve's steps (results
  // are bit-identical for any worker count; see docs/estimator.md). The
  // analytic Jacobian is the Execution's.
  options.compiled_jacobian = exec.compiled_jacobian();
  options.pool_workers = 2;
  options.dynamic_load_balancing = true;
  estimator::ObjectiveFunction objective(built->program_optimized, observable,
                                         std::move(experiments), slots,
                                         true_prefactors, options);
  std::printf("\nFitting %zu prefactors against %zu residuals...\n", n_params,
              objective.residual_size());
  auto result = estimator::estimate_parameters(objective, x0, lower, upper);
  if (!result.is_ok()) {
    std::fprintf(stderr, "estimation failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  std::printf("  %s after %zu iterations, cost %.3e\n",
              result->message.c_str(), result->iterations,
              result->final_cost);
  const estimator::SolverStats& sstats = result->solver_stats;
  std::printf(
      "  solver: %zu solves, %zu steps, %zu Newton iterations, "
      "%zu Jacobians, %zu factorizations, %zu replayed columns "
      "(%zu fell back)\n\n",
      sstats.solves, sstats.integration.steps,
      sstats.integration.newton_iterations,
      sstats.integration.jacobian_evaluations,
      sstats.integration.factorizations, sstats.replayed_solves,
      sstats.replay_fallbacks);

  std::printf("%-12s %14s %14s %10s\n", "constant", "true A", "estimated A",
              "error");
  double worst = 0.0;
  for (std::uint32_t s = 0; s < n_params; ++s) {
    const double error = std::fabs(result->rate_constants[s] -
                                   true_prefactors[s]) /
                         true_prefactors[s];
    worst = std::max(worst, error);
    std::printf("%-12s %14.4e %14.4e %9.2f%%\n",
                built->rates.canonical_name(s).c_str(), true_prefactors[s],
                result->rate_constants[s], 100.0 * error);
  }
  std::printf("\nWorst relative error: %.2f%%\n", 100.0 * worst);
  return worst < 0.3 ? 0 : 2;
}
