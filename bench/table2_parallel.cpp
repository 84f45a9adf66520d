// Regenerates paper Table 2: "Results in IBM/SP Using MPI" — total time and
// speedup on 1/2/4/8/16 nodes, without and with the dynamic load balancing
// algorithm.
//
// The workload is the paper's: 16 experimental data files (synthetic
// formulations with different record counts and kinetics, so per-file solve
// times differ — the source of the 16-node load imbalance), each solved
// with the Adams-Gear integrator against the optimized vulcanization model.
// Per-file solve times are MEASURED by running the objective function for
// real (sequentially, since this host has one core); the schedules are then
// replayed on a virtual-time cluster (SimCluster):
//   - without dynamic load balancing: the Fig. 9 block distribution;
//   - with dynamic load balancing: LPT on the recorded times (§4.4).
// The objective's worker pool (4 workers) is exercised once to validate
// that the parallel execution produces exactly the sequential residuals.
//
// Flags:
//   --scale=F      model scale (default 0.004 of TC5, ~1000 equations:
//                  feasible because the solves use the compiler-generated
//                  sparse analytic Jacobian; --no-sparse reverts to dense
//                  finite differences and wants a smaller --scale)
//   --files=N      number of experiment files (default 16, as the paper)
//   --records=N    base records per file (default 3200)
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "data/synthetic.hpp"
#include "estimator/objective.hpp"
#include "models/test_cases.hpp"
#include "parallel/sim_cluster.hpp"
#include "rms/execution.hpp"
#include "support/rng.hpp"

namespace {

using namespace rms;

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const double scale = flags.get_double("scale", 0.004);
  const bool use_sparse = !flags.has("no-sparse");
  const int n_files = static_cast<int>(flags.get_int("files", 16));
  const std::size_t base_records =
      static_cast<std::size_t>(flags.get_int("records", 3200));

  auto config = models::scaled_config(5, scale);
  auto built = models::build_test_case(config);
  if (!built.is_ok()) {
    std::fprintf(stderr, "model build failed: %s\n",
                 built.status().to_string().c_str());
    return 1;
  }
  const std::size_t n = built->equation_count();
  std::printf("Table 2 — MPI parallel estimation (model: %zu equations, "
              "%d data files)\n\n",
              n, n_files);

  // Observable: total crosslink concentration (sum over every C_n_v).
  data::Observable observable;
  for (std::size_t i = 0; i < n; ++i) {
    if (built->odes.species_names[i].rfind("C_", 0) == 0) {
      observable.weighted_species.emplace_back(i, 1.0);
    }
  }

  // The compiler-generated analytic Jacobian accelerates both the data
  // synthesis and every objective solve. The VM keeps the measured solve
  // times independent of the host's C compiler.
  ExecutionOptions execution_options;
  execution_options.backend = Backend::kVm;
  execution_options.with_jacobian = use_sparse;
  const Execution exec = Execution::create(*built, execution_options);
  estimator::ObjectiveOptions objective_options;
  objective_options.compiled_jacobian = exec.compiled_jacobian();
  const std::vector<double> true_rates = built->rates.values();

  // Synthesize the data files: formulations differ in initial
  // concentrations AND record counts, so solve costs differ across files
  // (the imbalance the paper attributes its sub-linear 16-node speedup to).
  const solver::OdeSystem system = exec.make_system(&true_rates);
  support::Xoshiro256 rng(2026);
  std::vector<estimator::Experiment> experiments;
  for (int f = 0; f < n_files; ++f) {
    estimator::Experiment e;
    e.initial_state = built->odes.init_concentrations;
    // Vary the formulation: sulfur and accelerator loading.
    e.initial_state[0] *= rng.uniform(0.6, 1.6);  // S8
    e.initial_state[1] *= rng.uniform(0.6, 1.6);  // AcH
    data::SyntheticOptions options;
    if (use_sparse) {
      options.integration.newton_linear_solver =
          solver::NewtonLinearSolver::kSparseLu;
    }
    options.t_end = rng.uniform(4.0, 10.0);
    options.record_count = base_records / 2 +
                           static_cast<std::size_t>(rng.below(base_records));
    options.noise_level = 0.002;
    options.noise_seed = 77 + static_cast<std::uint64_t>(f);
    auto data = data::synthesize_experiment(
        system, e.initial_state, observable, options,
        support::str_format("formulation-%02d", f + 1));
    if (!data.is_ok()) {
      std::fprintf(stderr, "file %d synthesis failed: %s\n", f,
                   data.status().to_string().c_str());
      return 1;
    }
    e.data = std::move(data).value();
    experiments.push_back(std::move(e));
  }

  // Estimated parameters: all 10 kinetic constants (evaluated at truth —
  // Table 2 measures the objective-function cost, not the fit trajectory).
  std::vector<std::uint32_t> slots;
  for (std::uint32_t s = 0; s < built->rates.size(); ++s) slots.push_back(s);
  linalg::Vector x(true_rates.begin(), true_rates.end());

  // Measure per-file solve times (sequential ground truth).
  estimator::ObjectiveFunction objective(built->program_optimized, observable,
                                         experiments, slots, true_rates,
                                         objective_options);
  linalg::Vector residuals;
  auto status = objective.evaluate(x, residuals);
  if (!status.is_ok()) {
    std::fprintf(stderr, "objective failed: %s\n", status.to_string().c_str());
    return 1;
  }
  const std::vector<double> file_times = objective.last_file_times();
  double serial = 0.0;
  for (double t : file_times) serial += t;
  std::printf("Measured per-file solve times (s):");
  for (double t : file_times) std::printf(" %.3f", t);
  std::printf("\n  serial total: %.3f s\n\n", serial);

  // Validate the worker pool once: residuals are bit-identical to the
  // sequential evaluation for any worker count.
  {
    estimator::ObjectiveOptions par = objective_options;
    par.pool_workers = 4;
    estimator::ObjectiveFunction parallel_objective(
        built->program_optimized, observable, experiments, slots, true_rates,
        par);
    linalg::Vector parallel_residuals;
    auto s = parallel_objective.evaluate(x, parallel_residuals);
    double max_diff = 0.0;
    if (s.is_ok()) {
      for (std::size_t i = 0; i < residuals.size(); ++i) {
        max_diff = std::max(max_diff,
                            std::fabs(residuals[i] - parallel_residuals[i]));
      }
    }
    std::printf("Pool validation (4 workers): %s, max residual difference "
                "vs sequential = %.2e\n\n",
                s.is_ok() ? "ok" : s.to_string().c_str(), max_diff);
  }

  // Replay the schedules on the virtual cluster.
  parallel::SimCluster cluster;
  std::printf("%6s | %14s %8s | %14s %8s | paper w/o | paper w/\n", "nodes",
              "time w/o LB", "speedup", "time w/ LB", "speedup");
  const double paper_speedup_without[5] = {1.0, 1.99, 3.91, 7.08, 12.78};
  const double paper_speedup_with[5] = {1.0, 2.03, 3.99, 7.99, 12.78};
  const int node_counts[5] = {1, 2, 4, 8, 16};
  for (int i = 0; i < 5; ++i) {
    const int nodes = node_counts[i];
    const auto block = cluster.run_block(file_times, nodes);
    const auto lpt = cluster.run_lpt(file_times, nodes);
    std::printf("%6d | %12.3f s %8.2f | %12.3f s %8.2f | %9.2f | %8.2f\n",
                nodes, block.total_time, block.speedup, lpt.total_time,
                lpt.speedup, paper_speedup_without[i], paper_speedup_with[i]);
  }
  std::printf(
      "\nShape checks: near-linear speedup through 8 nodes; at 16 nodes one "
      "file per rank leaves no scheduling freedom, so both columns coincide "
      "and the imbalance caps the speedup below 16 (paper: 12.78).\n");
  return 0;
}
