// Parallel objective evaluation (paper §4.4, Fig. 9) demonstrated on the
// objective's persistent worker pool: 16 experimental data files planned
// over 4 workers, the per-file solve times recorded, and the dynamic load
// balancer rebuilding the plan for the next call. Ends with the
// virtual-cluster speedup table for the measured times.
//
// Run: ./build/examples/parallel_estimation
#include <cstdio>

#include "data/synthetic.hpp"
#include "estimator/objective.hpp"
#include "models/test_cases.hpp"
#include "parallel/sim_cluster.hpp"
#include "rms/execution.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

int main() {
  using namespace rms;

  auto built = models::build_test_case(models::scaled_config(1, 0.5));
  if (!built.is_ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().to_string().c_str());
    return 1;
  }
  const std::size_t n = built->equation_count();
  std::printf("Model: %zu equations.\n", n);

  data::Observable observable;
  for (std::size_t i = 0; i < n; ++i) {
    if (built->odes.species_names[i].rfind("C_", 0) == 0) {
      observable.weighted_species.emplace_back(i, 1.0);
    }
  }

  // 16 files with deliberately unequal sizes -> unequal solve times.
  // The data come from the compiled model on the bytecode VM with its
  // analytic sparse Jacobian.
  const std::vector<double> rates = built->rates.values();
  ExecutionOptions execution;
  execution.backend = Backend::kVm;
  const Execution exec = Execution::create(*built, execution);
  const solver::OdeSystem system = exec.make_system(&rates);
  support::Xoshiro256 rng(5);
  std::vector<estimator::Experiment> experiments;
  for (int f = 0; f < 16; ++f) {
    estimator::Experiment e;
    e.initial_state = built->odes.init_concentrations;
    e.initial_state[0] *= rng.uniform(0.7, 1.4);
    data::SyntheticOptions options;
    options.integration.newton_linear_solver =
        solver::NewtonLinearSolver::kSparseLu;
    options.t_end = rng.uniform(2.0, 8.0);
    options.record_count = 400 + 400 * static_cast<std::size_t>(rng.below(8));
    auto data = data::synthesize_experiment(
        system, e.initial_state, observable, options,
        support::str_format("file-%02d", f));
    if (!data.is_ok()) {
      std::fprintf(stderr, "synthesis failed: %s\n",
                   data.status().to_string().c_str());
      return 1;
    }
    e.data = std::move(data).value();
    experiments.push_back(std::move(e));
  }

  std::vector<std::uint32_t> slots;
  for (std::uint32_t s = 0; s < built->rates.size(); ++s) slots.push_back(s);
  linalg::Vector x(rates.begin(), rates.end());

  // Two objective calls on 4 pool workers with dynamic load balancing:
  // call 1 plans the block schedule, call 2 the LPT schedule built from the
  // times call 1 recorded.
  estimator::ObjectiveOptions options;
  options.pool_workers = 4;
  options.dynamic_load_balancing = true;
  estimator::ObjectiveFunction objective(built->program_optimized, observable,
                                         experiments, slots, rates, options);
  linalg::Vector residuals;
  for (int call = 1; call <= 2; ++call) {
    auto status = objective.evaluate(x, residuals);
    if (!status.is_ok()) {
      std::fprintf(stderr, "objective failed: %s\n",
                   status.to_string().c_str());
      return 1;
    }
    std::printf("\nObjective call %d (%s schedule):\n  assignment:", call,
                call == 1 ? "block" : "dynamic LPT");
    for (int r : objective.last_assignment()) std::printf(" %d", r);
    std::printf("\n  file times (s):");
    for (double t : objective.last_file_times()) std::printf(" %.3f", t);
    std::printf("\n");
  }

  // Virtual-cluster speedups from the measured times.
  const std::vector<double>& times = objective.last_file_times();
  parallel::SimCluster cluster;
  std::printf("\n%6s | %10s | %10s\n", "nodes", "speedup", "w/ dyn. LB");
  for (int nodes : {1, 2, 4, 8, 16}) {
    std::printf("%6d | %10.2f | %10.2f\n", nodes,
                cluster.run_block(times, nodes).speedup,
                cluster.run_lpt(times, nodes).speedup);
  }

  // The same files on the sparse-direct Newton path with the Execution's
  // analytic Jacobian, fitting the first two rate constants: an evaluation
  // at x records each file's steps, and the finite-difference Jacobian at
  // the same x replays them for every column (see docs/estimator.md). The
  // aggregated Adams-Gear statistics make the replay visible.
  estimator::ObjectiveOptions sparse_options = options;
  sparse_options.compiled_jacobian = exec.compiled_jacobian();
  estimator::ObjectiveFunction sparse(built->program_optimized, observable,
                                      experiments, {0, 1}, rates,
                                      sparse_options);
  const linalg::Vector x2 = {rates[0], rates[1]};
  const linalg::Vector steps = {1e-4 * rates[0], 1e-4 * rates[1]};
  linalg::Matrix jacobian(sparse.residual_size(), 2);
  auto status = sparse.evaluate(x2, residuals);
  if (status.is_ok()) {
    status = sparse.evaluate_jacobian(x2, residuals, steps, jacobian);
  }
  if (!status.is_ok()) {
    std::fprintf(stderr, "sparse objective failed: %s\n",
                 status.to_string().c_str());
    return 1;
  }
  const estimator::SolverStats& sstats = sparse.solver_stats();
  std::printf(
      "\nSparse-LU evaluation + 2-column Jacobian (4 workers):\n"
      "  %zu solves, %zu steps, %zu Newton iterations, %zu factorizations, "
      "%zu replayed columns (%zu fell back)\n",
      sstats.solves, sstats.integration.steps,
      sstats.integration.newton_iterations, sstats.integration.factorizations,
      sstats.replayed_solves, sstats.replay_fallbacks);
  return 0;
}
