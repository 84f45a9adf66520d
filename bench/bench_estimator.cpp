// Estimator throughput benchmark: the persistent pool and the batched
// Jacobian against the seed's serial estimation path.
//
// One full bounded Levenberg-Marquardt estimation (TC3-scale model, several
// synthetic experiment files of different lengths) runs in two
// configurations:
//   serial — the seed path: sequential objective, serial per-column
//            forward-difference Jacobian (one evaluate() per column);
//   pooled — the persistent worker pool with the batched (column x file)
//            Jacobian task pool, whose columns replay the base solve's
//            steps, and reusable per-worker scratch.
//
// Both configurations must land on the same final cost, so the reported
// speedup is a pure throughput win, not an accuracy trade. The check and
// the timings go to BENCH_estimator.json.
//
// Flags:
//   --scale=F      fraction of TC3's equation count (default 0.05)
//   --files=N      synthetic experiment files (default 6)
//   --records=N    records in the shortest file (default 24)
//   --workers=N    pool workers for pooled (default 2)
//   --max-iters=N  LM iteration cap (default 10; CI smoke uses 1)
//   --json=PATH    output path (default BENCH_estimator.json)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "data/synthetic.hpp"
#include "estimator/estimator.hpp"
#include "estimator/objective.hpp"
#include "models/test_cases.hpp"
#include "nlopt/levmar.hpp"
#include "rms/execution.hpp"
#include "support/timer.hpp"

namespace {

using namespace rms;

/// Filled in place by build_problem: `exec` points into `model`.
struct Problem {
  models::BuiltModel model;
  Execution exec;
  data::Observable observable;
  std::vector<estimator::Experiment> experiments;
  std::vector<std::uint32_t> slots;
  std::vector<double> base_rates;
  linalg::Vector x0;
  linalg::Vector lower;
  linalg::Vector upper;
};

void build_problem(Problem& p, double scale, int files, std::size_t records) {
  auto built = models::build_test_case(models::scaled_config(3, scale));
  if (!built.is_ok()) {
    std::fprintf(stderr, "model build failed: %s\n",
                 built.status().to_string().c_str());
    std::exit(1);
  }
  p.model = std::move(built).value();
  // The VM with its compiled Jacobian: the data do not depend on the host's
  // C compiler, and every solve (synthesis and fit) uses sparse Newton.
  ExecutionOptions execution;
  execution.backend = Backend::kVm;
  p.exec = Execution::create(p.model, execution);
  const std::size_t rate_count = p.model.rates.size();
  p.observable.weighted_species = {{0, 1.0}};
  p.base_rates = p.model.rates.values();
  for (std::uint32_t s = 0; s < rate_count; ++s) p.slots.push_back(s);

  const solver::OdeSystem truth = p.exec.make_system(&p.base_rates);
  for (int file = 0; file < files; ++file) {
    estimator::Experiment e;
    e.initial_state = p.model.odes.init_concentrations;
    // Vary formulations and file lengths: different initial loadings and
    // record counts give the §4.4 scheduler real imbalance to chew on.
    for (double& c : e.initial_state) c *= 0.7 + 0.1 * (file % 4);
    data::SyntheticOptions synth;
    synth.integration.newton_linear_solver =
        solver::NewtonLinearSolver::kSparseLu;
    synth.t_end = 2.0;
    synth.record_count = records * (1 + file % 3);
    auto data = data::synthesize_experiment(truth, e.initial_state,
                                            p.observable, synth);
    if (!data.is_ok()) {
      std::fprintf(stderr, "synthesize failed: %s\n",
                   data.status().to_string().c_str());
      std::exit(1);
    }
    e.data = std::move(data).value();
    p.experiments.push_back(std::move(e));
  }

  // Mid-fit starting point: all rates off by 25%, generous positive box.
  p.x0.assign(p.base_rates.begin(), p.base_rates.end());
  for (double& v : p.x0) v *= 1.25;
  p.lower.assign(p.base_rates.size(), 0.0);
  p.upper = p.x0;
  for (double& v : p.upper) v = 10.0 * v + 1.0;
}

struct RunResult {
  double seconds = 0.0;
  double final_cost = 0.0;
  std::size_t objective_evaluations = 0;
  std::size_t iterations = 0;
  bool converged = false;
  estimator::SolverStats stats;
};

nlopt::LevMarOptions lm_options(std::size_t max_iters) {
  nlopt::LevMarOptions lm;
  lm.max_iterations = max_iters;
  lm.fd_relative_step = 1e-4;  // estimator::EstimatorOptions default
  return lm;
}

/// The seed path: no Jacobian hook (serial per-column FD through
/// evaluate()), sequential objective.
RunResult run_serial(const Problem& p, std::size_t max_iters) {
  estimator::ObjectiveOptions options;
  options.compiled_jacobian = p.exec.compiled_jacobian();
  estimator::ObjectiveFunction objective(p.model.program_optimized,
                                         p.observable, p.experiments, p.slots,
                                         p.base_rates, options);
  auto residual_fn = [&objective](const linalg::Vector& x,
                                  linalg::Vector& r) -> support::Status {
    return objective.evaluate(x, r);
  };
  support::WallTimer timer;
  auto lm = nlopt::bounded_least_squares(residual_fn, objective.residual_size(),
                                         p.x0, p.lower, p.upper,
                                         lm_options(max_iters));
  RunResult result;
  result.seconds = timer.seconds();
  if (!lm.is_ok()) {
    std::fprintf(stderr, "serial estimation failed: %s\n",
                 lm.status().to_string().c_str());
    std::exit(1);
  }
  result.final_cost = lm->cost;
  result.objective_evaluations = lm->residual_evaluations;
  result.iterations = lm->iterations;
  result.converged = lm->converged;
  result.stats = objective.solver_stats();
  return result;
}

RunResult run_pooled(const Problem& p, int workers, std::size_t max_iters) {
  estimator::ObjectiveOptions options;
  options.compiled_jacobian = p.exec.compiled_jacobian();
  options.pool_workers = workers;
  options.dynamic_load_balancing = true;
  estimator::ObjectiveFunction objective(p.model.program_optimized,
                                         p.observable, p.experiments, p.slots,
                                         p.base_rates, options);
  estimator::EstimatorOptions est;
  est.levmar = lm_options(max_iters);
  std::vector<double> x0(p.x0.begin(), p.x0.end());
  support::WallTimer timer;
  auto result = estimate_parameters(objective, std::move(x0), p.lower,
                                    p.upper, est);
  RunResult out;
  out.seconds = timer.seconds();
  if (!result.is_ok()) {
    std::fprintf(stderr, "pooled estimation failed: %s\n",
                 result.status().to_string().c_str());
    std::exit(1);
  }
  out.final_cost = result->final_cost;
  out.objective_evaluations = result->objective_evaluations;
  out.iterations = result->iterations;
  out.converged = result->converged;
  out.stats = result->solver_stats;
  return out;
}

std::string run_json(const char* name, const RunResult& r) {
  return bench::JsonObject()
      .add("name", std::string(name))
      .add("seconds", r.seconds)
      .add("final_cost", r.final_cost)
      .add("objective_evaluations", r.objective_evaluations)
      .add("iterations", r.iterations)
      .add_raw("converged", r.converged ? "true" : "false")
      .add("solves", r.stats.solves)
      .add("solver_steps", r.stats.integration.steps)
      .add("newton_iterations", r.stats.integration.newton_iterations)
      .add("jacobian_evaluations", r.stats.integration.jacobian_evaluations)
      .add("factorizations", r.stats.integration.factorizations)
      .add("replayed_solves", r.stats.replayed_solves)
      .add("replay_fallbacks", r.stats.replay_fallbacks)
      .str();
}

/// Agreement of final costs (both configurations must land in the same
/// minimum; replayed and independent FD columns differ at solver-tolerance
/// level, so this is a tolerance check, not bit equality). Once both fits drive the
/// RMS residual below the integrator's own tolerance (1e-6 relative /
/// 1e-9 absolute, so anything under 1e-4 per record is integration noise),
/// their costs are "equal" even if the tiny remainders differ by a large
/// ratio; above that floor a 5% relative band applies.
bool costs_agree(double a, double b, std::size_t residuals) {
  const double m = static_cast<double>(std::max<std::size_t>(residuals, 1));
  const double rms_a = std::sqrt(2.0 * a / m);  // cost = 0.5 * ||r||^2
  const double rms_b = std::sqrt(2.0 * b / m);
  if (rms_a < 1e-4 && rms_b < 1e-4) return true;
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-12});
  return std::fabs(a - b) / scale < 0.05;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const double scale = flags.get_double("scale", 0.05);
  const int files = static_cast<int>(flags.get_int("files", 6));
  const std::size_t records =
      static_cast<std::size_t>(flags.get_int("records", 24));
  const int workers = static_cast<int>(flags.get_int("workers", 2));
  const std::size_t max_iters =
      static_cast<std::size_t>(flags.get_int("max-iters", 10));
  const std::string json_path =
      flags.get_string("json", "BENCH_estimator.json");

  std::printf(
      "estimator throughput benchmark: scale=%.3g files=%d records=%zu "
      "workers=%d max-iters=%zu\n\n",
      scale, files, records, workers, max_iters);

  support::WallTimer setup_timer;
  Problem problem;
  build_problem(problem, scale, files, records);
  const double setup_seconds = setup_timer.seconds();
  const std::size_t residual_count = [&] {
    std::size_t m = 0;
    for (const auto& e : problem.experiments) m += e.data.record_count();
    return m;
  }();
  std::printf("model: %zu equations, %zu rate constants, %zu residuals\n",
              problem.model.equation_count(), problem.base_rates.size(),
              residual_count);
  std::printf("setup (model build + data synthesis): %.3f s\n",
              setup_seconds);

  const RunResult serial = run_serial(problem, max_iters);
  const RunResult pooled = run_pooled(problem, workers, max_iters);

  const double speedup_pooled = serial.seconds / pooled.seconds;
  std::printf("\n%-8s %10s %14s %8s %10s %12s %10s %10s\n", "config",
              "seconds", "final cost", "evals", "solves", "steps", "factors",
              "replayed");
  const struct {
    const char* name;
    const RunResult* r;
  } rows[] = {{"serial", &serial}, {"pooled", &pooled}};
  for (const auto& row : rows) {
    std::printf("%-8s %10.3f %14.6e %8zu %10zu %12zu %10zu %10zu\n",
                row.name, row.r->seconds, row.r->final_cost,
                row.r->objective_evaluations, row.r->stats.solves,
                row.r->stats.integration.steps,
                row.r->stats.integration.factorizations,
                row.r->stats.replayed_solves);
  }
  std::printf("\nspeedup vs serial: pooled %.2fx\n", speedup_pooled);

  const bool equal_cost =
      costs_agree(serial.final_cost, pooled.final_cost, residual_count);
  if (!equal_cost) {
    std::fprintf(stderr, "FAIL: final costs disagree (serial %.9e pooled %.9e)\n",
                 serial.final_cost, pooled.final_cost);
  }

  bench::JsonObject root;
  root.add("benchmark", std::string("estimator_throughput"));
  root.add("scale", scale);
  root.add("files", static_cast<std::size_t>(files));
  root.add("workers", static_cast<std::size_t>(workers));
  root.add("max_iterations", max_iters);
  root.add("setup_seconds", setup_seconds);
  root.add_raw("runs",
               bench::json_array({run_json("serial", serial),
                                  run_json("pooled", pooled)}));
  root.add("speedup_pooled_vs_serial", speedup_pooled);
  root.add_raw("equal_final_cost", equal_cost ? "true" : "false");
  bench::write_file(json_path, root.str());
  std::printf("wrote %s\n", json_path.c_str());

  return equal_cost ? 0 : 1;
}
