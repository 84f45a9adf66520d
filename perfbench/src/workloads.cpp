#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "codegen/jacobian.hpp"
#include "codegen/native_backend.hpp"
#include "data/experiment.hpp"
#include "data/synthetic.hpp"
#include "estimator/estimator.hpp"
#include "estimator/objective.hpp"
#include "linalg/sparse.hpp"
#include "models/test_cases.hpp"
#include "nlopt/levmar.hpp"
#include "rms/execution.hpp"
#include "rms/suite.hpp"
#include "solver/adams_gear.hpp"
#include "solver/rk_verner.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "verify/oracle.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

namespace fs = std::filesystem;
using namespace rms;
using support::Status;

/// Bumped whenever the generated inputs change, so cached files of an older
/// generator are never reused.
constexpr int kGeneratorVersion = 2;

/// Median microseconds per call of `fn` over nine batches of at least 2 ms.
template <typename Fn>
double time_per_call_us(const Fn& fn) {
  fn();
  std::size_t reps = 1;
  for (;;) {
    support::WallTimer timer;
    for (std::size_t i = 0; i < reps; ++i) fn();
    if (timer.seconds() >= 2e-3 || reps >= (std::size_t{1} << 20)) break;
    reps *= 2;
  }
  std::vector<double> samples;
  for (int batch = 0; batch < 9; ++batch) {
    support::WallTimer timer;
    for (std::size_t i = 0; i < reps; ++i) fn();
    samples.push_back(timer.seconds() * 1e6 / static_cast<double>(reps));
  }
  return median(samples);
}

/// A pool of `threads - 1` workers: the calling thread participates in
/// every parallel_for, so `threads` threads run in total. Null for 1.
std::unique_ptr<support::ThreadPool> make_pool(int threads) {
  if (threads <= 1) return nullptr;
  return std::make_unique<support::ThreadPool>(
      static_cast<std::size_t>(threads - 1), /*cap_to_hardware=*/false);
}

models::PipelineOptions pipeline_options(const support::ThreadPool* pool) {
  models::PipelineOptions pipeline;
  pipeline.pool = pool;
  // Executing and fitting a model needs none of the Table 1 baseline
  // artefacts (raw table, unoptimized program).
  pipeline.build_reference_baseline = false;
  return pipeline;
}

JobResult failed(JobResult result, std::string error) {
  result.ok = false;
  result.error = std::move(error);
  return result;
}

void put(Metrics& metrics, const std::string& name, double value,
         const char* unit) {
  metrics[name] = Metric{value, unit};
}

/// Sizes the optimizer and the VM produced; deterministic for a model.
void add_model_counts(const models::BuiltModel& model,
                      std::map<std::string, double>& counts) {
  counts["opt.ops_before"] =
      static_cast<double>(model.report.before.total());
  counts["opt.ops_after"] = static_cast<double>(model.report.after.total());
  counts["opt.temps"] = static_cast<double>(model.report.temp_count);
  counts["vm.instructions"] =
      static_cast<double>(model.program_optimized.code.size());
  counts["vm.registers"] =
      static_cast<double>(model.program_optimized.register_count);
}

/// Adams-Gear work counters, named `prefix`.<field>.
void add_integration_counts(const std::string& prefix,
                            const solver::IntegrationStats& stats,
                            std::map<std::string, double>& counts) {
  const std::pair<const char*, std::size_t> fields[] = {
      {"steps", stats.steps},
      {"rejected_steps", stats.rejected_steps},
      {"newton_iterations", stats.newton_iterations},
      {"rhs_evaluations", stats.rhs_evaluations},
      {"jacobian_evaluations", stats.jacobian_evaluations},
      {"factorizations", stats.factorizations},
      {"factor_cache_hits", stats.factor_cache_hits},
      {"warm_starts", stats.warm_starts}};
  for (const auto& [field, value] : fields) {
    counts[prefix + "." + field] = static_cast<double>(value);
  }
}

/// Layer metrics of the set-up phase, read from the job's own spans and
/// from BuiltModel::timings.
void add_setup_layers(const models::BuiltModel& model, const Tracer& tracer,
                      Metrics& layers) {
  put(layers, "compile.total_s", tracer.total("compile"), "s");
  put(layers, "codegen.backend_s", tracer.total("codegen.backend"), "s");
  put(layers, "data.read_s", tracer.total("data.read"), "s");
  const opt::PhaseTimings& t = model.timings;
  put(layers, "rdl.parse_s", t.seconds("parse"), "s");
  put(layers, "network.generate_s", t.seconds("network"), "s");
  put(layers, "odegen.s", t.seconds("odegen"), "s");
  put(layers, "opt.distopt_s", t.seconds("distopt"), "s");
  put(layers, "opt.cse_s", t.seconds("cse"), "s");
  put(layers, "codegen.emit_s", t.seconds("emit") + t.seconds("fuse"), "s");
}

/// Compiles the model's analytic Jacobian through the public entry point
/// (the same differentiate -> DistOpt -> CSE graph the native module
/// emits), timed as its own span.
codegen::CompiledJacobian compile_jacobian_traced(
    const models::BuiltModel& model, const support::ThreadPool* pool,
    Tracer* tracer) {
  opt::OptimizerOptions options = opt::OptimizerOptions::full();
  options.pool = pool;
  ScopedSpan span(tracer, "codegen.jacobian");
  return codegen::compile_jacobian(model.odes.table, model.equation_count(),
                                   model.rates.size(), options);
}

struct LuProbe {
  bool ok = false;
  double nonzeros = 0.0;
  double fill_ratio = 0.0;
  double factor_us = 0.0;
  double solve_us = 0.0;
};

/// Factors M = d0*I - J (the Newton iteration matrix of the BDF corrector)
/// with the library's sparse LU.
LuProbe probe_lu(const linalg::CsrMatrix& jacobian, double d0, bool timed) {
  const std::size_t n = jacobian.rows;
  linalg::CsrMatrix m;
  m.rows = m.cols = n;
  m.row_offsets.push_back(0);
  std::vector<std::pair<std::uint32_t, double>> row;
  for (std::size_t r = 0; r < n; ++r) {
    row.clear();
    bool has_diagonal = false;
    for (std::uint32_t e = jacobian.row_offsets[r];
         e < jacobian.row_offsets[r + 1]; ++e) {
      const std::uint32_t c = jacobian.col_indices[e];
      double v = -jacobian.values[e];
      if (c == r) {
        v += d0;
        has_diagonal = true;
      }
      row.emplace_back(c, v);
    }
    if (!has_diagonal) row.emplace_back(static_cast<std::uint32_t>(r), d0);
    std::sort(row.begin(), row.end());
    for (const auto& [c, v] : row) {
      m.col_indices.push_back(c);
      m.values.push_back(v);
    }
    m.row_offsets.push_back(static_cast<std::uint32_t>(m.values.size()));
  }

  LuProbe probe;
  linalg::SparseLu lu;
  if (!lu.factor(m)) return probe;
  probe.ok = true;
  probe.nonzeros = static_cast<double>(lu.factor_nonzeros());
  probe.fill_ratio =
      probe.nonzeros / static_cast<double>(std::max<std::size_t>(
                           m.nonzero_count(), 1));
  if (timed) {
    probe.factor_us = time_per_call_us([&] { (void)lu.factor(m); });
    const linalg::Vector b(n, 1.0);
    linalg::Vector x(n);
    probe.solve_us = time_per_call_us([&] { lu.solve(b, x); });
  }
  return probe;
}

// ------------------------------------------------------------------- fits

/// One experiment file: a formulation (initial loading) cured at a
/// temperature.
struct FileSpec {
  double temperature = 0.0;  ///< cure temperature [K]; 0 = none
  std::size_t records = 0;
  double loading = 1.0;      ///< scale of every initial concentration
  /// Extra scale of single species' initial concentrations, by name.
  std::vector<std::pair<std::string, double>> species_loading;
};

struct FitSpec {
  std::string name;
  std::string why;
  /// Compile models_rdl/<rdl_file> through Suite::compile; empty builds
  /// TC3 at kTc3Scale with models::build_test_case.
  std::string rdl_file;
  std::vector<FileSpec> files;
  double t_end = 0.0;
  /// Measurement noise: std-dev as a fraction of each file's signal range.
  double noise_level = 0.0;
  /// d0 of the iteration matrix in the sparse-LU probe.
  double probe_d0 = 100.0;
  /// Correctness: every fitted constant within this relative error of the
  /// ground truth (and the RMS residual within kFloorFactor of the noise
  /// floor).
  double constant_rtol = 0.0;
  /// Constants the data do not determine; they stay at the ground truth
  /// and are not estimated.
  std::vector<std::string> fixed_constants;
};

/// TC3 at 5% of its paper size: 1,229 equations.
constexpr double kTc3Scale = 0.05;
/// Every estimated constant starts 25% off the truth, inside a box of half
/// to twice the truth.
constexpr double kStartFactor = 1.25;
constexpr double kLowerFactor = 0.5;
constexpr double kUpperFactor = 2.0;
/// LM iteration cap: the fit is at the noise floor well before it, so every
/// seed does the same work.
constexpr std::size_t kLmIterations = 10;
/// The fitted RMS residual may exceed the noise floor by this factor (the
/// floor itself is known only to ~3% at these record counts).
constexpr double kFloorFactor = 1.1;

/// One generated experiment file, as listed in the dataset manifest (in
/// FitSpec::files order).
struct FitFile {
  std::string file;
  double sigma = 0.0;  ///< noise std-dev added to this file's records
};

class FitWorkload final : public Workload {
 public:
  FitWorkload(FitSpec spec, std::uint64_t seed, Paths paths)
      : spec_(std::move(spec)), seed_(seed), paths_(std::move(paths)) {
    dir_ = paths_.data_dir + "/" + spec_.name + "-seed" +
           std::to_string(seed_) + "-v" + std::to_string(kGeneratorVersion);
  }

  const char* expected_backend() const override { return "native"; }

  Status prepare() override {
    if (!spec_.rdl_file.empty()) {
      const std::string path = paths_.model_dir + "/" + spec_.rdl_file;
      std::ifstream in(path);
      if (!in) return support::not_found("cannot read " + path);
      std::ostringstream text;
      text << in.rdbuf();
      source_ = text.str();
    }
    const auto pool = make_pool(kThreads);
    auto built = compile(pool.get());
    if (!built.is_ok()) return built.status();
    // Warms the native shared-object cache: the measured jobs hit it.
    const Execution exec = Execution::create(*built, execution_options());
    if (std::string(backend_name(exec.backend())) != expected_backend()) {
      return support::internal_error(
          std::string("backend ") + backend_name(exec.backend()) +
          " selected, expected " + expected_backend() + ": " +
          exec.fallback_reason());
    }
    if (!fs::exists(dir_ + "/manifest.txt")) {
      RMS_RETURN_IF_ERROR(generate(*built, exec));
    }
    return load_manifest();
  }

  JobResult run_job(const JobOptions& options) override {
    JobResult result;
    Tracer* tracer = options.tracer;
    support::WallTimer total;
    const auto pool = make_pool(options.threads);
    ScopedSpan job_span(tracer, "job");

    // ---- set-up: compile, backend, data, objective.
    ScopedSpan setup_span(tracer, "setup");
    ScopedSpan compile_span(tracer, "compile");
    auto built = compile(pool.get());
    compile_span.close();
    if (!built.is_ok()) {
      return failed(std::move(result), "compile: " + built.status().to_string());
    }
    const models::BuiltModel& model = *built;

    const std::uint64_t cc_before =
        codegen::NativeBackend::compiler_invocations();
    ScopedSpan backend_span(tracer, "codegen.backend");
    const Execution exec = Execution::create(model, execution_options());
    backend_span.close();
    const std::uint64_t cc_invocations =
        codegen::NativeBackend::compiler_invocations() - cc_before;
    if (std::string(backend_name(exec.backend())) != expected_backend()) {
      return failed(std::move(result),
                    std::string("backend ") + backend_name(exec.backend()) +
                        " selected, expected " + expected_backend());
    }

    ScopedSpan read_span(tracer, "data.read");
    std::vector<estimator::Experiment> experiments;
    for (std::size_t f = 0; f < files_.size(); ++f) {
      auto data = data::read_experiment_file(dir_ + "/" + files_[f].file);
      if (!data.is_ok()) {
        return failed(std::move(result), "read " + files_[f].file + ": " +
                                             data.status().to_string());
      }
      estimator::Experiment experiment;
      experiment.data = std::move(data).value();
      experiment.initial_state = initial_state(model, spec_.files[f]);
      experiment.temperature = spec_.files[f].temperature;
      experiments.push_back(std::move(experiment));
    }
    read_span.close();

    ScopedSpan objective_span(tracer, "estimator.objective");
    const std::vector<double> truth = ground_truth(model);
    std::vector<std::uint32_t> slots;
    for (std::uint32_t s = 0; s < truth.size(); ++s) {
      if (std::find(spec_.fixed_constants.begin(), spec_.fixed_constants.end(),
                    model.rates.canonical_name(s)) ==
          spec_.fixed_constants.end()) {
        slots.push_back(s);
      }
    }
    estimator::ObjectiveOptions objective_options;
    objective_options.native_backend = exec.native();
    objective_options.compiled_jacobian = exec.compiled_jacobian();
    objective_options.pool_workers = options.threads - 1;
    objective_options.warm_start = true;
    objective_options.dynamic_load_balancing = true;
    objective_options.rate_table =
        spec_.rdl_file.empty() ? nullptr : &model.rates;
    const data::Observable observable = observable_for(model);
    estimator::ObjectiveFunction objective(model.program_optimized, observable,
                                           experiments, slots, truth,
                                           objective_options);
    objective_span.close();
    setup_span.close();
    result.setup_s = total.seconds();

    // ---- run: the Levenberg-Marquardt fit.
    std::vector<double> x0;
    std::vector<double> lower;
    std::vector<double> upper;
    for (std::uint32_t s : slots) {
      x0.push_back(truth[s] * kStartFactor);
      lower.push_back(truth[s] * kLowerFactor);
      upper.push_back(truth[s] * kUpperFactor);
    }
    estimator::EstimatorOptions estimator_options;
    estimator_options.levmar.max_iterations = kLmIterations;

    support::WallTimer run_timer;
    ScopedSpan run_span(tracer, "run");
    std::vector<double> fitted;
    double cost = 0.0;
    std::size_t lm_iterations = 0;
    std::size_t residual_evaluations = 0;
    // Traced run only: evaluate() wall time and the per-file solve seconds
    // it recorded, for the pool's busy/idle split.
    double evaluate_wall = 0.0;
    double evaluate_file_seconds = 0.0;
    std::size_t evaluate_calls = 0;
    std::size_t jacobian_calls = 0;
    if (tracer == nullptr) {
      auto fit = estimator::estimate_parameters(objective, x0, lower, upper,
                                                estimator_options);
      if (!fit.is_ok()) {
        return failed(std::move(result), "fit: " + fit.status().to_string());
      }
      fitted = fit->rate_constants;
      cost = fit->final_cost;
      lm_iterations = fit->iterations;
      residual_evaluations = fit->objective_evaluations;
    } else {
      // The two hooks estimate_parameters installs, each inside a span.
      auto residual_fn = [&](const linalg::Vector& x,
                             linalg::Vector& r) -> Status {
        ScopedSpan span(tracer, "estimator.evaluate");
        support::WallTimer timer;
        Status status = objective.evaluate(x, r);
        evaluate_wall += timer.seconds();
        ++evaluate_calls;
        for (double s : objective.last_file_times()) evaluate_file_seconds += s;
        return status;
      };
      auto jacobian_fn = [&](const linalg::Vector& x, const linalg::Vector& r,
                             const linalg::Vector& steps,
                             linalg::Matrix& jacobian) -> Status {
        ScopedSpan span(tracer, "estimator.jacobian");
        ++jacobian_calls;
        return objective.evaluate_jacobian(x, r, steps, jacobian);
      };
      ScopedSpan lm_span(tracer, "nlopt.bounded_least_squares");
      auto lm = nlopt::bounded_least_squares(
          residual_fn, jacobian_fn, objective.residual_size(), x0, lower,
          upper, estimator_options.levmar);
      lm_span.close();
      if (!lm.is_ok()) {
        return failed(std::move(result), "fit: " + lm.status().to_string());
      }
      fitted = lm->x;
      cost = lm->cost;
      lm_iterations = lm->iterations;
      residual_evaluations = lm->residual_evaluations;
    }
    run_span.close();
    result.run_s = run_timer.seconds();

    // ---- check: constants near the truth, residual at the noise floor.
    ScopedSpan check_span(tracer, "check");
    double worst = 0.0;
    std::size_t worst_index = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const double error =
          std::fabs(fitted[i] - truth[slots[i]]) / truth[slots[i]];
      if (error > worst) {
        worst = error;
        worst_index = i;
      }
    }
    double noise_sum = 0.0;
    double records = 0.0;
    for (std::size_t f = 0; f < files_.size(); ++f) {
      const double n = static_cast<double>(spec_.files[f].records);
      noise_sum += files_[f].sigma * files_[f].sigma * n;
      records += n;
    }
    const double noise_floor = std::sqrt(noise_sum / records);
    const double rms = std::sqrt(
        2.0 * cost / static_cast<double>(objective.residual_size()));
    check_span.close();
    job_span.close();
    result.total_s = total.seconds();

    if (worst > spec_.constant_rtol) {
      std::ostringstream msg;
      msg << "constant " << model.rates.canonical_name(slots[worst_index])
          << " fitted " << fitted[worst_index] << ", truth "
          << truth[slots[worst_index]] << " (relative error " << worst
          << ", limit "
          << spec_.constant_rtol << "); RMS residual " << rms
          << ", noise floor " << noise_floor << ", " << lm_iterations
          << " LM iterations";
      return failed(std::move(result), msg.str());
    }
    if (rms > kFloorFactor * noise_floor) {
      std::ostringstream msg;
      msg << "RMS residual " << rms << " above " << kFloorFactor
          << " x noise floor " << noise_floor;
      return failed(std::move(result), msg.str());
    }
    result.ok = true;

    // ---- deterministic counters.
    const estimator::SolverStats& stats = objective.solver_stats();
    auto& counts = result.counts;
    add_model_counts(model, counts);
    counts["estimator.solves"] = static_cast<double>(stats.solves);
    add_integration_counts("estimator", stats.integration, counts);
    counts["nlopt.lm_iterations"] = static_cast<double>(lm_iterations);
    counts["nlopt.residual_evaluations"] =
        static_cast<double>(residual_evaluations);

    // The workload's own system at the first file's y0, ground truth rates.
    const bool timed_probes = options.layers != nullptr;
    std::vector<double> rates = rates_at(model, truth, experiments[0].temperature);
    const solver::OdeSystem system = exec.make_system(&rates);
    const std::vector<double>& y0 = experiments[0].initial_state;
    linalg::CsrMatrix jacobian;
    system.sparse_jacobian(0.0, y0.data(), jacobian);
    const LuProbe lu = probe_lu(jacobian, spec_.probe_d0, timed_probes);
    if (!lu.ok) return failed(std::move(result), "probe: M is singular");
    counts["linalg.lu_nnz"] = lu.nonzeros;
    counts["linalg.lu_fill_ratio"] = lu.fill_ratio;

    // One cold solve of the longest file through the public solver API.
    std::size_t longest = 0;
    for (std::size_t f = 1; f < experiments.size(); ++f) {
      if (experiments[f].data.record_count() >
          experiments[longest].data.record_count()) {
        longest = f;
      }
    }
    const estimator::Experiment& file = experiments[longest];
    std::vector<double> file_rates = rates_at(model, truth, file.temperature);
    solver::IntegrationOptions integration;
    integration.newton_linear_solver = solver::NewtonLinearSolver::kSparseLu;
    solver::AdamsGear integrator(exec.make_system(&file_rates), integration);
    {
      ScopedSpan span(tracer, "solver.solve");
      Status status = integrator.initialize(
          std::min(0.0, file.data.times.front()), file.initial_state);
      std::vector<double> y;
      for (std::size_t j = 0; status.is_ok() && j < file.data.record_count();
           ++j) {
        status = integrator.advance_to(file.data.times[j], y);
      }
      if (!status.is_ok()) {
        return failed(std::move(result), "probe solve: " + status.to_string());
      }
    }
    add_integration_counts("solver", integrator.stats(), counts);
    if (!timed_probes) return result;

    // ---- traced run: per-layer metrics and timed probes.
    Metrics& layers = *options.layers;
    put(layers, "solver.solve_s", tracer->total("solver.solve"), "s");
    add_setup_layers(model, *tracer, layers);
    put(layers, "codegen.cc_invocations", static_cast<double>(cc_invocations),
        "count");
    const double evaluate_s = tracer->total("estimator.evaluate");
    const double jacobian_s = tracer->total("estimator.jacobian");
    put(layers, "estimator.evaluate_calls", static_cast<double>(evaluate_calls),
        "count");
    put(layers, "estimator.evaluate_s", evaluate_s, "s");
    put(layers, "estimator.jacobian_calls", static_cast<double>(jacobian_calls),
        "count");
    put(layers, "estimator.jacobian_s", jacobian_s, "s");
    put(layers, "nlopt.self_s", result.run_s - evaluate_s - jacobian_s, "s");
    const double hits = static_cast<double>(stats.integration.factor_cache_hits);
    const double factorizations =
        static_cast<double>(stats.integration.factorizations);
    put(layers, "estimator.factor_reuse_ratio",
        hits + factorizations > 0.0 ? hits / (hits + factorizations) : 0.0,
        "ratio");

    const std::vector<double>& file_times = objective.last_file_times();
    double max_time = 0.0;
    double sum_time = 0.0;
    for (double t : file_times) {
      max_time = std::max(max_time, t);
      sum_time += t;
    }
    put(layers, "parallel.file_time_imbalance",
        sum_time > 0.0 ? max_time * static_cast<double>(file_times.size()) /
                             sum_time
                       : 0.0,
        "ratio");
    const double capacity = static_cast<double>(options.threads) * evaluate_wall;
    put(layers, "parallel.pool_busy_ratio",
        capacity > 0.0 ? evaluate_file_seconds / capacity : 0.0, "ratio");
    put(layers, "parallel.pool_idle_s", capacity - evaluate_file_seconds, "s");

    put(layers, "linalg.lu_factor_us", lu.factor_us, "us");
    put(layers, "linalg.lu_solve_us", lu.solve_us, "us");
    std::vector<double> ydot(y0.size());
    put(layers, "vm.rhs_us", time_per_call_us([&] {
          system.rhs(0.0, y0.data(), ydot.data());
        }),
        "us");
    put(layers, "codegen.jac_fill_us", time_per_call_us([&] {
          system.sparse_jacobian(0.0, y0.data(), jacobian);
        }),
        "us");
    (void)compile_jacobian_traced(model, pool.get(), tracer);
    put(layers, "codegen.jacobian_s", tracer->total("codegen.jacobian"), "s");

    // Pool speedup: a cold evaluate(x0) on fresh objectives, without a pool
    // (plain single-threaded) and with the job's pool.
    auto cold_evaluate_seconds = [&](int workers) {
      estimator::ObjectiveOptions cold = objective_options;
      cold.pool_workers = workers;
      estimator::ObjectiveFunction fresh(model.program_optimized, observable,
                                         experiments, slots, truth, cold);
      linalg::Vector residuals(fresh.residual_size());
      support::WallTimer timer;
      const Status status = fresh.evaluate(x0, residuals);
      return status.is_ok() ? timer.seconds() : 0.0;
    };
    const double serial_s = cold_evaluate_seconds(0);
    const double pooled_s = cold_evaluate_seconds(options.threads - 1);
    put(layers, "parallel.pool_speedup",
        pooled_s > 0.0 ? serial_s / pooled_s : 0.0, "ratio");
    return result;
  }

 private:
  support::Expected<models::BuiltModel> compile(
      const support::ThreadPool* pool) const {
    if (spec_.rdl_file.empty()) {
      return models::build_test_case(models::scaled_config(3, kTc3Scale),
                                     pipeline_options(pool));
    }
    network::GeneratorOptions generator;
    generator.pool = pool;
    return Suite::compile(source_, generator, pipeline_options(pool));
  }

  ExecutionOptions execution_options() const {
    ExecutionOptions options;
    options.backend = Backend::kAuto;
    options.native.cache_dir = paths_.cache_dir;
    return options;
  }

  /// TC3: a fixed pseudo-random weight per species (a spectroscopic-style
  /// signal every species contributes to), with the ~1200 crosslink isomers
  /// weighted down so the reactive core is not drowned out. Arrhenius
  /// model: total crosslinks.
  data::Observable observable_for(const models::BuiltModel& model) const {
    data::Observable observable;
    const std::vector<std::string>& names = model.odes.species_names;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (spec_.rdl_file.empty()) {
        const double golden = 0.6180339887498949 * static_cast<double>(i + 1);
        const double isomer = names[i].rfind("C_", 0) == 0 ? 0.02 : 1.0;
        observable.weighted_species.emplace_back(
            i, isomer * (0.5 + (golden - std::floor(golden))));
      } else if (names[i].rfind("RSR_", 0) == 0) {
        observable.weighted_species.emplace_back(i, 1.0);
      }
    }
    return observable;
  }

  /// The constants the data were generated from: the TC rate table, or the
  /// Arrhenius prefactors (activation energies stay fixed).
  std::vector<double> ground_truth(const models::BuiltModel& model) const {
    std::vector<double> truth = model.rates.values();
    if (!spec_.rdl_file.empty()) {
      for (std::uint32_t s = 0; s < truth.size(); ++s) {
        if (const rcip::ArrheniusParams* p = model.rates.arrhenius(s)) {
          truth[s] = p->prefactor;
        }
      }
    }
    return truth;
  }

  std::vector<double> rates_at(const models::BuiltModel& model,
                               const std::vector<double>& params,
                               double temperature) const {
    std::vector<double> rates = params;
    if (!spec_.rdl_file.empty() && temperature > 0.0) {
      for (std::uint32_t s = 0; s < rates.size(); ++s) {
        rates[s] = model.rates.value_with_prefactor(s, params[s], temperature);
      }
    }
    return rates;
  }

  static std::vector<double> initial_state(const models::BuiltModel& model,
                                           const FileSpec& file) {
    std::vector<double> y0 = model.odes.init_concentrations;
    const std::vector<std::string>& names = model.odes.species_names;
    for (std::size_t i = 0; i < y0.size(); ++i) {
      y0[i] *= file.loading;
      for (const auto& [name, scale] : file.species_loading) {
        if (names[i] == name) y0[i] *= scale;
      }
    }
    return y0;
  }

  /// Seeded input generator: integrates the ground truth through an
  /// Execution-built system (native RHS and sparse analytic Jacobian), adds
  /// seeded Gaussian noise, and writes rms-experiment v1 files plus a
  /// manifest. Files go to a temporary directory renamed into place, so an
  /// interrupted generation is never mistaken for a cached dataset.
  Status generate(const models::BuiltModel& model, const Execution& exec) {
    const std::string tmp = dir_ + ".tmp-" + std::to_string(::getpid());
    std::error_code ec;
    fs::remove_all(tmp, ec);
    fs::create_directories(tmp, ec);
    if (ec) return support::internal_error("cannot create " + tmp);

    std::ostringstream manifest;
    manifest << "# perfbench inputs: workload " << spec_.name << ", seed "
             << seed_ << ", generator v" << kGeneratorVersion << "\n"
             << "# why: " << spec_.why << "\n"
             << "# file noise_sigma\n";
    manifest.precision(17);
    const std::vector<double> truth = ground_truth(model);
    const data::Observable observable = observable_for(model);
    for (std::size_t f = 0; f < spec_.files.size(); ++f) {
      const FileSpec& file = spec_.files[f];
      std::vector<double> rates = rates_at(model, truth, file.temperature);
      const solver::OdeSystem system = exec.make_system(&rates);
      data::SyntheticOptions options;
      options.t_end = spec_.t_end;
      options.record_count = file.records;
      options.integration.relative_tolerance = 1e-10;
      options.integration.absolute_tolerance = 1e-13;
      options.integration.newton_linear_solver =
          solver::NewtonLinearSolver::kSparseLu;
      const std::string name = spec_.name + "-" + std::to_string(f);
      auto data = data::synthesize_experiment(
          system, initial_state(model, file), observable, options, name);
      if (!data.is_ok()) return data.status();
      const auto [lo, hi] =
          std::minmax_element(data->values.begin(), data->values.end());
      const double sigma = spec_.noise_level * std::max(*hi - *lo, 1e-12);
      support::Xoshiro256 rng(seed_ * 1000003u + f);
      for (double& v : data->values) v += sigma * rng.normal();
      const std::string file_name = name + ".dat";
      RMS_RETURN_IF_ERROR(
          data::write_experiment_file(tmp + "/" + file_name, *data));
      manifest << file_name << " " << sigma << "\n";
    }
    std::ofstream(tmp + "/manifest.txt") << manifest.str();
    fs::rename(tmp, dir_, ec);
    if (ec) {
      // Another process published the same dataset first.
      fs::remove_all(tmp, ec);
    }
    return Status::ok();
  }

  Status load_manifest() {
    std::ifstream in(dir_ + "/manifest.txt");
    if (!in) return support::not_found("no manifest in " + dir_);
    files_.clear();
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      FitFile file;
      if (!(fields >> file.file >> file.sigma)) {
        return support::invalid_argument("bad manifest line: " + line);
      }
      files_.push_back(std::move(file));
    }
    if (files_.size() != spec_.files.size()) {
      return support::invalid_argument("manifest lists the wrong file count");
    }
    return Status::ok();
  }

  FitSpec spec_;
  std::uint64_t seed_;
  Paths paths_;
  std::string dir_;
  std::string source_;
  std::vector<FitFile> files_;
};

// ------------------------------------------------------------- simulation

/// Exact lumping of the TC networks: the crosslink isomers C_n_v of one
/// chain length n react only among themselves (the positional ring walk)
/// and never as a reactant elsewhere, so their per-n totals plus the
/// reactive core form a closed mass-action system. The benchmark builds it
/// from the reaction list and integrates it with the explicit
/// Runge-Kutta-Verner method: no optimizer, VM or implicit-solver code
/// computes the reference.
class LumpedReference {
 public:
  Status build(const models::BuiltModel& model) {
    const std::vector<std::string>& names = model.odes.species_names;
    std::map<std::string, std::uint32_t> lump_ids;
    lump_of_.resize(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::string key = names[i];
      if (key.rfind("C_", 0) == 0) key = key.substr(0, key.rfind('_'));
      lump_of_[i] = lump_ids.emplace(key, lump_ids.size()).first->second;
    }
    lumps_ = lump_ids.size();
    std::vector<std::size_t> lump_size(lumps_, 0);
    for (std::uint32_t lump : lump_of_) ++lump_size[lump];

    std::map<std::string, std::uint32_t> ode_index;
    for (std::size_t i = 0; i < names.size(); ++i) {
      ode_index.emplace(names[i], static_cast<std::uint32_t>(i));
    }
    std::vector<std::uint32_t> lump_of_species(model.network.species.size());
    for (std::size_t id = 0; id < lump_of_species.size(); ++id) {
      const auto it = ode_index.find(
          model.network.species.entry(static_cast<network::SpeciesId>(id))
              .name);
      if (it == ode_index.end()) {
        return support::internal_error("species missing from the ODEs");
      }
      lump_of_species[id] = lump_of_[it->second];
    }

    std::map<std::string, std::size_t> term_index;
    std::vector<std::uint32_t> reactants;
    std::map<std::uint32_t, double> net;
    for (const network::Reaction& reaction : model.network.reactions) {
      reactants.clear();
      net.clear();
      for (network::SpeciesId id : reaction.reactants) {
        reactants.push_back(lump_of_species[id]);
        net[lump_of_species[id]] -= 1.0;
      }
      for (network::SpeciesId id : reaction.products) {
        net[lump_of_species[id]] += 1.0;
      }
      std::vector<std::pair<std::uint32_t, double>> change;
      for (const auto& [lump, v] : net) {
        if (v != 0.0) change.emplace_back(lump, v);
      }
      if (change.empty()) continue;  // a move inside one lump
      // Lumping is exact only if no lumped isomer is consumed by a
      // reaction that leaves its lump.
      for (std::uint32_t r : reactants) {
        if (lump_size[r] > 1) {
          return support::internal_error("crosslink lump is not closed");
        }
      }
      std::uint32_t slot = 0;
      if (!model.rates.index_of(reaction.rate_name, slot)) {
        return support::internal_error("unknown rate " + reaction.rate_name);
      }
      std::sort(reactants.begin(), reactants.end());
      std::string key = std::to_string(slot) + ':';
      for (std::uint32_t r : reactants) key += std::to_string(r) + ',';
      key += ':';
      for (const auto& [lump, v] : change) {
        key += std::to_string(lump) + '=' + std::to_string(v) + ',';
      }
      const auto [it, inserted] = term_index.emplace(key, terms_.size());
      if (inserted) terms_.push_back(Term{0.0, slot, reactants, change});
      terms_[it->second].multiplicity += reaction.multiplicity;
    }
    return Status::ok();
  }

  /// Species count of the model the reference was built from.
  [[nodiscard]] std::size_t species() const { return lump_of_.size(); }

  [[nodiscard]] std::vector<double> aggregate(
      const std::vector<double>& y) const {
    std::vector<double> out(lumps_, 0.0);
    for (std::size_t i = 0; i < y.size(); ++i) out[lump_of_[i]] += y[i];
    return out;
  }

  Status integrate(const std::vector<double>& rates,
                   const std::vector<double>& y0, double t_end,
                   std::vector<double>& y_end) const {
    solver::OdeSystem system{
        lumps_, [this, &rates](double, const double* y, double* ydot) {
          std::fill(ydot, ydot + lumps_, 0.0);
          for (const Term& term : terms_) {
            double flux = term.multiplicity * rates[term.slot];
            for (std::uint32_t r : term.reactants) flux *= y[r];
            for (const auto& [l, v] : term.change) ydot[l] += v * flux;
          }
        }};
    solver::IntegrationOptions options;
    options.relative_tolerance = 1e-11;
    options.absolute_tolerance = 1e-15;
    solver::RungeKuttaVerner integrator(system, options);
    RMS_RETURN_IF_ERROR(integrator.initialize(0.0, aggregate(y0)));
    return integrator.advance_to(t_end, y_end);
  }

 private:
  struct Term {
    double multiplicity = 0.0;
    std::uint32_t slot = 0;
    std::vector<std::uint32_t> reactants;
    std::vector<std::pair<std::uint32_t, double>> change;
  };

  std::vector<std::uint32_t> lump_of_;
  std::size_t lumps_ = 0;
  std::vector<Term> terms_;
};

class SimulateWorkload final : public Workload {
 public:
  explicit SimulateWorkload(std::uint64_t seed) : seed_(seed) {}

  const char* expected_backend() const override { return "vm"; }

  /// Untimed: draws the seeded initial state and integrates the lumped
  /// reference every job's final state is checked against. Both depend
  /// only on the seed, so the jobs of one process share them.
  Status prepare() override {
    const auto pool = make_pool(kThreads);
    auto built = compile(pool.get());
    if (!built.is_ok()) return built.status();
    // The seed perturbs the initial loading by up to 0.2%: every state
    // changes, the solver's step sequence (and so the work) barely does.
    y0_ = built->odes.init_concentrations;
    support::Xoshiro256 rng(seed_);
    for (double& c : y0_) c *= 1.0 + 0.002 * (2.0 * rng.uniform() - 1.0);
    RMS_RETURN_IF_ERROR(reference_.build(*built));
    return reference_.integrate(built->rates.values(), y0_,
                                kSampleTimes.back(), expected_);
  }

  JobResult run_job(const JobOptions& options) override {
    JobResult result;
    Tracer* tracer = options.tracer;
    support::WallTimer total;
    const auto pool = make_pool(options.threads);
    ScopedSpan job_span(tracer, "job");

    // ---- set-up: parallel compile, VM backend, system.
    ScopedSpan setup_span(tracer, "setup");
    ScopedSpan compile_span(tracer, "compile");
    auto built = compile(pool.get());
    compile_span.close();
    if (!built.is_ok()) {
      return failed(std::move(result), "compile: " + built.status().to_string());
    }
    const models::BuiltModel& model = *built;
    ScopedSpan backend_span(tracer, "codegen.backend");
    ExecutionOptions execution;
    // A cold native build of a 250k-equation module takes minutes.
    execution.backend = Backend::kVm;
    execution.with_jacobian = false;
    const Execution exec = Execution::create(model, execution);
    backend_span.close();
    if (std::string(backend_name(exec.backend())) != expected_backend()) {
      return failed(std::move(result), "backend is not the VM");
    }
    if (model.equation_count() != reference_.species()) {
      return failed(std::move(result), "model differs from the reference's");
    }
    const std::vector<double> rates = model.rates.values();
    const solver::OdeSystem system = exec.make_system(&rates);
    const std::vector<double>& y0 = y0_;
    setup_span.close();
    result.setup_s = total.seconds();

    // ---- run: matrix-free Adams-Gear integration of the cure.
    support::WallTimer run_timer;
    ScopedSpan run_span(tracer, "run");
    ScopedSpan solve_span(tracer, "solver.solve");
    solver::IntegrationOptions integration;
    integration.newton_linear_solver =
        solver::NewtonLinearSolver::kMatrixFreeGmres;
    integration.relative_tolerance = kRtol;
    integration.absolute_tolerance = 1e-10;
    solver::AdamsGear integrator(system, integration);
    Status status = integrator.initialize(0.0, y0);
    std::vector<double> y;
    for (double t : kSampleTimes) {
      if (!status.is_ok()) break;
      status = integrator.advance_to(t, y);
    }
    solve_span.close();
    run_span.close();
    result.run_s = run_timer.seconds();
    if (!status.is_ok()) {
      return failed(std::move(result), "integration: " + status.to_string());
    }

    // ---- check: the RHS against the symbolic table, and the trajectory
    // against the lumped reference.
    ScopedSpan check_span(tracer, "check");
    std::vector<double> f_vm(y0.size());
    system.rhs(0.0, y0.data(), f_vm.data());
    std::vector<double> f_ref;
    model.odes.table.evaluate(y0, rates, 0.0, f_ref);
    double scale = 0.0;
    for (std::size_t i = 0; i < f_ref.size(); ++i) {
      scale = std::max({scale, std::fabs(f_ref[i]), std::fabs(f_vm[i])});
    }
    std::size_t rhs_mismatches = 0;
    for (std::size_t i = 0; i < f_ref.size(); ++i) {
      if (!verify::values_match(f_vm[i], f_ref[i],
                                verify::Tolerance::kReassociated, scale)) {
        ++rhs_mismatches;
      }
    }
    double worst = 0.0;
    std::ostringstream worst_lump;
    const std::vector<double> lumped = reference_.aggregate(y);
    double ref_scale = 0.0;
    for (double v : expected_) ref_scale = std::max(ref_scale, std::fabs(v));
    for (std::size_t l = 0; l < expected_.size(); ++l) {
      const double bound =
          kCheckFactor * kRtol * (std::fabs(expected_[l]) + 1e-3 * ref_scale);
      const double excess = std::fabs(lumped[l] - expected_[l]) / bound;
      if (excess > worst) {
        worst = excess;
        worst_lump.str("");
        worst_lump << "lump " << l << ": " << lumped[l] << " vs reference "
                   << expected_[l];
      }
    }
    check_span.close();
    job_span.close();
    result.total_s = total.seconds();
    if (rhs_mismatches != 0) {
      return failed(std::move(result),
                    std::to_string(rhs_mismatches) +
                        " RHS components differ from the symbolic table");
    }
    if (worst > 1.0) {
      std::ostringstream msg;
      msg << "final state off the lumped reference by " << worst
          << " x the tolerance bound (" << worst_lump.str() << ")";
      return failed(std::move(result), msg.str());
    }
    result.ok = true;

    auto& counts = result.counts;
    add_model_counts(model, counts);
    const solver::IntegrationStats& stats = integrator.stats();
    add_integration_counts("solver", stats, counts);
    if (options.layers == nullptr) return result;

    Metrics& layers = *options.layers;
    add_setup_layers(model, *tracer, layers);
    put(layers, "solver.solve_s", tracer->total("solver.solve"), "s");
    put(layers, "vm.rhs_us", time_per_call_us([&] {
          system.rhs(0.0, y0.data(), f_vm.data());
        }),
        "us");
    // The run is matrix-free, so the Jacobian is compiled here only to
    // measure the compile and fill layers at this size.
    const codegen::CompiledJacobian jacobian =
        compile_jacobian_traced(model, pool.get(), tracer);
    put(layers, "codegen.jacobian_s", tracer->total("codegen.jacobian"), "s");
    codegen::SparseJacobianEvaluator fill(&jacobian, &rates);
    linalg::CsrMatrix values;
    put(layers, "codegen.jac_fill_us",
        time_per_call_us([&] { fill(0.0, y0.data(), values); }), "us");
    return result;
  }

 private:
  /// Integration tolerance; the trajectory check bound scales with it.
  static constexpr double kRtol = 1e-6;
  /// Global error of the adaptive BDF run relative to its per-step rtol.
  static constexpr double kCheckFactor = 1000.0;
  static constexpr std::array<double, 4> kSampleTimes = {0.25, 0.5, 1.0, 2.0};

  static support::Expected<models::BuiltModel> compile(
      const support::ThreadPool* pool) {
    return models::build_test_case(models::scaled_config(5, 1.0),
                                   pipeline_options(pool));
  }

  std::uint64_t seed_;
  std::vector<double> y0_;
  LumpedReference reference_;
  /// Lumped final state of the reference integration.
  std::vector<double> expected_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const Paths& paths) {
  if (name == "fit_tc3") {
    FitSpec spec;
    spec.name = name;
    spec.why =
        "stiff sparse-LU-bound fit: TC3 at 5% scale (1229 equations, 6 of "
        "its 10 constants), native backend, pooled warm-start objective";
    // Six formulations, each changing one ingredient so the data separate
    // the routes that consume it; unequal lengths give the LPT schedule
    // imbalance.
    const std::pair<const char*, double> loadings[6] = {
        {"S8", 1.0}, {"S8", 0.5}, {"AcH", 0.5},
        {"RH", 0.6}, {"Zn", 0.4}, {"AcH", 2.0}};
    for (int f = 0; f < 6; ++f) {
      FileSpec file;
      file.records = static_cast<std::size_t>(200 * (1 + f % 3));
      file.species_loading = {{loadings[f].first, loadings[f].second}};
      spec.files.push_back(file);
    }
    spec.t_end = 2.0;
    spec.noise_level = 1e-5;
    spec.constant_rtol = 0.15;
    // A one-observable fit reaches the noise floor with these anywhere in
    // their box, and LM then wanders along them differently for every noise
    // draw: k9 only permutes crosslink isomers, and the sulfur-releasing
    // routes k5, k6 and k7 trade off against each other.
    spec.fixed_constants = {"k5", "k6", "k7", "k9"};
    return std::make_unique<FitWorkload>(std::move(spec), seed, paths);
  }
  if (name == "fit_arrhenius") {
    FitSpec spec;
    spec.name = name;
    spec.why =
        "tiny Arrhenius model through the RDL/graph-chemistry path: step "
        "control, Newton and output interpolation dominate, the LU is "
        "trivial";
    spec.rdl_file = "vulcanization_arrhenius.rdl";
    for (double loading : {1.0, 0.8}) {
      for (double temperature : {300.0, 320.0, 340.0}) {
        FileSpec file;
        file.temperature = temperature;
        file.records = 3200;
        file.loading = loading;
        spec.files.push_back(file);
      }
    }
    spec.t_end = 12.0;
    spec.noise_level = 1e-4;
    spec.probe_d0 = 10.0;
    spec.constant_rtol = 0.05;
    return std::make_unique<FitWorkload>(std::move(spec), seed, paths);
  }
  if (name == "simulate_tc5") return std::make_unique<SimulateWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
