#include "estimator/objective.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "codegen/ode_system.hpp"
#include "parallel/schedule.hpp"
#include "support/assert.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace rms::estimator {

using support::Status;

namespace {

/// The lowest-index failure among per-task statuses: which error is
/// reported never depends on which worker finished first.
Status first_failure(const std::vector<Status>& statuses) {
  for (const Status& status : statuses) {
    if (!status.is_ok()) return status;
  }
  return Status::ok();
}

}  // namespace

/// Everything one in-flight solve needs, reusable across solves: the rate
/// buffer the ODE closures read through a stable pointer and the solver
/// (its system with the VM's batch registers, its history, Newton and
/// Jacobian workspaces persist across initialize() calls). A scratch is
/// checked out of a freelist per task; which scratch a task gets never
/// affects results because initialize() resets all result-bearing solver
/// state.
struct ObjectiveFunction::SolveScratch {
  std::vector<double> rates;
  std::unique_ptr<solver::AdamsGear> integrator;
};

ObjectiveFunction::ObjectiveFunction(const vm::Program& program,
                                     data::Observable observable,
                                     std::vector<Experiment> experiments,
                                     std::vector<std::uint32_t> estimated_slots,
                                     std::vector<double> base_rates,
                                     ObjectiveOptions options)
    : program_(&program),
      observable_(std::move(observable)),
      experiments_(std::move(experiments)),
      estimated_slots_(std::move(estimated_slots)),
      base_rates_(std::move(base_rates)),
      options_(options) {
  file_offsets_.resize(experiments_.size());
  for (std::size_t f = 0; f < experiments_.size(); ++f) {
    const std::size_t count = experiments_[f].data.record_count();
    file_offsets_[f] = total_records_;
    total_records_ += count;
    max_records_ = std::max(max_records_, count);
  }
  file_times_.assign(experiments_.size(), 0.0);
  recordings_.resize(experiments_.size());
  if (options_.pool_workers > 0) {
    // cap_to_hardware=false: the pool exists for deterministic task-level
    // parallelism, and the worker count must match what the caller asked
    // for even on small machines (results are bit-identical regardless).
    pool_ = std::make_unique<support::ThreadPool>(
        static_cast<std::size_t>(options_.pool_workers),
        /*cap_to_hardware=*/false);
  }
}

ObjectiveFunction::~ObjectiveFunction() = default;

std::size_t ObjectiveFunction::residual_size() const {
  return options_.layout == ResidualLayout::kGlobalPerTimestep
             ? max_records_
             : total_records_;
}

void ObjectiveFunction::rates_for(const linalg::Vector& x,
                                  std::vector<double>& rates) const {
  rates = base_rates_;
  for (std::size_t i = 0; i < x.size(); ++i) {
    RMS_CHECK(estimated_slots_[i] < rates.size());
    rates[estimated_slots_[i]] = x[i];
  }
}

Status ObjectiveFunction::solve_file(std::size_t file_index,
                                     const std::vector<double>& prefactors,
                                     SolveScratch& scratch,
                                     const SolveHooks& hooks, double* segment,
                                     double& solve_seconds,
                                     solver::IntegrationStats& stats,
                                     Replay& replay) const {
  const Experiment& experiment = experiments_[file_index];
  support::WallTimer timer;

  // Evaluate the rate law at the file's cure temperature: Arrhenius slots
  // combine the (possibly estimated) prefactor with their activation
  // energy; plain slots pass through.
  scratch.rates.assign(prefactors.begin(), prefactors.end());
  if (options_.rate_table != nullptr && experiment.temperature > 0.0) {
    for (std::uint32_t s = 0; s < scratch.rates.size(); ++s) {
      scratch.rates[s] = options_.rate_table->value_with_prefactor(
          s, prefactors[s], experiment.temperature);
    }
  }

  if (scratch.integrator == nullptr) {
    // The ODE closures read the scratch's rate buffer through a pointer, so
    // the system (and the solver holding it) is built once per scratch and
    // reused for every file and parameter vector.
    solver::OdeSystem system = codegen::make_ode_system(
        *program_, options_.native_backend, options_.compiled_jacobian,
        &scratch.rates);
    solver::IntegrationOptions integration = options_.integration;
    if (system.sparse_jacobian) {
      integration.newton_linear_solver = solver::NewtonLinearSolver::kSparseLu;
    }
    scratch.integrator =
        std::make_unique<solver::AdamsGear>(std::move(system), integration);
    // Records read the observable interpolated from its per-step values,
    // never the interpolated state.
    scratch.integrator->set_output(&observable_);
  }

  solver::AdamsGear& integrator = *scratch.integrator;
  const auto integrate = [&](const solver::StepRecording* steps) {
    // A replay takes its steps and factorizations from the recording and
    // records nothing.
    integrator.set_replay(steps);
    if (steps == nullptr) integrator.set_step_recorder(hooks.step_capture);
    Status status = integrator.initialize(
        experiment.data.times.empty()
            ? 0.0
            : std::min(0.0, experiment.data.times.front()),
        experiment.initial_state);
    if (status.is_ok()) {
      for (std::size_t j = 0; j < experiment.data.record_count(); ++j) {
        double simulated = 0.0;
        status = integrator.advance_to_observed(experiment.data.times[j],
                                                simulated);
        if (!status.is_ok()) break;
        segment[j] = simulated - experiment.data.values[j];
      }
    }
    integrator.set_replay(nullptr);
    integrator.set_step_recorder(nullptr);
    return status;
  };
  replay = Replay::kNone;
  Status status = integrate(hooks.replay);
  stats = integrator.stats();
  if (hooks.replay != nullptr) {
    replay = status.is_ok() ? Replay::kReplayed : Replay::kFellBack;
    if (!status.is_ok()) {
      // The replay overwrote nothing it does not write again: every record
      // is rewritten by the independent solve.
      status = integrate(nullptr);
      stats += integrator.stats();
    }
  }
  solve_seconds = timer.seconds();
  if (!status.is_ok()) {
    return Status(status.code(),
                  support::str_format("file %zu (%s): %s", file_index,
                                      experiment.data.name.c_str(),
                                      status.message().c_str()));
  }
  return status;
}

ObjectiveFunction::SolveScratch& ObjectiveFunction::acquire_scratch() {
  std::lock_guard<std::mutex> lock(scratch_mutex_);
  if (free_scratch_.empty()) {
    scratch_pool_.push_back(std::make_unique<SolveScratch>());
    return *scratch_pool_.back();
  }
  SolveScratch* scratch = free_scratch_.back();
  free_scratch_.pop_back();
  return *scratch;
}

void ObjectiveFunction::release_scratch(SolveScratch& scratch) {
  std::lock_guard<std::mutex> lock(scratch_mutex_);
  free_scratch_.push_back(&scratch);
}

void ObjectiveFunction::run_tasks(
    std::size_t count, const std::vector<double>& predicted,
    const std::function<void(std::size_t)>& body) {
  // Longest-predicted-first task order: §4.4's priority queue as a list
  // schedule. With the work-stealing pool this behaves like dynamic LPT
  // (idle workers pull the longest remaining work); serially it is just a
  // permutation. Either way every task commits into its own slot, so the
  // execution order never shows in the results.
  task_order_.resize(count);
  std::iota(task_order_.begin(), task_order_.end(), std::size_t{0});
  const bool have_predictions =
      predicted.size() == count &&
      std::any_of(predicted.begin(), predicted.end(),
                  [](double t) { return t > 0.0; });
  if (have_predictions) {
    std::stable_sort(task_order_.begin(), task_order_.end(),
                     [&predicted](std::size_t a, std::size_t b) {
                       return predicted[a] > predicted[b];
                     });
  }
  const auto run_one = [this, &body](std::size_t i) { body(task_order_[i]); };
  if (pool_ != nullptr) {
    pool_->parallel_for(0, count, 1, run_one);
  } else {
    for (std::size_t i = 0; i < count; ++i) run_one(i);
  }
}

Status ObjectiveFunction::evaluate(const linalg::Vector& x,
                                   linalg::Vector& residuals) {
  if (x.size() != estimated_slots_.size()) {
    return support::invalid_argument(support::str_format(
        "expected %zu parameters, got %zu", estimated_slots_.size(),
        x.size()));
  }
  std::vector<double> rates;
  rates_for(x, rates);

  const std::size_t files = experiments_.size();
  const bool have_times =
      !file_times_.empty() &&
      *std::max_element(file_times_.begin(), file_times_.end()) > 0.0;

  // The §4.4 plan over the pool's workers: block distribution, or LPT on the
  // previous call's times ("at the next objective function call, every
  // processor will receive the balanced workload calculated by the current
  // objective function call"). Work stealing may rebalance execution without
  // affecting results.
  const int workers = std::max(options_.pool_workers, 1);
  if (options_.dynamic_load_balancing && have_times) {
    assignment_ = parallel::lpt_schedule(file_times_, workers);
  } else {
    assignment_ = parallel::block_schedule(files, workers);
  }

  residuals.assign(residual_size(), 0.0);
  const bool per_file = options_.layout == ResidualLayout::kPerFileRecord;

  // One task per file over the persistent pool (or inline), disjoint
  // per-file segments, deterministic serial reduction.
  eval_segments_.assign(total_records_, 0.0);
  task_seconds_.assign(files, 0.0);
  task_stats_.assign(files, solver::IntegrationStats{});
  task_status_.assign(files, Status::ok());
  task_replay_.assign(files, Replay::kNone);
  // The recordings are rewritten below; they match x only once every file
  // has solved.
  recorded_x_.clear();
  run_tasks(files, file_times_, [&](std::size_t f) {
    SolveScratch& scratch = acquire_scratch();
    SolveHooks hooks;
    hooks.step_capture = &recordings_[f];
    task_status_[f] =
        solve_file(f, rates, scratch, hooks,
                   eval_segments_.data() + file_offsets_[f], task_seconds_[f],
                   task_stats_[f], task_replay_[f]);
    release_scratch(scratch);
  });
  RMS_RETURN_IF_ERROR(first_failure(task_status_));
  recorded_x_ = x;
  for (std::size_t f = 0; f < files; ++f) {
    const std::size_t count = experiments_[f].data.record_count();
    const double* segment = eval_segments_.data() + file_offsets_[f];
    if (per_file) {
      std::copy(segment, segment + count,
                residuals.begin() +
                    static_cast<std::ptrdiff_t>(file_offsets_[f]));
    } else {
      for (std::size_t j = 0; j < count; ++j) residuals[j] += segment[j];
    }
    solver_stats_.solves += 1;
    solver_stats_.integration += task_stats_[f];
  }
  file_times_ = task_seconds_;
  return Status::ok();
}

Status ObjectiveFunction::evaluate_jacobian(const linalg::Vector& x,
                                            const linalg::Vector& r,
                                            const linalg::Vector& steps,
                                            linalg::Matrix& jacobian) {
  const std::size_t n = x.size();
  const std::size_t m = residual_size();
  const std::size_t files = experiments_.size();
  if (n != estimated_slots_.size()) {
    return support::invalid_argument(support::str_format(
        "expected %zu parameters, got %zu", estimated_slots_.size(), n));
  }
  if (steps.size() != n || r.size() != m) {
    return support::invalid_argument("jacobian input size mismatch");
  }
  if (jacobian.rows() != m || jacobian.cols() != n) {
    return support::invalid_argument(support::str_format(
        "jacobian must be %zu x %zu, got %zu x %zu", m, n, jacobian.rows(),
        jacobian.cols()));
  }

  // One full prefactor vector per FD column, shared read-only by that
  // column's file tasks. Built through the same x -> rates mapping a
  // perturbed evaluate() call would use, so the hook path reproduces the
  // serial per-column loop bit for bit.
  column_rates_.resize(n);
  linalg::Vector x_pert = x;
  for (std::size_t c = 0; c < n; ++c) {
    x_pert[c] = x[c] + steps[c];
    rates_for(x_pert, column_rates_[c]);
    x_pert[c] = x[c];
  }

  // The flat task pool of the tentpole: one LM iteration's Jacobian is
  // n_columns x n_files independent solves, ordered by recorded per-file
  // time and committed into disjoint flat-buffer segments.
  const std::size_t tasks = n * files;
  jacobian_segments_.assign(n * total_records_, 0.0);
  task_seconds_.assign(tasks, 0.0);
  task_stats_.assign(tasks, solver::IntegrationStats{});
  std::vector<double> predicted(tasks, 0.0);
  if (file_times_.size() == files) {
    for (std::size_t t = 0; t < tasks; ++t) {
      predicted[t] = file_times_[t % files];
    }
  }

  const bool replay = !recorded_x_.empty() && recorded_x_ == x;
  task_status_.assign(tasks, Status::ok());
  task_replay_.assign(tasks, Replay::kNone);
  run_tasks(tasks, predicted, [&](std::size_t t) {
    const std::size_t c = t / files;
    const std::size_t f = t % files;
    SolveScratch& scratch = acquire_scratch();
    // Columns replay the base solve's steps at this x when it recorded
    // them, and otherwise solve independently. Either way they record
    // nothing.
    SolveHooks hooks;
    if (replay && !recordings_[f].empty()) hooks.replay = &recordings_[f];
    task_status_[t] = solve_file(
        f, column_rates_[c], scratch, hooks,
        jacobian_segments_.data() + c * total_records_ + file_offsets_[f],
        task_seconds_[t], task_stats_[t], task_replay_[t]);
    release_scratch(scratch);
  });
  // Task t is (column t / files, file t % files): the lowest failing task is
  // the lowest (column, file).
  RMS_RETURN_IF_ERROR(first_failure(task_status_));

  const bool per_file = options_.layout == ResidualLayout::kPerFileRecord;
  std::vector<double> column(per_file ? 0 : m);
  for (std::size_t c = 0; c < n; ++c) {
    const double* flat = jacobian_segments_.data() + c * total_records_;
    const double* r_pert = flat;
    if (!per_file) {
      std::fill(column.begin(), column.end(), 0.0);
      for (std::size_t f = 0; f < files; ++f) {
        const std::size_t count = experiments_[f].data.record_count();
        const double* segment = flat + file_offsets_[f];
        for (std::size_t j = 0; j < count; ++j) column[j] += segment[j];
      }
      r_pert = column.data();
    }
    const double inv_step = 1.0 / steps[c];
    for (std::size_t i = 0; i < m; ++i) {
      jacobian(i, c) = (r_pert[i] - r[i]) * inv_step;
    }
  }

  // Per-file time for the next schedule: mean over this iteration's
  // columns. Work and stats aggregate in fixed task order.
  if (n > 0) {
    for (std::size_t f = 0; f < files; ++f) {
      double sum = 0.0;
      for (std::size_t c = 0; c < n; ++c) sum += task_seconds_[c * files + f];
      file_times_[f] = sum / static_cast<double>(n);
    }
  }
  for (std::size_t t = 0; t < tasks; ++t) {
    solver_stats_.solves += 1;
    solver_stats_.replayed_solves += task_replay_[t] == Replay::kReplayed;
    solver_stats_.replay_fallbacks += task_replay_[t] == Replay::kFellBack;
    solver_stats_.integration += task_stats_[t];
  }
  return Status::ok();
}

}  // namespace rms::estimator
