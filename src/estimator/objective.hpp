// The parallel objective function (paper §4.3, Fig. 9).
//
// For a candidate vector of kinetic rate constants, every experimental data
// file is solved: the ODE system is integrated with the Adams-Gear solver
// over the file's time grid, the simulated property is compared against the
// measured values, and the differences accumulate into an error vector.
//
// Every evaluation runs on one engine: a *persistent* work-stealing pool
// owned by the objective (or inline on the caller when pool_workers is 0).
// evaluate() is one task per file; one Levenberg-Marquardt Jacobian
// (evaluate_jacobian) is a flat pool of independent (FD column, file) solve
// tasks. Tasks are listed longest-recorded-time-first (§4.4 LPT as a list
// schedule; the pool runs the list in static chunks, see run_tasks) and
// commit into disjoint buffers that are reduced in file
// order, so results are bit-identical for any worker count, and a failure
// always reports the same file. Per-worker scratch (solver, VM registers,
// rate buffers) makes the steady-state solve allocation-free. Every solve
// starts from the file's initial state and borrows nothing from earlier
// solves, so evaluate(x) is a pure function of x. A sparse-LU evaluate()
// records each file's accepted steps, and the Jacobian at the same x
// replays them for every column (AdamsGear::set_replay). Each file's ODE
// system comes from codegen::make_ode_system, the builder rms::Execution
// uses too.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "codegen/jacobian.hpp"
#include "codegen/native_backend.hpp"
#include "data/experiment.hpp"
#include "data/synthetic.hpp"
#include "linalg/matrix.hpp"
#include "rcip/rate_table.hpp"
#include "solver/adams_gear.hpp"
#include "solver/ode.hpp"
#include "support/status.hpp"
#include "vm/program.hpp"

namespace rms::support {
class ThreadPool;
}

namespace rms::estimator {

/// One experiment: the measured records plus the formulation's initial
/// concentrations (formulations differ in their initial state) and cure
/// temperature — the paper's files record "different formulations cured at
/// different temperatures".
struct Experiment {
  data::ExperimentData data;
  std::vector<double> initial_state;
  /// Cure temperature [K]; 0 means "no temperature dependence" (Arrhenius
  /// slots evaluate at the reference temperature).
  double temperature = 0.0;
};

enum class ResidualLayout {
  /// The paper's layout: error_vector[j] accumulates the per-timestep
  /// differences summed over files (global error vector of Fig. 9).
  kGlobalPerTimestep,
  /// One residual per (file, record): better conditioned for the
  /// Levenberg-Marquardt fit; used by the recovery tests and examples.
  kPerFileRecord,
};

/// Aggregated Adams-Gear work over every per-file solve the objective ran,
/// surfaced end-to-end into EstimationResult so factorization and replay
/// savings are observable, not just believed.
struct SolverStats {
  std::size_t solves = 0;
  /// Jacobian column solves that replayed their base solve's steps.
  std::size_t replayed_solves = 0;
  /// Column replays whose Newton iteration failed, solved again
  /// independently (their work counts in `integration` twice over).
  std::size_t replay_fallbacks = 0;
  solver::IntegrationStats integration;
};

struct ObjectiveOptions {
  solver::IntegrationOptions integration;
  ResidualLayout layout = ResidualLayout::kPerFileRecord;
  /// Plan files over the pool's workers with the §4.4 dynamic load
  /// balancing schedule (LPT on the previous call's recorded times) instead
  /// of the block distribution; last_assignment() reports the plan. The
  /// pool itself always runs tasks longest-recorded-first.
  bool dynamic_load_balancing = false;
  /// Workers of the persistent solve pool. 0 solves every file inline on
  /// the calling thread; N > 0 keeps N worker threads alive for the
  /// objective's lifetime — no thread spawn per objective call — and runs
  /// every evaluation (and every batched-Jacobian column) over them.
  /// Results are bit-identical for any value.
  int pool_workers = 0;
  /// Has no effect: every solve is history-free, and results are the same
  /// either way. Kept only until the end-to-end benchmark stops setting it.
  bool warm_start = false;
  /// When set, experiments with a positive cure temperature evaluate
  /// Arrhenius-form rate constants at that temperature; an estimated
  /// parameter for an Arrhenius slot is its (temperature-independent)
  /// prefactor. Must outlive the objective.
  const rcip::RateTable* rate_table = nullptr;
  /// When set, every per-file solve uses the compiler-generated analytic
  /// Jacobian with the sparse-direct Newton path instead of dense finite
  /// differences — the fast configuration for large models. Must outlive
  /// the objective.
  const codegen::CompiledJacobian* compiled_jacobian = nullptr;
  /// When set, every per-file solve runs the RHS, the batched RHS, and —
  /// when the module carries one — the analytic sparse Jacobian through
  /// the AOT-compiled native backend instead of the bytecode VM. Must
  /// outlive the objective; `program` is then only consulted for the
  /// system dimension. Takes precedence over compiled_jacobian.
  /// An rms::Execution supplies both: pass its native() and
  /// compiled_jacobian().
  const codegen::NativeBackend* native_backend = nullptr;
};

class ObjectiveFunction {
 public:
  /// `program` computes the ODE RHS given (t, y, k); `estimated_slots[i]`
  /// says which rate-constant slot parameter x[i] controls; `base_rates` is
  /// the full k vector (slots not estimated keep their base value).
  ObjectiveFunction(const vm::Program& program, data::Observable observable,
                    std::vector<Experiment> experiments,
                    std::vector<std::uint32_t> estimated_slots,
                    std::vector<double> base_rates,
                    ObjectiveOptions options = {});
  ~ObjectiveFunction();

  ObjectiveFunction(const ObjectiveFunction&) = delete;
  ObjectiveFunction& operator=(const ObjectiveFunction&) = delete;

  /// Length of the residual vector under the configured layout.
  [[nodiscard]] std::size_t residual_size() const;

  /// Evaluates the residuals for parameter vector x. When solves fail, the
  /// lowest-index file's error is returned, prefixed with that file's index
  /// and name.
  support::Status evaluate(const linalg::Vector& x, linalg::Vector& residuals);

  /// Batched forward-difference Jacobian (the nlopt::JacobianFunction
  /// contract): fills column j with (r(x + steps[j] e_j) - r) / steps[j],
  /// scheduling all (column, file) solves as one flat LPT-ordered task list
  /// over the persistent workers (serially without a pool — identical
  /// results either way). When the last evaluate() ran at this x and
  /// recorded a file's steps (every solve on the sparse-LU path does), that
  /// file's column solves replay those steps, so every column differences
  /// two solves on one grid; a replay whose Newton iteration fails, and
  /// every other file, runs an independent solve. When solves fail, the
  /// error of the lowest (column, file) task is returned, prefixed like
  /// evaluate()'s. `jacobian` must already be residual_size() x x.size();
  /// any other shape returns invalid_argument before a solve runs.
  support::Status evaluate_jacobian(const linalg::Vector& x,
                                    const linalg::Vector& r,
                                    const linalg::Vector& steps,
                                    linalg::Matrix& jacobian);

  /// Per-file solve seconds recorded by the most recent evaluate() or
  /// evaluate_jacobian() — the timing list the dynamic load balancer
  /// consumes (§4.4) and the input to the SimCluster Table 2 replay.
  [[nodiscard]] const std::vector<double>& last_file_times() const {
    return file_times_;
  }

  /// Schedule planned by the most recent evaluate() over max(pool_workers,
  /// 1) workers (work stealing may rebalance execution without affecting
  /// results).
  [[nodiscard]] const std::vector<int>& last_assignment() const {
    return assignment_;
  }

  [[nodiscard]] std::size_t experiment_count() const {
    return experiments_.size();
  }

  /// Aggregated Adams-Gear statistics over every solve since construction.
  [[nodiscard]] const SolverStats& solver_stats() const {
    return solver_stats_;
  }

 private:
  struct SolveScratch;

  /// What one file solve replays, and where it records its steps; either
  /// may be null.
  struct SolveHooks {
    /// Steps to replay; a failed replay falls back to an adaptive solve.
    const solver::StepRecording* replay = nullptr;
    solver::StepRecording* step_capture = nullptr;
  };

  /// How a Jacobian column task ended, for SolverStats.
  enum class Replay : std::uint8_t { kNone, kReplayed, kFellBack };

  /// Builds the full prefactor vector for parameter vector x.
  void rates_for(const linalg::Vector& x, std::vector<double>& rates) const;

  /// Solves one file and writes the residual of record j to segment[j]
  /// (record_count entries); an error names the file. `hooks` says what
  /// the solve replays and records; `replay` reports whether the
  /// solve replayed hooks.replay or fell back.
  support::Status solve_file(std::size_t file_index,
                             const std::vector<double>& prefactors,
                             SolveScratch& scratch, const SolveHooks& hooks,
                             double* segment, double& solve_seconds,
                             solver::IntegrationStats& stats,
                             Replay& replay) const;

  SolveScratch& acquire_scratch();
  void release_scratch(SolveScratch& scratch);

  /// Runs tasks 0..count-1 through `body` over the persistent pool
  /// (inline when absent), longest-predicted-first.
  void run_tasks(std::size_t count, const std::vector<double>& predicted,
                 const std::function<void(std::size_t)>& body);

  const vm::Program* program_;
  data::Observable observable_;
  std::vector<Experiment> experiments_;
  std::vector<std::uint32_t> estimated_slots_;
  std::vector<double> base_rates_;
  ObjectiveOptions options_;
  std::size_t max_records_ = 0;
  std::size_t total_records_ = 0;
  /// Record offset of file f in the kPerFileRecord layout (and in the flat
  /// per-column task buffers of evaluate_jacobian).
  std::vector<std::size_t> file_offsets_;
  std::vector<double> file_times_;
  std::vector<int> assignment_;
  SolverStats solver_stats_;

  // Persistent execution state: long-lived worker pool, per-worker
  // scratch, reusable buffers.
  std::unique_ptr<support::ThreadPool> pool_;
  std::vector<std::unique_ptr<SolveScratch>> scratch_pool_;
  std::vector<SolveScratch*> free_scratch_;
  std::mutex scratch_mutex_;
  /// Per-file accepted steps of the latest evaluate(), taken at recorded_x_
  /// (empty when that evaluation failed; a recording is empty when its
  /// solve was not on the sparse-LU path): what evaluate_jacobian at the
  /// same x replays.
  std::vector<solver::StepRecording> recordings_;
  linalg::Vector recorded_x_;
  std::vector<double> eval_segments_;      ///< evaluate(): per-file residuals
  std::vector<double> jacobian_segments_;  ///< evaluate_jacobian(): per (column, file)
  std::vector<double> task_seconds_;
  std::vector<solver::IntegrationStats> task_stats_;
  std::vector<Replay> task_replay_;
  std::vector<support::Status> task_status_;
  std::vector<std::size_t> task_order_;
  std::vector<std::vector<double>> column_rates_;
};

}  // namespace rms::estimator
