// Adams-Gear stiff solver: variable-order (1..5), variable-step BDF with a
// modified Newton corrector (the role of IMSL's imsl_f_ode_adams_gear).
//
// "Because chemical reactions proceed to equilibrium, where molecules and
// their variants effectively complete their reactions in different epochs,
// the differential equations modeling the behavior of such systems are
// stiff. Therefore we use the Adams-Gear solver." (paper §4.1)
//
// Method: at order q the solution history (t_{n-1}, y_{n-1}), ..., is
// interpolated together with the unknown (t_n, y_n); requiring the
// interpolant's derivative at t_n to equal f(t_n, y_n) gives the
// variable-coefficient BDF corrector
//     d_0 y_n + sum_{i>=1} d_i y_{n-i} = f(t_n, y_n)
// whose weights d_i come from Fornberg's algorithm on the actual (unevenly
// spaced) history nodes. The corrector is solved by a modified Newton
// iteration with iteration matrix M = d_0 I - J, J a finite-difference
// Jacobian that is reused across steps until convergence degrades.
//
// Step control: h follows the error controller alone. The solver never
// shortens a step to land on an output time; a requested time inside the
// newest step is interpolated (advance_to, advance_to_observed), so a
// densely-sampled data file costs the steps its solution needs, not one per
// record. The iteration matrix is refactored only when d0 drifts more than
// 50% from the factored one or the Jacobian is refreshed, and each Newton
// update is scaled by 2 / (1 + d0 / d0_factored) to make up for the stale
// d0. Every solve runs this way from its initial state, so its result
// depends on nothing but its system, options and initial point.
//
// Step replay (internal numerical differentiation, Bock 1981): a solve
// with a step recorder installed (set_step_recorder) records every accepted
// step: its time, BDF weights, the history points its predictor and the
// records after it interpolate through, the factorization its Newton
// iteration solved with, and its accepted update y_n - y_pred,n. A solve
// with that recording installed (set_replay) takes exactly those steps: no
// error test, no rejected step, no factorization. Each step's Newton
// iteration starts from the replaying solve's own predictor plus the
// recorded update. A finite-difference column replayed on its base solve's
// steps therefore differences two solves on one grid, and so sees the
// parameter change, not the step controller's noise. Replay needs the two
// trajectories close enough for the recorded factorizations to converge:
// a step whose Newton iteration fails ends the replay with an error, and
// the caller solves adaptively instead.
//
// Observed output: the estimator compares one linear Observable with the
// measured value at every record, several records per accepted step. With
// an output installed (set_output), each history point also stores its
// projection p_k = measure(y_k), computed once when the point enters the
// history, and advance_to_observed interpolates those scalars with the
// same Lagrange weights l_k(t) that interpolate the state (advance_to):
//     measure(sum_k l_k(t) y_k) = sum_k l_k(t) measure(y_k),
// exact in real arithmetic (only the summation order differs), at O(order)
// per record instead of O(n * order). The weights come from a Lagrange
// basis of the newest history nodes (LagrangeBasis) built once per history
// change, an accepted or replayed step, an initialize() or a new point
// count, so a record costs O(order) multiplications, no division and no
// allocation. The predictor and the BDF weights stay on Fornberg's
// algorithm. Step control never reads the output or the record weights, so
// the trajectory is the same whichever call the caller uses and however
// many records it reads.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "solver/fornberg.hpp"
#include "solver/ode.hpp"

namespace rms::solver {

/// The accepted steps of one sparse-LU solve, in order, for a replay on a
/// nearby trajectory (AdamsGear::set_replay). The weights and updates live
/// in flat buffers that clear() empties without releasing, so a recording
/// reused across solves stops allocating once it has seen its longest one.
struct StepRecording {
  struct Step {
    double t = 0.0;  ///< time the step reached
    std::size_t weights = 0;  ///< offset of its BDF weights in `weights`
    int weight_count = 0;  ///< d_0 .. d_q: the unknown plus q history points
    int predictor_points = 0;  ///< history points the predictor used
    int output_points = 0;  ///< history points records after it interpolate
    /// The factorization its Newton iteration solved with, that
    /// factorization's d0, and whether the stale-d0 relax factor applied.
    std::shared_ptr<const linalg::SparseLu> lu;
    double factored_d0 = 0.0;
    bool relaxed = false;
  };
  double t0 = 0.0;
  std::size_t dimension = 0;
  std::vector<Step> steps;
  std::vector<double> weights;  ///< every step's BDF weights, flat
  std::vector<float> updates;   ///< y_n - y_pred,n, dimension per step

  [[nodiscard]] bool empty() const { return steps.empty(); }
  void clear() {
    steps.clear();
    weights.clear();
    updates.clear();
  }
};

class AdamsGear final : public OdeSolver {
 public:
  AdamsGear(OdeSystem system, IntegrationOptions options = {});

  support::Status initialize(double t0, const std::vector<double>& y0) override;
  support::Status advance_to(double t_target,
                             std::vector<double>& y_out) override;

  /// Integrates forward like advance_to but writes only the installed
  /// output's value at t_target: the stored projection of the newest
  /// history point when t_target is that point, otherwise the projections
  /// interpolated with the weights advance_to would use on the state.
  /// Requires set_output before the last initialize().
  support::Status advance_to_observed(double t_target, double& value);
  [[nodiscard]] double current_time() const override { return history_.front().t; }
  [[nodiscard]] const IntegrationStats& stats() const override { return stats_; }
  [[nodiscard]] std::string name() const override { return "adams-gear-bdf"; }

  /// Current BDF order (for tests/diagnostics).
  [[nodiscard]] int current_order() const { return order_; }

  /// Records the accepted steps of subsequent integrations into `out`
  /// (cleared on initialize; sparse-LU path only, other paths record
  /// nothing). nullptr (the default) disables recording.
  void set_step_recorder(StepRecording* out) { step_recorder_ = out; }

  /// Borrows a recording that subsequent integrations replay instead of
  /// stepping adaptively (see the file comment). initialize() fails when the
  /// recording starts elsewhere or has another dimension; advancing fails
  /// when a replayed Newton iteration does not converge or the recording
  /// ends before the target. nullptr (the default) restores adaptive
  /// stepping. The recording must outlive the integration.
  void set_replay(const StepRecording* recording) { replay_ = recording; }

  /// Borrows the linear output advance_to_observed reports. Install it
  /// before initialize(): from then on every point entering the history
  /// (y0, then each accepted step) stores its projection. nullptr (the
  /// default) stores nothing. The output must outlive the integration.
  void set_output(const Observable* output) { output_ = output; }

 private:
  struct HistoryPoint {
    double t = 0.0;
    std::vector<double> y;
    double output = 0.0;  ///< output_->measure(y) when an output is set
  };

  /// Steps until the newest history point reaches t_target; the record
  /// loop shared by advance_to and advance_to_observed. Rejects a target
  /// before the newest step's start (before t0 if no step was taken).
  support::Status advance(double t_target);
  support::Status step();
  /// Takes the next recorded step of replay_.
  support::Status replay_step();
  /// Pushes y_new_ at t_new as the newest history point.
  void push_history(double t_new);
  /// Appends the step just accepted at t_new to step_recorder_.
  void record_step(double t_new, int predictor_points, double relax);
  /// Modified Newton on the corrector; each update is scaled by `relax`.
  support::Status newton_solve(double t_new, const std::vector<double>& d,
                               std::vector<double>& y, double relax,
                               bool& converged);
  void compute_jacobian(double t, const std::vector<double>& y);
  bool factor_iteration_matrix(double d0);
  void compute_sparse_jacobian(double t, const std::vector<double>& y);
  bool factor_sparse_iteration_matrix(double d0);
  bool iteration_structure_matches() const;
  void build_iteration_structure();
  /// History points interpolation runs through at the current order:
  /// min(history, order + 1).
  [[nodiscard]] int interpolation_points() const;
  /// The predictor: the state at t beyond the newest step, extrapolated
  /// through the newest `points` history points with Fornberg weights.
  void predict(double t, int points, std::vector<double>& y_out);
  /// Lagrange weights at a record time t inside the newest step over the
  /// newest `points` history points, from the basis cached for this
  /// history (rebuilt when history_serial_ or `points` changed).
  const double* record_weights(double t, int points);
  /// y_out = sum_i w[i] * y of the i-th newest history point.
  void combine_history(const double* w, int points,
                       std::vector<double>& y_out) const;

  OdeSystem system_;
  IntegrationOptions options_;
  IntegrationStats stats_;

  std::deque<HistoryPoint> history_;  ///< newest first
  /// Bumped whenever the history changes (initialize, accepted or replayed
  /// step); with the point count it keys record_basis_.
  std::uint64_t history_serial_ = 0;
  /// Records inside the newest step: the basis of its nodes, the history
  /// serial it was built at, the nodes' outputs p_k, and the weights of
  /// the last record read.
  LagrangeBasis record_basis_;
  std::uint64_t record_basis_serial_ = 0;
  std::array<double, LagrangeBasis::kMaxNodes> record_outputs_{};
  std::array<double, LagrangeBasis::kMaxNodes> record_w_{};
  double h_ = 0.0;
  int order_ = 1;
  int accepts_at_order_ = 0;
  int consecutive_rejects_ = 0;

  linalg::Matrix jacobian_;
  linalg::LuFactorization lu_;
  linalg::CsrMatrix sparse_jacobian_;
  linalg::SparseLu sparse_lu_;
  /// The factorization Newton solves with: &sparse_lu_ after an own
  /// factorization, or a recorded one while replaying.
  const linalg::SparseLu* active_sparse_lu_ = nullptr;
  /// Owner of the active factorization while recording: a shared copy of
  /// sparse_lu_, which the next refactor overwrites.
  std::shared_ptr<const linalg::SparseLu> active_lu_record_;
  StepRecording* step_recorder_ = nullptr;
  const StepRecording* replay_ = nullptr;
  std::size_t replay_cursor_ = 0;
  double factored_d0_ = 0.0;
  bool has_factorization_ = false;
  bool jacobian_fresh_ = false;
  bool have_jacobian_ = false;

  // Iteration matrix M = d0*I - J built into persistent storage: the
  // symbolic merge of J's pattern with the diagonal is computed once and
  // reused while the Jacobian pattern is unchanged (chemistry patterns are
  // fixed), so refactorization only rewrites values.
  linalg::CsrMatrix iteration_matrix_;
  std::vector<std::uint32_t> iteration_source_;  ///< jac entry per M entry
  std::vector<std::uint32_t> iteration_diagonal_;  ///< M entry of (r, r)
  static constexpr std::uint32_t kNoSource = 0xffffffffu;

  // Step workspaces, reused across steps so a steady-state solve performs
  // no heap allocation.
  std::vector<double> f_work_;
  std::vector<double> g_work_;
  std::vector<double> delta_;
  std::vector<double> weights_;
  std::vector<double> step_nodes_;
  std::vector<double> step_d_;
  std::vector<double> y_new_;
  std::vector<double> y_pred_;
  std::vector<double> err_vec_;
  std::vector<double> history_term_;
  std::vector<double> interp_nodes_;
  std::vector<double> interp_w_;
  std::vector<double> jac_f0_;
  std::vector<double> jac_ys_;
  std::vector<double> jac_fs_;
  std::vector<double> jac_deltas_;
  std::vector<double> jac_y_pert_;

  const Observable* output_ = nullptr;

  bool initialized_ = false;
};

}  // namespace rms::solver
