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
// Warm starts: the parameter estimator re-solves each data file once per
// finite-difference column per Levenberg-Marquardt iteration, at rate
// constants that barely move between solves. A completed solve records its
// accepted step-size/order profile (capture_warm_start); a later solve of
// the same file seeded with that profile (set_warm_start) skips the
// conservative cold-start ramp — larger initial step, earlier order raises,
// faster step growth toward the recorded profile — while the error
// controller still validates every step, so accuracy is unchanged.
#pragma once

#include <deque>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "solver/ode.hpp"

namespace rms::solver {

/// Accepted-step profile of a completed integration: entry i says the step
/// starting at times[i] used step size steps[i] at BDF order orders[i].
/// A profile captured on one trajectory warm-starts a re-solve of a nearby
/// trajectory (same file, perturbed rate constants).
struct WarmStartProfile {
  std::vector<double> times;
  std::vector<double> steps;
  std::vector<int> orders;

  [[nodiscard]] bool empty() const { return steps.empty(); }
  void clear() {
    times.clear();
    steps.clear();
    orders.clear();
  }
};

/// Reusable iteration-matrix factorizations recorded on one solve: entry i
/// factored M = d0 I - J at d0 values[i].d0 somewhere along the trajectory.
/// A later solve of a nearby trajectory (same data file, rate constants
/// perturbed at finite-difference magnitude) reuses the factors directly —
/// the modified Newton corrector tolerates both the stale Jacobian and a
/// bounded d0 mismatch — trading a few extra Newton iterations for
/// refactorizations. An entry is a copy of the solver's SparseLu: it shares
/// the pattern analysis and owns only the factor values. The cache also
/// keeps FD column solves on the base solve's factors, which the fit's
/// accuracy depends on (docs/estimator.md).
struct FactorCache {
  struct Entry {
    double d0 = 0.0;
    linalg::SparseLu lu;
  };
  std::vector<Entry> entries;

  [[nodiscard]] bool empty() const { return entries.empty(); }
  void clear() { entries.clear(); }
};

class AdamsGear final : public OdeSolver {
 public:
  AdamsGear(OdeSystem system, IntegrationOptions options = {});

  support::Status initialize(double t0, const std::vector<double>& y0) override;
  support::Status advance_to(double t_target,
                             std::vector<double>& y_out) override;
  [[nodiscard]] double current_time() const override { return history_.front().t; }
  [[nodiscard]] const IntegrationStats& stats() const override { return stats_; }
  [[nodiscard]] std::string name() const override { return "adams-gear-bdf"; }

  /// Current BDF order (for tests/diagnostics).
  [[nodiscard]] int current_order() const { return order_; }

  /// Copies the accepted-step profile of the integration since the last
  /// initialize() into `out` (cleared first). Meaningful after advance_to.
  void capture_warm_start(WarmStartProfile& out) const;

  /// Borrows a profile consumed by subsequent initialize() calls: the
  /// initial step and the controller's ramp heuristics follow the profile.
  /// nullptr (the default) restores cold starts. The profile must outlive
  /// the integration (it is read during stepping).
  void set_warm_start(const WarmStartProfile* profile) { warm_ = profile; }

  /// Borrows recorded factorizations from an earlier solve of a nearby
  /// trajectory (sparse-LU path only): whenever a step would refactor the
  /// iteration matrix, a cached factor whose d0 lies within the warm drift
  /// band of the needed one is reused instead. nullptr disables reuse. The
  /// cache must outlive the integration and is never written through.
  void set_factor_cache(const FactorCache* cache) { factor_cache_ = cache; }

  /// Directs factorizations of subsequent integrations into `out` (cleared
  /// on initialize): every factorization this solver performs — and every
  /// cache hit it reuses — is appended, so the recording is a complete d0
  /// ladder for the trajectory. nullptr (the default) disables recording.
  void set_factor_recorder(FactorCache* out) { factor_recorder_ = out; }

 private:
  struct HistoryPoint {
    double t = 0.0;
    std::vector<double> y;
  };

  support::Status step();
  support::Status newton_solve(double t_new, const std::vector<double>& d,
                               std::vector<double>& y, bool& converged);
  void compute_jacobian(double t, const std::vector<double>& y);
  bool factor_iteration_matrix(double d0);
  void compute_sparse_jacobian(double t, const std::vector<double>& y);
  bool factor_sparse_iteration_matrix(double d0);
  /// Looks for a borrowed factorization within the warm drift band of d0;
  /// on a hit installs it as the active factorization and returns true.
  bool try_factor_cache(double d0);
  bool iteration_structure_matches() const;
  void build_iteration_structure();
  void interpolate(double t, std::vector<double>& y_out);
  void predict(double t_new, std::vector<double>& y_pred);
  /// Profile entry in effect at time t (monotone cursor; t must not
  /// decrease between calls within one integration).
  std::size_t warm_index_at(double t);

  OdeSystem system_;
  IntegrationOptions options_;
  IntegrationStats stats_;

  std::deque<HistoryPoint> history_;  ///< newest first
  double h_ = 0.0;
  int order_ = 1;
  int accepts_at_order_ = 0;
  int consecutive_rejects_ = 0;

  linalg::Matrix jacobian_;
  linalg::LuFactorization lu_;
  linalg::CsrMatrix sparse_jacobian_;
  linalg::SparseLu sparse_lu_;
  /// The factorization Newton solves with: &sparse_lu_ after an own
  /// factorization, or a borrowed FactorCache entry after a cache hit.
  const linalg::SparseLu* active_sparse_lu_ = nullptr;
  const FactorCache* factor_cache_ = nullptr;
  FactorCache* factor_recorder_ = nullptr;
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

  // Accepted-step profile of the current integration (capture_warm_start)
  // and the borrowed profile steering it (set_warm_start).
  std::vector<double> profile_times_;
  std::vector<double> profile_steps_;
  std::vector<int> profile_orders_;
  const WarmStartProfile* warm_ = nullptr;
  std::size_t warm_cursor_ = 0;

  bool initialized_ = false;
};

}  // namespace rms::solver
