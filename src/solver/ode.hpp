// Common ODE-solver interface (the role of the IMSL solver managers).
//
// Both solvers integrate y' = f(t, y) from an initial state, advancing to
// caller-requested output times; values at an output time inside the last
// internal step are produced by interpolation, so a caller asking for 3000
// closely spaced sample times (the experimental-data comparison loop of
// Fig. 9) does not force 3000 tiny steps. That loop only needs one linear
// Observable of the state per record, so the Adams-Gear solver can project
// each history point onto it once, as the point is accepted, and
// interpolate the projected scalars: a record then costs O(order) instead
// of O(n * order) (AdamsGear::advance_to_observed).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "linalg/sparse.hpp"
#include "support/status.hpp"

namespace rms::solver {

/// Fills the dense row-major Jacobian J[i*n+j] = df_i/dy_j.
using JacobianFn =
    std::function<void(double t, const double* y, double* jacobian)>;

/// Fills a CSR Jacobian (structure + values). The pattern may stay fixed
/// across calls (chemistry Jacobians do), but the solver does not rely on
/// that.
using SparseJacobianFn =
    std::function<void(double t, const double* y, linalg::CsrMatrix& jacobian)>;

/// Batched right-hand side: evaluates n independent states in one call.
/// `ys` and `ydots` are row-major with stride `dimension` (lane l's state
/// is ys + l*dimension). vm::Interpreter::run_batch_shared_k provides this
/// in one cache-resident pass over the bytecode tape.
using RhsBatchFn = std::function<void(double t, const double* ys,
                                      double* ydots, std::size_t n)>;

/// Right-hand side dy/dt = f(t, y). `ydot` has `dimension` entries.
struct OdeSystem {
  std::size_t dimension = 0;
  std::function<void(double t, const double* y, double* ydot)> rhs;
  /// Optional analytic dense Jacobian (e.g. codegen::CompiledJacobian);
  /// when absent, implicit solvers fall back to forward differences.
  JacobianFn jacobian;
  /// Optional analytic sparse Jacobian — required by the kSparseLu Newton
  /// strategy (codegen::SparseJacobianEvaluator provides it directly from
  /// the compiled CSR structure).
  SparseJacobianFn sparse_jacobian;
  /// Optional batched RHS. When present, implicit solvers build their
  /// finite-difference Jacobians from chunked batch evaluations instead of
  /// n + 1 scalar sweeps.
  RhsBatchFn rhs_batch;
};

/// A measured property as a linear combination of species concentrations
/// (e.g. total crosslink concentration = sum over crosslink species).
struct Observable {
  std::vector<std::pair<std::size_t, double>> weighted_species;

  [[nodiscard]] double measure(const std::vector<double>& y) const {
    double total = 0.0;
    for (const auto& [index, weight] : weighted_species) {
      total += weight * y[index];
    }
    return total;
  }
};

/// How the implicit solver solves its Newton linear systems.
enum class NewtonLinearSolver {
  /// Dense finite-difference (or analytic) Jacobian + LU. Robust; the
  /// factorization is O(n^3), right up to a few thousand equations.
  kDenseLu,
  /// Jacobian-free Newton-Krylov: unpreconditioned GMRES with directional
  /// finite-difference J*v products. No Jacobian storage or factorization —
  /// the option that scales to the 10^5-equation systems of Table 1.
  kMatrixFreeGmres,
  /// Sparse direct LU on the analytic sparse Jacobian (requires
  /// OdeSystem::sparse_jacobian). Fill-proportional cost: the robustness of
  /// a direct method at a fraction of the dense O(n^3).
  kSparseLu,
};

struct IntegrationOptions {
  double relative_tolerance = 1e-6;
  double absolute_tolerance = 1e-9;
  /// Initial step size; 0 picks one automatically.
  double initial_step = 0.0;
  double min_step = 1e-14;
  std::size_t max_steps_per_call = 10'000'000;
  /// Maximum BDF order (Adams-Gear solver only), 1..5.
  int max_order = 5;
  NewtonLinearSolver newton_linear_solver = NewtonLinearSolver::kDenseLu;
  /// Relative residual target for the inner GMRES solves.
  double krylov_tolerance = 1e-5;
};

struct IntegrationStats {
  std::size_t steps = 0;
  std::size_t rejected_steps = 0;
  std::size_t rhs_evaluations = 0;
  std::size_t jacobian_evaluations = 0;
  std::size_t factorizations = 0;
  std::size_t newton_iterations = 0;
  /// Always 0: no solve starts from an earlier solve's state any more. Kept
  /// only until the end-to-end benchmark stops reading it.
  std::size_t warm_starts = 0;
  /// Always 0: no solve borrows an earlier solve's factorizations any more.
  /// Kept only until the end-to-end benchmark stops reading it.
  std::size_t factor_cache_hits = 0;

  IntegrationStats& operator+=(const IntegrationStats& other) {
    steps += other.steps;
    rejected_steps += other.rejected_steps;
    rhs_evaluations += other.rhs_evaluations;
    jacobian_evaluations += other.jacobian_evaluations;
    factorizations += other.factorizations;
    newton_iterations += other.newton_iterations;
    warm_starts += other.warm_starts;
    factor_cache_hits += other.factor_cache_hits;
    return *this;
  }
};

/// Abstract solver: initialize once, then advance to increasing times.
class OdeSolver {
 public:
  virtual ~OdeSolver() = default;

  /// (Re)starts the integration at (t0, y0).
  virtual support::Status initialize(double t0,
                                     const std::vector<double>& y0) = 0;

  /// Integrates forward and writes y(t_target) to `y_out`. t_target must be
  /// >= the current time.
  virtual support::Status advance_to(double t_target,
                                     std::vector<double>& y_out) = 0;

  [[nodiscard]] virtual double current_time() const = 0;
  [[nodiscard]] virtual const IntegrationStats& stats() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Weighted RMS error norm used by both step controllers:
/// sqrt(mean((e_i / (atol + rtol * |y_i|))^2)).
double error_norm(const std::vector<double>& error, const std::vector<double>& y,
                  double rtol, double atol);

}  // namespace rms::solver
