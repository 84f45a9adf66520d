// Numerical tests for the ODE solvers: exact-solution comparisons,
// convergence behaviour, stiff problems, interpolated dense output, and the
// Fornberg weight generator they are built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "solver/adams_gear.hpp"
#include "solver/fornberg.hpp"
#include "solver/rk_verner.hpp"

namespace rms::solver {
namespace {

TEST(Fornberg, FirstDerivativeOnUniformGrid) {
  // Central difference weights on {-1, 0, 1} at 0: [-1/2, 0, 1/2].
  const double x[] = {-1.0, 0.0, 1.0};
  std::vector<double> w;
  fornberg_weights(0.0, x, 3, 1, w);
  EXPECT_NEAR(w[3 + 0], -0.5, 1e-14);
  EXPECT_NEAR(w[3 + 1], 0.0, 1e-14);
  EXPECT_NEAR(w[3 + 2], 0.5, 1e-14);
  // Zeroth derivative at a node: delta.
  EXPECT_NEAR(w[0], 0.0, 1e-14);
  EXPECT_NEAR(w[1], 1.0, 1e-14);
  EXPECT_NEAR(w[2], 0.0, 1e-14);
}

TEST(Fornberg, BackwardEulerWeights) {
  // Nodes {t_n, t_{n-1}} = {1, 0}: derivative at 1 is y_n - y_{n-1} over h.
  const double x[] = {1.0, 0.0};
  std::vector<double> w;
  fornberg_weights(1.0, x, 2, 1, w);
  EXPECT_NEAR(w[2 + 0], 1.0, 1e-14);
  EXPECT_NEAR(w[2 + 1], -1.0, 1e-14);
}

TEST(Fornberg, Bdf2WeightsOnUniformGrid) {
  // BDF2: (3/2 y_n - 2 y_{n-1} + 1/2 y_{n-2}) / h.
  const double x[] = {2.0, 1.0, 0.0};
  std::vector<double> w;
  fornberg_weights(2.0, x, 3, 1, w);
  EXPECT_NEAR(w[3 + 0], 1.5, 1e-13);
  EXPECT_NEAR(w[3 + 1], -2.0, 1e-13);
  EXPECT_NEAR(w[3 + 2], 0.5, 1e-13);
}

TEST(Fornberg, InterpolatesPolynomialExactly) {
  // Zeroth-derivative weights reproduce cubic interpolation exactly.
  const double x[] = {0.0, 0.7, 1.9, 3.1};
  auto f = [](double t) { return 2 + t - 3 * t * t + 0.5 * t * t * t; };
  std::vector<double> w;
  fornberg_weights(1.3, x, 4, 0, w);
  double value = 0.0;
  for (int i = 0; i < 4; ++i) value += w[i] * f(x[i]);
  EXPECT_NEAR(value, f(1.3), 1e-12);
}

OdeSystem exponential_decay(double lambda) {
  return OdeSystem{1, [lambda](double, const double* y, double* ydot) {
                     ydot[0] = -lambda * y[0];
                   }};
}

/// Harmonic oscillator y'' = -y as a 2-d system; exact solution cos/sin.
OdeSystem oscillator() {
  return OdeSystem{2, [](double, const double* y, double* ydot) {
                     ydot[0] = y[1];
                     ydot[1] = -y[0];
                   }};
}

/// Classic stiff test (Prothero-Robinson-like): y' = -1000(y - cos t) - sin t,
/// exact solution y = cos t for y(0) = 1.
OdeSystem prothero_robinson() {
  return OdeSystem{1, [](double t, const double* y, double* ydot) {
                     ydot[0] = -1000.0 * (y[0] - std::cos(t)) - std::sin(t);
                   }};
}

/// Robertson chemical kinetics: the canonical stiff chemistry benchmark.
OdeSystem robertson() {
  return OdeSystem{3, [](double, const double* y, double* ydot) {
                     ydot[0] = -0.04 * y[0] + 1.0e4 * y[1] * y[2];
                     ydot[2] = 3.0e7 * y[1] * y[1];
                     ydot[1] = -ydot[0] - ydot[2];
                   }};
}

class BothSolvers : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<OdeSolver> make(OdeSystem system,
                                  IntegrationOptions options = {}) const {
    if (GetParam() == 0) {
      return std::make_unique<RungeKuttaVerner>(std::move(system), options);
    }
    return std::make_unique<AdamsGear>(std::move(system), options);
  }
};

TEST_P(BothSolvers, ExponentialDecayExact) {
  auto solver = make(exponential_decay(2.0));
  ASSERT_TRUE(solver->initialize(0.0, {1.0}).is_ok());
  std::vector<double> y;
  auto status = solver->advance_to(1.0, y);
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_NEAR(y[0], std::exp(-2.0), 5e-5);
}

TEST_P(BothSolvers, OscillatorPeriod) {
  IntegrationOptions options;
  options.relative_tolerance = 1e-8;
  options.absolute_tolerance = 1e-10;
  auto solver = make(oscillator(), options);
  ASSERT_TRUE(solver->initialize(0.0, {1.0, 0.0}).is_ok());
  std::vector<double> y;
  const double two_pi = 2.0 * 3.14159265358979323846;
  ASSERT_TRUE(solver->advance_to(two_pi, y).is_ok());
  EXPECT_NEAR(y[0], 1.0, 2e-4);
  EXPECT_NEAR(y[1], 0.0, 2e-4);
}

TEST_P(BothSolvers, DenseOutputMonotoneQueries) {
  auto solver = make(exponential_decay(1.0));
  ASSERT_TRUE(solver->initialize(0.0, {1.0}).is_ok());
  std::vector<double> y;
  for (int i = 1; i <= 50; ++i) {
    const double t = 0.05 * i;
    ASSERT_TRUE(solver->advance_to(t, y).is_ok());
    EXPECT_NEAR(y[0], std::exp(-t), 2e-4) << t;
  }
}

TEST_P(BothSolvers, RejectsBeforeInitialize) {
  auto solver = make(exponential_decay(1.0));
  std::vector<double> y;
  EXPECT_FALSE(solver->advance_to(1.0, y).is_ok());
}

TEST_P(BothSolvers, RejectsBackwardTargets) {
  // A target before the newest step's start (before t0 when no step has
  // been taken) would need extrapolation; both solvers refuse it. A target
  // the solver has already stepped past, inside the newest step, is fine.
  auto solver = make(exponential_decay(1.0));
  ASSERT_TRUE(solver->initialize(1.0, {1.0}).is_ok());
  std::vector<double> y;
  EXPECT_EQ(solver->advance_to(0.5, y).code(),
            support::StatusCode::kInvalidArgument);
  ASSERT_TRUE(solver->advance_to(1.0, y).is_ok());
  ASSERT_TRUE(solver->advance_to(10.0, y).is_ok());
  EXPECT_TRUE(solver->advance_to(10.0, y).is_ok());
  EXPECT_EQ(solver->advance_to(2.0, y).code(),
            support::StatusCode::kInvalidArgument);
}

TEST_P(BothSolvers, RejectsDimensionMismatch) {
  auto solver = make(exponential_decay(1.0));
  EXPECT_FALSE(solver->initialize(0.0, {1.0, 2.0}).is_ok());
}

TEST_P(BothSolvers, ReinitializeRestarts) {
  auto solver = make(exponential_decay(1.0));
  ASSERT_TRUE(solver->initialize(0.0, {1.0}).is_ok());
  std::vector<double> y;
  ASSERT_TRUE(solver->advance_to(1.0, y).is_ok());
  ASSERT_TRUE(solver->initialize(0.0, {2.0}).is_ok());
  ASSERT_TRUE(solver->advance_to(1.0, y).is_ok());
  EXPECT_NEAR(y[0], 2.0 * std::exp(-1.0), 1e-4);
}

TEST_P(BothSolvers, StatsAccumulate) {
  auto solver = make(exponential_decay(1.0));
  ASSERT_TRUE(solver->initialize(0.0, {1.0}).is_ok());
  std::vector<double> y;
  ASSERT_TRUE(solver->advance_to(1.0, y).is_ok());
  EXPECT_GT(solver->stats().steps, 0u);
  EXPECT_GT(solver->stats().rhs_evaluations, solver->stats().steps);
}

INSTANTIATE_TEST_SUITE_P(Methods, BothSolvers, ::testing::Values(0, 1),
                         [](const auto& info) {
                           return info.param == 0 ? "Verner" : "AdamsGear";
                         });

TEST(RungeKuttaVerner, ToleranceControlsError) {
  // Tighter tolerance must give a smaller error on a nontrivial problem.
  double errors[2];
  const double tols[2] = {1e-4, 1e-9};
  for (int i = 0; i < 2; ++i) {
    IntegrationOptions options;
    options.relative_tolerance = tols[i];
    options.absolute_tolerance = tols[i] * 1e-2;
    RungeKuttaVerner solver(oscillator(), options);
    ASSERT_TRUE(solver.initialize(0.0, {1.0, 0.0}).is_ok());
    std::vector<double> y;
    ASSERT_TRUE(solver.advance_to(10.0, y).is_ok());
    errors[i] = std::fabs(y[0] - std::cos(10.0));
  }
  EXPECT_LT(errors[1], errors[0]);
}

TEST(RungeKuttaVerner, SixthOrderAccuracyOnSmoothProblem) {
  IntegrationOptions options;
  options.relative_tolerance = 1e-10;
  options.absolute_tolerance = 1e-12;
  RungeKuttaVerner solver(exponential_decay(1.0), options);
  ASSERT_TRUE(solver.initialize(0.0, {1.0}).is_ok());
  std::vector<double> y;
  ASSERT_TRUE(solver.advance_to(2.0, y).is_ok());
  EXPECT_NEAR(y[0], std::exp(-2.0), 1e-9);
}

TEST(AdamsGear, StiffProtheroRobinson) {
  IntegrationOptions options;
  options.relative_tolerance = 1e-7;
  options.absolute_tolerance = 1e-10;
  AdamsGear solver(prothero_robinson(), options);
  ASSERT_TRUE(solver.initialize(0.0, {1.0}).is_ok());
  std::vector<double> y;
  auto status = solver.advance_to(5.0, y);
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_NEAR(y[0], std::cos(5.0), 1e-4);
  // A stiff solver must take far fewer steps than an explicit method whose
  // stability bound forces h ~ 2/1000.
  EXPECT_LT(solver.stats().steps, 2000u);
}

TEST(AdamsGear, RobertsonKinetics) {
  IntegrationOptions options;
  options.relative_tolerance = 1e-6;
  options.absolute_tolerance = 1e-10;
  AdamsGear solver(robertson(), options);
  ASSERT_TRUE(solver.initialize(0.0, {1.0, 0.0, 0.0}).is_ok());
  std::vector<double> y;
  auto status = solver.advance_to(100.0, y);
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  // Reference values (well-established for the Robertson problem at t=100).
  EXPECT_NEAR(y[0], 0.6172, 2e-3);
  EXPECT_NEAR(y[1], 6.153e-6, 2e-6);
  EXPECT_NEAR(y[2], 0.3828, 2e-3);
  // Mass conservation.
  EXPECT_NEAR(y[0] + y[1] + y[2], 1.0, 1e-6);
}

TEST(AdamsGear, OrderClimbsAboveOne) {
  AdamsGear solver(exponential_decay(1.0));
  ASSERT_TRUE(solver.initialize(0.0, {1.0}).is_ok());
  std::vector<double> y;
  ASSERT_TRUE(solver.advance_to(5.0, y).is_ok());
  EXPECT_GT(solver.current_order(), 1);
}

TEST(AdamsGear, StiffnessEfficiencyVersusExplicit) {
  // On a stiff problem the BDF solver needs dramatically fewer RHS
  // evaluations than the explicit Verner method.
  IntegrationOptions options;
  options.relative_tolerance = 1e-6;
  options.absolute_tolerance = 1e-9;
  options.max_steps_per_call = 2'000'000;

  AdamsGear gear(prothero_robinson(), options);
  ASSERT_TRUE(gear.initialize(0.0, {1.0}).is_ok());
  std::vector<double> y;
  ASSERT_TRUE(gear.advance_to(10.0, y).is_ok());

  RungeKuttaVerner rkv(prothero_robinson(), options);
  ASSERT_TRUE(rkv.initialize(0.0, {1.0}).is_ok());
  std::vector<double> y2;
  ASSERT_TRUE(rkv.advance_to(10.0, y2).is_ok());

  EXPECT_LT(gear.stats().rhs_evaluations, rkv.stats().rhs_evaluations / 2);
}

TEST(AdamsGear, JacobianReuse) {
  AdamsGear solver(robertson());
  ASSERT_TRUE(solver.initialize(0.0, {1.0, 0.0, 0.0}).is_ok());
  std::vector<double> y;
  ASSERT_TRUE(solver.advance_to(1.0, y).is_ok());
  // Modified Newton: far fewer Jacobian evaluations than steps.
  EXPECT_LT(solver.stats().jacobian_evaluations, solver.stats().steps);
}

/// Stiff linear cascade A -1e3-> B -1-> C with its constant CSR Jacobian.
OdeSystem sparse_linear_cascade() {
  OdeSystem system;
  system.dimension = 3;
  system.rhs = [](double, const double* y, double* ydot) {
    ydot[0] = -1.0e3 * y[0];
    ydot[1] = 1.0e3 * y[0] - y[1];
    ydot[2] = y[1];
  };
  system.sparse_jacobian = [](double, const double*, linalg::CsrMatrix& out) {
    out.rows = out.cols = 3;
    out.row_offsets = {0, 1, 3, 4};
    out.col_indices = {0, 0, 1, 1};
    out.values = {-1.0e3, 1.0e3, -1.0, 1.0};
  };
  return system;
}

TEST(AdamsGear, ReplayRetracesRecordedSteps) {
  IntegrationOptions options;
  options.newton_linear_solver = NewtonLinearSolver::kSparseLu;
  AdamsGear solver(sparse_linear_cascade(), options);
  const std::vector<double> y0 = {1.0, 0.0, 0.0};

  auto run_grid = [&](std::vector<double>& y_final) {
    auto status = solver.initialize(0.0, y0);
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    for (int j = 1; j <= 24; ++j) {
      status = solver.advance_to(5.0 * j / 24.0, y_final);
      ASSERT_TRUE(status.is_ok()) << status.to_string();
    }
  };

  StepRecording recording;
  solver.set_step_recorder(&recording);
  std::vector<double> y_recorded;
  run_grid(y_recorded);
  const IntegrationStats recorded = solver.stats();
  solver.set_step_recorder(nullptr);
  ASSERT_EQ(recording.steps.size(), recorded.steps);
  EXPECT_EQ(recording.updates.size(), 3 * recorded.steps);
  EXPECT_GT(recorded.factorizations, 1u);

  // Replaying the same system takes the same steps with no error test, no
  // rejection and no factorization, and lands on the recorded solution to
  // within the Newton tolerance.
  solver.set_replay(&recording);
  std::vector<double> y_replayed;
  run_grid(y_replayed);
  const IntegrationStats replayed = solver.stats();
  EXPECT_EQ(replayed.steps, recorded.steps);
  EXPECT_EQ(replayed.rejected_steps, 0u);
  EXPECT_EQ(replayed.factorizations, 0u);
  EXPECT_EQ(replayed.jacobian_evaluations, 0u);
  EXPECT_LT(replayed.newton_iterations, recorded.newton_iterations);
  for (int i = 0; i < 3; ++i) {
    const double bound = options.relative_tolerance * std::fabs(y_recorded[i]) +
                         options.absolute_tolerance;
    EXPECT_NEAR(y_replayed[i], y_recorded[i], bound) << "component " << i;
  }

  // A recording replays only from its own initial point.
  EXPECT_FALSE(solver.initialize(1.0, y0).is_ok());
  solver.set_replay(nullptr);
}

/// A small vulcanization-like mechanism: a sulfur pool S (species 0) adds
/// to polysulfide chains A_1..A_m (species 1..m) in fast reversible steps
/// A_i + S <-> A_{i+1}, and the longest chain crosslinks slowly (A_m -> X,
/// species m + 1). S couples to every chain species, as the sulfur and
/// accelerator species of the paper's models do, so the sparse LU's
/// fill-reducing order is far from the natural one. The analytic Jacobian
/// is offered both dense and on a fixed CSR pattern.
OdeSystem sulfur_chain(std::size_t m) {
  constexpr double kForward = 1.0e4;
  constexpr double kReverse = 10.0;
  constexpr double kCrosslink = 1.0;
  const std::size_t n = m + 2;
  // Fills the dense Jacobian at y, or with `structure` set marks every
  // entry some reaction contributes to with 1 (values can cancel).
  auto dense_jacobian = [m, n](const double* y, double* jac, bool structure) {
    std::fill(jac, jac + n * n, 0.0);
    auto add = [&](std::size_t row, std::size_t col, double v) {
      jac[row * n + col] = structure ? 1.0 : jac[row * n + col] + v;
    };
    for (std::size_t i = 1; i < m; ++i) {
      // A_i + S -> A_{i+1}: rate kForward * A_i * S.
      for (const auto& [row, sign] : {std::pair<std::size_t, double>{i, -1.0},
                                      {0, -1.0},
                                      {i + 1, 1.0}}) {
        add(row, i, sign * kForward * y[0]);
        add(row, 0, sign * kForward * y[i]);
      }
      // A_{i+1} -> A_i + S: rate kReverse * A_{i+1}.
      for (const auto& [row, sign] : {std::pair<std::size_t, double>{i + 1, -1.0},
                                      {i, 1.0},
                                      {0, 1.0}}) {
        add(row, i + 1, sign * kReverse);
      }
    }
    add(m, m, -kCrosslink);
    add(m + 1, m, kCrosslink);
  };

  OdeSystem system;
  system.dimension = n;
  system.rhs = [m](double, const double* y, double* ydot) {
    std::fill(ydot, ydot + m + 2, 0.0);
    for (std::size_t i = 1; i < m; ++i) {
      const double rate = kForward * y[i] * y[0] - kReverse * y[i + 1];
      ydot[i] -= rate;
      ydot[0] -= rate;
      ydot[i + 1] += rate;
    }
    ydot[m] -= kCrosslink * y[m];
    ydot[m + 1] += kCrosslink * y[m];
  };
  system.jacobian = [dense_jacobian](double, const double* y, double* jac) {
    dense_jacobian(y, jac, false);
  };
  std::vector<double> pattern(n * n);
  const std::vector<double> ones(n, 1.0);
  dense_jacobian(ones.data(), pattern.data(), true);
  system.sparse_jacobian = [dense_jacobian, pattern, n](
                               double, const double* y,
                               linalg::CsrMatrix& out) {
    std::vector<double> values(n * n);
    dense_jacobian(y, values.data(), false);
    out.rows = out.cols = n;
    out.row_offsets.assign(1, 0);
    out.col_indices.clear();
    out.values.clear();
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        if (pattern[r * n + c] == 0.0) continue;
        out.col_indices.push_back(static_cast<std::uint32_t>(c));
        out.values.push_back(values[r * n + c]);
      }
      out.row_offsets.push_back(
          static_cast<std::uint32_t>(out.col_indices.size()));
    }
  };
  return system;
}

TEST(AdamsGear, SparseLuTrajectoryMatchesDenseLu) {
  // Differential oracle for the sparse LU inside the integrator: the same
  // analytic Jacobian factored by the reordered sparse LU and by dense LU.
  // Rounding differs, so step sequences may part; both runs are within the
  // global error of the true solution, a small multiple of the local
  // tolerance rtol * |y| + atol.
  const std::size_t m = 40;
  IntegrationOptions options;
  options.relative_tolerance = 1e-6;
  options.absolute_tolerance = 1e-9;
  std::vector<double> y0(m + 2, 0.0);
  y0[0] = 2.0;
  y0[1] = 1.0;

  std::vector<double> finals[2];
  IntegrationStats stats[2];
  const NewtonLinearSolver lanes[2] = {NewtonLinearSolver::kDenseLu,
                                       NewtonLinearSolver::kSparseLu};
  for (int lane = 0; lane < 2; ++lane) {
    options.newton_linear_solver = lanes[lane];
    AdamsGear solver(sulfur_chain(m), options);
    ASSERT_TRUE(solver.initialize(0.0, y0).is_ok());
    const auto status = solver.advance_to(20.0, finals[lane]);
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    stats[lane] = solver.stats();
  }
  EXPECT_GT(stats[1].factorizations, 0u);
  EXPECT_EQ(stats[1].jacobian_evaluations, stats[0].jacobian_evaluations);
  double sulfur_mass = 0.0;
  for (std::size_t i = 0; i < m + 2; ++i) {
    const double bound = 10.0 * (options.relative_tolerance *
                                     std::fabs(finals[0][i]) +
                                 options.absolute_tolerance);
    EXPECT_NEAR(finals[1][i], finals[0][i], bound) << "species " << i;
    // Sulfur atoms: S counts 1, A_i carries i - 1, X carries m - 1.
    const double atoms = i == 0 ? 1.0 : static_cast<double>(std::min(i, m) - 1);
    sulfur_mass += atoms * finals[1][i];
  }
  EXPECT_NEAR(sulfur_mass, y0[0], 10.0 * options.relative_tolerance * y0[0]);
}

TEST(AdamsGear, StepsOverDenseRecordGrid) {
  // 400 records over the sulfur chain's cure, far denser than its solution
  // needs: h follows the error controller, not the record grid, so the
  // solve takes fewer accepted steps than there are records and
  // interpolates the rest (measured: 252 steps; a solve that shortens h to
  // land on every record takes 600). Every record agrees with an rtol 1e-10
  // solve within the global error of the default tolerance, a small
  // multiple of rtol * |y| + atol (measured: 10.9 such units at worst, in
  // the fast transient; 11.1 for the record-clamped solve).
  const std::size_t m = 40;
  std::vector<double> y0(m + 2, 0.0);
  y0[0] = 2.0;
  y0[1] = 1.0;
  std::vector<double> times;
  for (int j = 1; j <= 400; ++j) times.push_back(20.0 * j / 400.0);

  IntegrationOptions options;
  options.newton_linear_solver = NewtonLinearSolver::kSparseLu;
  IntegrationOptions tight = options;
  tight.relative_tolerance = 1e-10;
  tight.absolute_tolerance = 1e-14;
  AdamsGear solver(sulfur_chain(m), options);
  AdamsGear reference(sulfur_chain(m), tight);
  ASSERT_TRUE(solver.initialize(0.0, y0).is_ok());
  ASSERT_TRUE(reference.initialize(0.0, y0).is_ok());
  std::vector<double> y;
  std::vector<double> y_ref;
  double worst = 0.0;  // largest error in units of rtol * |y| + atol
  for (const double t : times) {
    auto status = solver.advance_to(t, y);
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    status = reference.advance_to(t, y_ref);
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    for (std::size_t i = 0; i < y.size(); ++i) {
      worst = std::max(worst, std::fabs(y[i] - y_ref[i]) /
                                  (options.relative_tolerance *
                                       std::fabs(y_ref[i]) +
                                   options.absolute_tolerance));
    }
  }
  EXPECT_LT(worst, 20.0);
  EXPECT_LT(solver.stats().steps, times.size());
}

void expect_same_work(const IntegrationStats& a, const IntegrationStats& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.rejected_steps, b.rejected_steps);
  EXPECT_EQ(a.rhs_evaluations, b.rhs_evaluations);
  EXPECT_EQ(a.jacobian_evaluations, b.jacobian_evaluations);
  EXPECT_EQ(a.factorizations, b.factorizations);
  EXPECT_EQ(a.newton_iterations, b.newton_iterations);
}

TEST(AdamsGear, ObservedOutputMatchesMeasuredState) {
  // The projected output against measuring the interpolated state: the
  // same Fornberg weights, applied after the linear projection instead of
  // before it. Steps are not clamped to records, so most records fall
  // inside step interiors.
  const std::size_t m = 40;
  const std::size_t n = m + 2;
  std::vector<double> y0(n, 0.0);
  y0[0] = 2.0;
  y0[1] = 1.0;
  Observable spread;  // every species, mixed signs
  for (std::size_t i = 0; i < n; ++i) {
    const double golden = 0.6180339887498949 * static_cast<double>(i + 1);
    const double sign = i % 3 == 0 ? -1.0 : 1.0;
    spread.weighted_species.emplace_back(
        i, sign * (0.5 + golden - std::floor(golden)));
  }
  Observable crosslinks;  // one species, weight 1
  crosslinks.weighted_species = {{m + 1, 1.0}};
  std::vector<double> times;
  for (int j = 0; j <= 400; ++j) times.push_back(20.0 * j / 400.0);

  IntegrationOptions options;
  options.newton_linear_solver = NewtonLinearSolver::kSparseLu;
  AdamsGear solver(sulfur_chain(m), options);

  struct Pass {
    std::vector<double> values;
    std::vector<double> scales;  ///< sum_i |w_i y_i| (state passes only)
    std::size_t interior_records = 0;
    IntegrationStats stats;
  };
  // One pass over the record grid reading either the observed output or the
  // measured interpolated state.
  auto run = [&](const Observable& output, bool observed) {
    Pass pass;
    solver.set_output(&output);
    EXPECT_TRUE(solver.initialize(0.0, y0).is_ok());
    std::vector<double> y;
    for (const double t : times) {
      double value = 0.0;
      const support::Status status = observed
                                         ? solver.advance_to_observed(t, value)
                                         : solver.advance_to(t, y);
      EXPECT_TRUE(status.is_ok()) << status.to_string();
      if (!status.is_ok()) break;
      if (!observed) {
        value = output.measure(y);
        double scale = 0.0;
        for (const auto& [index, weight] : output.weighted_species) {
          scale += std::fabs(weight * y[index]);
        }
        pass.scales.push_back(scale);
      }
      pass.values.push_back(value);
      if (solver.current_time() > t) ++pass.interior_records;
    }
    pass.stats = solver.stats();
    return pass;
  };

  for (const Observable* output : {&spread, &crosslinks}) {
    const Pass state = run(*output, false);
    const Pass observed = run(*output, true);
    ASSERT_EQ(observed.values.size(), times.size());
    ASSERT_EQ(state.values.size(), times.size());
    expect_same_work(observed.stats, state.stats);
    EXPECT_EQ(observed.interior_records, state.interior_records);
    EXPECT_GT(observed.interior_records, times.size() / 2);
    for (std::size_t j = 0; j < times.size(); ++j) {
      if (output == &crosslinks) {
        // One weight-1 term: the same operations in the same order.
        EXPECT_EQ(observed.values[j], state.values[j]) << "record " << j;
      } else {
        EXPECT_NEAR(observed.values[j], state.values[j],
                    1e-12 * state.scales[j])
            << "record " << j;
      }
    }
  }
}

TEST(AdamsGear, ObservedOutputRequiresAnInstalledOutput) {
  AdamsGear solver(exponential_decay(1.0));
  ASSERT_TRUE(solver.initialize(0.0, {1.0}).is_ok());
  double value = 0.0;
  EXPECT_EQ(solver.advance_to_observed(0.5, value).code(),
            support::StatusCode::kFailedPrecondition);
}

// Property sweep: for both solvers, tightening the tolerance by 100x per
// step must monotonically reduce the actual error on the oscillator.
class ToleranceScaling
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ToleranceScaling, ErrorTracksTolerance) {
  const auto [method, exponent] = GetParam();
  const double rtol = std::pow(10.0, -exponent);
  IntegrationOptions options;
  options.relative_tolerance = rtol;
  options.absolute_tolerance = rtol * 1e-2;
  std::unique_ptr<OdeSolver> solver;
  if (method == 0) {
    solver = std::make_unique<RungeKuttaVerner>(oscillator(), options);
  } else {
    solver = std::make_unique<AdamsGear>(oscillator(), options);
  }
  ASSERT_TRUE(solver->initialize(0.0, {1.0, 0.0}).is_ok());
  std::vector<double> y;
  ASSERT_TRUE(solver->advance_to(5.0, y).is_ok());
  const double error = std::fabs(y[0] - std::cos(5.0));
  // The realized error tracks the requested tolerance within a generous
  // slack factor (local-vs-global error, order effects).
  EXPECT_LT(error, rtol * 2e3) << "rtol=" << rtol;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ToleranceScaling,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Values(4, 6, 8)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == 0 ? "Verner" : "Gear") +
             "_rtol1em" + std::to_string(std::get<1>(info.param));
    });

TEST(ErrorNorm, WeightedRms) {
  std::vector<double> error = {0.1, 0.2};
  std::vector<double> y = {1.0, 1.0};
  // scale = atol + rtol*|y| = 0.1 + 0.1 = ... with rtol=0.1, atol=0.1:
  const double norm = error_norm(error, y, 0.1, 0.1);
  // ratios: 0.5, 1.0 -> rms = sqrt((0.25 + 1)/2).
  EXPECT_NEAR(norm, std::sqrt(0.625), 1e-12);
}

}  // namespace
}  // namespace rms::solver
