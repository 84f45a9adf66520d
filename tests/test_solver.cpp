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

/// Robertson with the analytic sparse Jacobian (full 3x3 pattern), driving
/// the sparse-direct Newton path the estimator uses for large models.
OdeSystem sparse_robertson() {
  OdeSystem system = robertson();
  system.sparse_jacobian = [](double, const double* y, linalg::CsrMatrix& out) {
    out.rows = out.cols = 3;
    out.row_offsets = {0, 3, 6, 9};
    out.col_indices = {0, 1, 2, 0, 1, 2, 0, 1, 2};
    out.values = {-0.04, 1.0e4 * y[2],               1.0e4 * y[1],
                  0.04,  -1.0e4 * y[2] - 6.0e7 * y[1], -1.0e4 * y[1],
                  0.0,   6.0e7 * y[1],                0.0};
  };
  return system;
}

TEST(AdamsGear, WarmStartMatchesColdAccuracyOverRecordGrid) {
  IntegrationOptions options;
  options.newton_linear_solver = NewtonLinearSolver::kSparseLu;
  AdamsGear solver(sparse_robertson(), options);

  auto run_grid = [&](std::vector<double>& y_final) {
    auto status = solver.initialize(0.0, {1.0, 0.0, 0.0});
    ASSERT_TRUE(status.is_ok());
    for (int j = 1; j <= 24; ++j) {
      status = solver.advance_to(100.0 * j / 24.0, y_final);
      ASSERT_TRUE(status.is_ok()) << status.to_string();
    }
  };

  std::vector<double> y_cold;
  run_grid(y_cold);
  WarmStartProfile profile;
  solver.capture_warm_start(profile);
  ASSERT_FALSE(profile.empty());

  solver.set_warm_start(&profile);
  std::vector<double> y_warm;
  run_grid(y_warm);
  const IntegrationStats warm = solver.stats();
  solver.set_warm_start(nullptr);

  EXPECT_EQ(warm.warm_starts, 1u);
  // Same answer at solver tolerance; the error controller still validates
  // every warm step.
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(y_warm[i], y_cold[i], 1e-5) << "component " << i;
  }
  EXPECT_NEAR(y_warm[0] + y_warm[1] + y_warm[2], 1.0, 1e-6);
}

TEST(AdamsGear, FactorCacheReuseCutsFactorizations) {
  IntegrationOptions options;
  options.newton_linear_solver = NewtonLinearSolver::kSparseLu;
  AdamsGear solver(sparse_robertson(), options);

  auto run_grid = [&](std::vector<double>& y_final) {
    auto status = solver.initialize(0.0, {1.0, 0.0, 0.0});
    ASSERT_TRUE(status.is_ok());
    for (int j = 1; j <= 24; ++j) {
      status = solver.advance_to(100.0 * j / 24.0, y_final);
      ASSERT_TRUE(status.is_ok()) << status.to_string();
    }
  };

  // Recording solve: every factorization lands in the cache.
  FactorCache cache;
  solver.set_factor_recorder(&cache);
  std::vector<double> y_cold;
  run_grid(y_cold);
  const IntegrationStats cold = solver.stats();
  WarmStartProfile profile;
  solver.capture_warm_start(profile);
  solver.set_factor_recorder(nullptr);
  ASSERT_FALSE(cache.empty());
  EXPECT_LE(cache.entries.size(), cold.factorizations);

  // Reusing solve: borrowed factorizations stand in for refactorization.
  solver.set_warm_start(&profile);
  solver.set_factor_cache(&cache);
  std::vector<double> y_warm;
  run_grid(y_warm);
  const IntegrationStats warm = solver.stats();
  solver.set_warm_start(nullptr);
  solver.set_factor_cache(nullptr);

  EXPECT_GT(warm.factor_cache_hits, 0u);
  EXPECT_LT(warm.factorizations, cold.factorizations);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(y_warm[i], y_cold[i], 1e-5) << "component " << i;
  }
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
