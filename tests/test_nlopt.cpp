// Tests for the bounded Levenberg-Marquardt optimizer.
#include <gtest/gtest.h>

#include <cmath>

#include "nlopt/levmar.hpp"
#include "support/rng.hpp"

namespace rms::nlopt {
namespace {

using linalg::Vector;
using support::Status;

TEST(LevMar, SolvesLinearLeastSquares) {
  // r = A x - b with known solution.
  auto residuals = [](const Vector& x, Vector& r) -> Status {
    r.resize(3);
    r[0] = 2 * x[0] + x[1] - 5;   // -> x = (1, 3)
    r[1] = x[0] + 3 * x[1] - 10;
    r[2] = x[0] - x[1] + 2;
    return Status::ok();
  };
  Vector lower = {-10, -10};
  Vector upper = {10, 10};
  auto result = bounded_least_squares(residuals, 3, {0.0, 0.0}, lower, upper);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result->converged) << result->message;
  EXPECT_NEAR(result->x[0], 1.0, 1e-5);
  EXPECT_NEAR(result->x[1], 3.0, 1e-5);
}

TEST(LevMar, RosenbrockAsLeastSquares) {
  // Classic: r = (10(x1 - x0^2), 1 - x0); minimum at (1, 1).
  auto residuals = [](const Vector& x, Vector& r) -> Status {
    r.resize(2);
    r[0] = 10.0 * (x[1] - x[0] * x[0]);
    r[1] = 1.0 - x[0];
    return Status::ok();
  };
  Vector lower = {-5, -5};
  Vector upper = {5, 5};
  auto result =
      bounded_least_squares(residuals, 2, {-1.2, 1.0}, lower, upper);
  ASSERT_TRUE(result.is_ok());
  EXPECT_NEAR(result->x[0], 1.0, 1e-4);
  EXPECT_NEAR(result->x[1], 1.0, 1e-4);
  EXPECT_LT(result->cost, 1e-10);
}

TEST(LevMar, ExponentialFit) {
  // Fit y = a * exp(-b t) to noiseless synthetic samples; recover (a, b).
  std::vector<double> ts;
  std::vector<double> ys;
  for (int i = 0; i <= 20; ++i) {
    const double t = 0.1 * i;
    ts.push_back(t);
    ys.push_back(2.5 * std::exp(-1.3 * t));
  }
  auto residuals = [&](const Vector& x, Vector& r) -> Status {
    r.resize(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      r[i] = x[0] * std::exp(-x[1] * ts[i]) - ys[i];
    }
    return Status::ok();
  };
  Vector lower = {0.1, 0.1};
  Vector upper = {10, 10};
  auto result =
      bounded_least_squares(residuals, ts.size(), {1.0, 1.0}, lower, upper);
  ASSERT_TRUE(result.is_ok());
  EXPECT_NEAR(result->x[0], 2.5, 1e-4);
  EXPECT_NEAR(result->x[1], 1.3, 1e-4);
}

TEST(LevMar, RespectsBounds) {
  // Unconstrained minimum at x = 5, but the box caps x at 2.
  auto residuals = [](const Vector& x, Vector& r) -> Status {
    r.resize(1);
    r[0] = x[0] - 5.0;
    return Status::ok();
  };
  Vector lower = {0.0};
  Vector upper = {2.0};
  auto result = bounded_least_squares(residuals, 1, {1.0}, lower, upper);
  ASSERT_TRUE(result.is_ok());
  EXPECT_NEAR(result->x[0], 2.0, 1e-9);
  // The binding bound means the projected gradient is zero: converged.
  EXPECT_TRUE(result->converged) << result->message;
}

TEST(LevMar, ClampsOutOfBoundsStart) {
  auto residuals = [](const Vector& x, Vector& r) -> Status {
    r.resize(1);
    r[0] = x[0] - 1.0;
    return Status::ok();
  };
  Vector lower = {0.0};
  Vector upper = {3.0};
  auto result = bounded_least_squares(residuals, 1, {99.0}, lower, upper);
  ASSERT_TRUE(result.is_ok());
  EXPECT_NEAR(result->x[0], 1.0, 1e-6);
}

TEST(LevMar, BoundAwareFdStepNeverZeroAndFeasible) {
  const double rel = 1e-4;
  // Interior point: plain relative forward step.
  EXPECT_DOUBLE_EQ(bound_aware_fd_step(1.0, 0.0, 10.0, rel), rel);
  // Parameter exactly on the upper bound: the forward step would leave the
  // box, so it flips backward (and stays nonzero).
  EXPECT_DOUBLE_EQ(bound_aware_fd_step(10.0, 0.0, 10.0, rel), -rel * 10.0);
  // Exactly on the lower bound: forward fits, stays forward.
  EXPECT_GT(bound_aware_fd_step(0.0, 0.0, 10.0, rel), 0.0);
  // Box narrower than the step on both sides: shrink to the wider side.
  const double lo = 1.0 - 1e-6;
  const double hi = 1.0 + 5e-7;
  EXPECT_DOUBLE_EQ(bound_aware_fd_step(1.0, lo, hi, rel), -(1.0 - lo));
  // Zero-width box: the parameter is pinned but the step must stay nonzero
  // (a zero step would produce 0/0 columns).
  EXPECT_NE(bound_aware_fd_step(2.0, 2.0, 2.0, rel), 0.0);
}

TEST(LevMar, JacobianPerturbationsStayInsideTheBox) {
  // Regression: a parameter starting exactly on a bound used to get a
  // forward-difference perturbation outside the box. Residuals here are
  // only defined inside the bounds (like an ODE objective that diverges
  // for out-of-range rate constants), so any out-of-box probe fails the
  // whole fit.
  auto residuals = [](const Vector& x, Vector& r) -> Status {
    if (x[0] < 0.0 || x[0] > 2.0) {
      return support::invalid_argument("evaluated outside the box");
    }
    r.resize(1);
    r[0] = x[0] - 1.0;
    return Status::ok();
  };
  Vector lower = {0.0};
  Vector upper = {2.0};
  // Start exactly on the upper bound.
  auto result = bounded_least_squares(residuals, 1, {2.0}, lower, upper);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_NEAR(result->x[0], 1.0, 1e-6);
}

TEST(LevMar, RejectsBadBounds) {
  auto residuals = [](const Vector&, Vector& r) -> Status {
    r.resize(1);
    r[0] = 0.0;
    return Status::ok();
  };
  EXPECT_FALSE(
      bounded_least_squares(residuals, 1, {0.0}, {1.0}, {-1.0}).is_ok());
  EXPECT_FALSE(
      bounded_least_squares(residuals, 1, {0.0}, {0.0, 1.0}, {1.0}).is_ok());
}

TEST(LevMar, RejectsUnderdeterminedProblem) {
  auto residuals = [](const Vector&, Vector& r) -> Status {
    r.resize(1);
    r[0] = 0.0;
    return Status::ok();
  };
  Vector lower = {-1, -1};
  Vector upper = {1, 1};
  EXPECT_FALSE(
      bounded_least_squares(residuals, 1, {0.0, 0.0}, lower, upper).is_ok());
}

TEST(LevMar, PropagatesResidualError) {
  auto residuals = [](const Vector&, Vector&) -> Status {
    return support::numeric_error("solver blew up");
  };
  Vector lower = {-1};
  Vector upper = {1};
  auto result = bounded_least_squares(residuals, 1, {0.0}, lower, upper);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), support::StatusCode::kNumericError);
}

TEST(LevMar, NonFiniteStartResidualIsAnError) {
  // r_1 = sqrt(x_1 - 2) is NaN at x0 = (0, 0): not a converged fit.
  auto residuals = [](const Vector& x, Vector& r) -> Status {
    r = {x[0] - 1.0, std::sqrt(x[1] - 2.0)};
    return Status::ok();
  };
  Vector lower = {-10, -10};
  Vector upper = {10, 10};
  auto result = bounded_least_squares(residuals, 2, {0.0, 0.0}, lower, upper);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), support::StatusCode::kNumericError);
  EXPECT_NE(result.status().to_string().find("residual 1"), std::string::npos)
      << result.status().to_string();
}

TEST(LevMar, NonFiniteJacobianColumnIsAnError) {
  // The start point is finite, but any step up in x_1 gives a NaN
  // residual, so the forward-difference column 1 is NaN. The fit stops
  // there instead of growing lambda over failed steps.
  std::size_t calls = 0;
  auto residuals = [&calls](const Vector& x, Vector& r) -> Status {
    ++calls;
    r = {x[0] - 1.0, x[1] > 0.0 ? std::nan("") : x[0] + x[1] - 0.5};
    return Status::ok();
  };
  Vector lower = {-10, -10};
  Vector upper = {10, 10};
  auto result = bounded_least_squares(residuals, 2, {0.0, 0.0}, lower, upper);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), support::StatusCode::kNumericError);
  EXPECT_NE(result.status().to_string().find("column 1"), std::string::npos)
      << result.status().to_string();
  EXPECT_EQ(calls, 3u);  // x0 and the two columns; no trial point
}

TEST(LevMar, ParameterWithoutEffectStaysPut) {
  // y = a exp(-b t) with a third parameter the residual ignores: its
  // Jacobian column is zero, J is rank deficient, and the fit still
  // converges with that parameter where it started.
  std::vector<double> ts;
  std::vector<double> ys;
  for (int i = 0; i <= 20; ++i) {
    const double t = 0.1 * i;
    ts.push_back(t);
    ys.push_back(2.5 * std::exp(-1.3 * t));
  }
  auto residuals = [&](const Vector& x, Vector& r) -> Status {
    r.resize(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      r[i] = x[0] * std::exp(-x[2] * ts[i]) - ys[i];
    }
    return Status::ok();
  };
  Vector lower = {0, -5, 0};
  Vector upper = {10, 5, 10};
  auto result = bounded_least_squares(residuals, ts.size(), {1.0, 0.3, 0.5},
                                      lower, upper);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result->converged) << result->message;
  EXPECT_NEAR(result->x[0], 2.5, 1e-5);
  EXPECT_NEAR(result->x[2], 1.3, 1e-5);
  EXPECT_NEAR(result->x[1], 0.3, 1e-12);
}

TEST(LevMar, FailedTrialPointGrowsLambda) {
  // r(x) = x^2 - 4 from x = 0.5: the first, nearly undamped Gauss-Newton
  // step lands near x = 4.25, where the residual fails (a model that cannot
  // be solved there). Rejecting it grows lambda until the step stays below
  // x = 3, and the fit reaches the optimum x = 2.
  std::size_t failures = 0;
  auto residuals = [&failures](const Vector& x, Vector& r) -> Status {
    if (x[0] > 3.0) {
      ++failures;
      return support::numeric_error("solver blew up");
    }
    r = {x[0] * x[0] - 4.0};
    return Status::ok();
  };
  Vector lower = {-10};
  Vector upper = {10};
  auto result = bounded_least_squares(residuals, 1, {0.5}, lower, upper);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_GT(failures, 0u);
  EXPECT_TRUE(result->converged) << result->message;
  EXPECT_NEAR(result->x[0], 2.0, 1e-6);
}

TEST(LevMar, ExhaustedLambdaNamesLastTrialError) {
  // The start point and its Jacobian column solve; every trial point fails.
  std::size_t calls = 0;
  auto residuals = [&calls](const Vector& x, Vector& r) -> Status {
    if (++calls > 2) return support::numeric_error("solver blew up");
    r = {x[0] * x[0] - 4.0};
    return Status::ok();
  };
  Vector lower = {-10};
  Vector upper = {10};
  auto result = bounded_least_squares(residuals, 1, {0.5}, lower, upper);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_FALSE(result->converged);
  EXPECT_EQ(result->x[0], 0.5);
  EXPECT_NE(result->message.find("solver blew up"), std::string::npos)
      << result->message;
}

TEST(LevMar, ChiSquareStopEndsNoisyFit) {
  // y = 2.5 exp(-1.3 t) plus uniform noise: the fit has a noise floor.
  // With cost_tolerance = 1 it stops once a step moves chi-square by less
  // than 1, at the constants the untested fit reaches too; with the default
  // 0 the test never fires.
  support::Xoshiro256 rng(5);
  std::vector<double> ts;
  std::vector<double> ys;
  for (int i = 0; i <= 40; ++i) {
    const double t = 0.05 * i;
    ts.push_back(t);
    ys.push_back(2.5 * std::exp(-1.3 * t) + rng.uniform(-0.01, 0.01));
  }
  auto residuals = [&](const Vector& x, Vector& r) -> Status {
    r.resize(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      r[i] = x[0] * std::exp(-x[1] * ts[i]) - ys[i];
    }
    return Status::ok();
  };
  const Vector lower = {0.1, 0.1};
  const Vector upper = {10, 10};
  LevMarOptions options;
  options.max_iterations = 100;
  const auto untested =
      bounded_least_squares(residuals, ts.size(), {1.0, 1.0}, lower, upper,
                            options);
  ASSERT_TRUE(untested.is_ok());
  EXPECT_NE(untested->message, "cost reduction below tolerance");

  options.cost_tolerance = 1.0;
  const auto stopped =
      bounded_least_squares(residuals, ts.size(), {1.0, 1.0}, lower, upper,
                            options);
  ASSERT_TRUE(stopped.is_ok());
  EXPECT_TRUE(stopped->converged);
  EXPECT_EQ(stopped->message, "cost reduction below tolerance");
  EXPECT_LT(stopped->iterations, options.max_iterations);
  // Within chi-square 1 of the minimum: the cost is above it by at most
  // cost / (m - n), and the constants agree well inside their noise.
  EXPECT_LE(stopped->cost - untested->cost,
            untested->cost / static_cast<double>(ts.size() - 2));
  EXPECT_NEAR(stopped->x[0], untested->x[0], 1e-3);
  EXPECT_NEAR(stopped->x[1], untested->x[1], 1e-3);
}

// Property sweep: random well-conditioned linear problems are solved to
// near-exactness from random starts.
class LevMarProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LevMarProperty, RandomLinearProblems) {
  support::Xoshiro256 rng(GetParam());
  const std::size_t n = 3;
  const std::size_t m = 8;
  std::vector<std::vector<double>> a(m, std::vector<double>(n));
  for (auto& row : a) {
    for (double& v : row) v = rng.uniform(-2.0, 2.0);
  }
  Vector x_true(n);
  for (double& v : x_true) v = rng.uniform(-0.8, 0.8);
  std::vector<double> b(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) b[i] += a[i][j] * x_true[j];
  }
  auto residuals = [&](const Vector& x, Vector& r) -> Status {
    r.assign(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) r[i] += a[i][j] * x[j];
      r[i] -= b[i];
    }
    return Status::ok();
  };
  Vector lower(n, -1.0);
  Vector upper(n, 1.0);
  Vector x0(n);
  for (double& v : x0) v = rng.uniform(-1.0, 1.0);
  auto result = bounded_least_squares(residuals, m, x0, lower, upper);
  ASSERT_TRUE(result.is_ok());
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(result->x[j], x_true[j], 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevMarProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace rms::nlopt
