// Tests for the parallel objective function (Fig. 9) and the parameter
// estimator: residual layouts, parallel == sequential, load-balanced
// schedules, and ground-truth parameter recovery on synthetic data.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "codegen/bytecode_emitter.hpp"
#include "codegen/jacobian.hpp"
#include "data/synthetic.hpp"
#include "estimator/estimator.hpp"
#include "estimator/objective.hpp"
#include "expr/product.hpp"
#include "odegen/equation_table.hpp"
#include "opt/pipeline.hpp"
#include "vm/interpreter.hpp"

namespace rms::estimator {
namespace {

using expr::Product;
using expr::VarId;

/// Tiny kinetic model: A -k0-> B -k1-> C. Observable: [C].
struct TinyModel {
  vm::Program program;
  codegen::CompiledJacobian jacobian;
  data::Observable observable;
  std::vector<double> true_rates = {1.2, 0.6};

  TinyModel() {
    odegen::EquationTable table(3);
    table.equation(0).add_combining(
        Product(-1.0, {VarId::rate_const(0), VarId::species(0)}));
    table.equation(1).add_combining(
        Product(1.0, {VarId::rate_const(0), VarId::species(0)}));
    table.equation(1).add_combining(
        Product(-1.0, {VarId::rate_const(1), VarId::species(1)}));
    table.equation(2).add_combining(
        Product(1.0, {VarId::rate_const(1), VarId::species(1)}));
    opt::OptimizedSystem system = opt::optimize(table, 3, 2);
    program = codegen::emit_optimized(system);
    jacobian = codegen::compile_jacobian(table, 3, 2);
    observable.weighted_species = {{2, 1.0}};
  }

  /// Synthesizes an experiment for a formulation with initial [A] = a0.
  Experiment make_experiment(double a0, std::size_t records,
                             double noise = 0.0, std::uint64_t seed = 1) {
    vm::Interpreter interp(program);
    const std::vector<double> rates = true_rates;
    solver::OdeSystem system{3, [&](double t, const double* y, double* ydot) {
                               interp.run(t, y, rates.data(), ydot);
                             }};
    data::SyntheticOptions options;
    options.t_end = 5.0;
    options.record_count = records;
    options.noise_level = noise;
    options.noise_seed = seed;
    Experiment e;
    e.initial_state = {a0, 0.0, 0.0};
    auto result = data::synthesize_experiment(system, e.initial_state,
                                              observable, options);
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
    e.data = std::move(result).value();
    return e;
  }
};

TEST(Objective, ZeroResidualAtTrueParameters) {
  TinyModel model;
  std::vector<Experiment> experiments;
  experiments.push_back(model.make_experiment(1.0, 60));
  experiments.push_back(model.make_experiment(0.5, 60));
  ObjectiveFunction objective(model.program, model.observable,
                              std::move(experiments), {0, 1},
                              model.true_rates);
  linalg::Vector r;
  ASSERT_TRUE(
      objective.evaluate({model.true_rates[0], model.true_rates[1]}, r)
          .is_ok());
  EXPECT_EQ(r.size(), objective.residual_size());
  for (double v : r) EXPECT_NEAR(v, 0.0, 1e-4);
}

TEST(Objective, WrongParametersGiveNonzeroResiduals) {
  TinyModel model;
  std::vector<Experiment> experiments;
  experiments.push_back(model.make_experiment(1.0, 60));
  ObjectiveFunction objective(model.program, model.observable,
                              std::move(experiments), {0, 1},
                              model.true_rates);
  linalg::Vector r;
  ASSERT_TRUE(objective.evaluate({2.5, 0.1}, r).is_ok());
  double norm = 0.0;
  for (double v : r) norm += v * v;
  EXPECT_GT(norm, 1e-4);
}

TEST(Objective, GlobalPerTimestepLayoutSumsAcrossFiles) {
  TinyModel model;
  std::vector<Experiment> experiments;
  experiments.push_back(model.make_experiment(1.0, 40));
  experiments.push_back(model.make_experiment(1.0, 40));  // identical file
  ObjectiveOptions options;
  options.layout = ResidualLayout::kGlobalPerTimestep;
  ObjectiveFunction objective(model.program, model.observable, experiments,
                              {0, 1}, model.true_rates, options);
  EXPECT_EQ(objective.residual_size(), 40u);
  linalg::Vector r;
  ASSERT_TRUE(objective.evaluate({2.0, 0.3}, r).is_ok());

  // One identical file alone gives exactly half the summed error.
  ObjectiveFunction single(model.program, model.observable,
                           {experiments[0]}, {0, 1}, model.true_rates,
                           options);
  linalg::Vector r1;
  ASSERT_TRUE(single.evaluate({2.0, 0.3}, r1).is_ok());
  for (std::size_t j = 0; j < 40; ++j) {
    EXPECT_NEAR(r[j], 2.0 * r1[j], 1e-9);
  }
}

TEST(Objective, RecordsPerFileSolveTimes) {
  TinyModel model;
  std::vector<Experiment> experiments;
  for (int i = 0; i < 4; ++i) {
    experiments.push_back(model.make_experiment(0.5 + 0.25 * i, 50));
  }
  ObjectiveFunction objective(model.program, model.observable,
                              std::move(experiments), {0, 1},
                              model.true_rates);
  linalg::Vector r;
  ASSERT_TRUE(objective.evaluate({1.0, 0.5}, r).is_ok());
  ASSERT_EQ(objective.last_file_times().size(), 4u);
  for (double t : objective.last_file_times()) EXPECT_GT(t, 0.0);
}

TEST(Objective, PoolWorkersMatchSequential) {
  TinyModel model;
  std::vector<Experiment> experiments;
  for (int i = 0; i < 6; ++i) {
    experiments.push_back(model.make_experiment(0.4 + 0.2 * i, 40));
  }
  ObjectiveFunction sequential(model.program, model.observable, experiments,
                               {0, 1}, model.true_rates);
  ObjectiveOptions parallel_options;
  parallel_options.pool_workers = 3;
  ObjectiveFunction parallel(model.program, model.observable, experiments,
                             {0, 1}, model.true_rates, parallel_options);
  linalg::Vector r_seq;
  linalg::Vector r_par;
  ASSERT_TRUE(sequential.evaluate({1.5, 0.4}, r_seq).is_ok());
  ASSERT_TRUE(parallel.evaluate({1.5, 0.4}, r_par).is_ok());
  ASSERT_EQ(r_seq.size(), r_par.size());
  for (std::size_t i = 0; i < r_seq.size(); ++i) {
    EXPECT_EQ(r_seq[i], r_par[i]) << i;
  }
}

TEST(Objective, DynamicLoadBalancingUsesRecordedTimes) {
  TinyModel model;
  std::vector<Experiment> experiments;
  // Files with very different sizes -> very different solve times.
  experiments.push_back(model.make_experiment(1.0, 400));
  experiments.push_back(model.make_experiment(1.0, 40));
  experiments.push_back(model.make_experiment(1.0, 40));
  experiments.push_back(model.make_experiment(1.0, 400));
  ObjectiveOptions options;
  options.pool_workers = 2;
  options.dynamic_load_balancing = true;
  ObjectiveFunction objective(model.program, model.observable,
                              std::move(experiments), {0, 1},
                              model.true_rates, options);
  linalg::Vector r;
  // First call: block schedule (no times yet) puts both heavy files on
  // opposite... block puts {0,1} on rank0 and {2,3} on rank1.
  ASSERT_TRUE(objective.evaluate({1.0, 0.5}, r).is_ok());
  const auto first = objective.last_assignment();
  EXPECT_EQ(first[0], 0);
  EXPECT_EQ(first[3], 1);
  // Second call: LPT on the recorded times must separate the two heavy
  // files onto different ranks.
  ASSERT_TRUE(objective.evaluate({1.0, 0.5}, r).is_ok());
  const auto second = objective.last_assignment();
  EXPECT_NE(second[0], second[3]);
}

TEST(Objective, ReportsLowestIndexFailingFileForAnyWorkerCount) {
  TinyModel model;
  std::vector<Experiment> experiments;
  for (int i = 0; i < 4; ++i) {
    experiments.push_back(model.make_experiment(0.5 + 0.25 * i, 40));
    experiments.back().data.name = "formulation-" + std::to_string(i);
  }
  // Files 1 and 3 cannot be solved: their initial state has the wrong size.
  experiments[1].initial_state.push_back(0.0);
  experiments[3].initial_state.pop_back();
  for (int workers : {0, 1, 2, 8}) {
    ObjectiveOptions options;
    options.pool_workers = workers;
    ObjectiveFunction objective(model.program, model.observable, experiments,
                                {0, 1}, model.true_rates, options);
    linalg::Vector r;
    const support::Status eval = objective.evaluate({1.0, 0.5}, r);
    ASSERT_FALSE(eval.is_ok()) << workers;
    EXPECT_EQ(eval.code(), support::StatusCode::kInvalidArgument);
    EXPECT_EQ(eval.message().rfind("file 1 (formulation-1): ", 0), 0u)
        << workers << ": " << eval.message();

    const linalg::Vector x = {1.0, 0.5};
    const linalg::Vector base(objective.residual_size(), 0.0);
    linalg::Matrix jacobian(objective.residual_size(), 2);
    const support::Status jac =
        objective.evaluate_jacobian(x, base, {1e-4, 1e-4}, jacobian);
    ASSERT_FALSE(jac.is_ok()) << workers;
    EXPECT_EQ(jac.message(), eval.message()) << workers;
  }
}

TEST(Objective, ParameterCountValidated) {
  TinyModel model;
  std::vector<Experiment> experiments;
  experiments.push_back(model.make_experiment(1.0, 30));
  ObjectiveFunction objective(model.program, model.observable,
                              std::move(experiments), {0, 1},
                              model.true_rates);
  linalg::Vector r;
  EXPECT_FALSE(objective.evaluate({1.0}, r).is_ok());
}

TEST(Objective, JacobianShapeValidated) {
  // A mis-sized matrix is refused before any solve, not written out of
  // bounds.
  TinyModel model;
  std::vector<Experiment> experiments;
  experiments.push_back(model.make_experiment(1.0, 30));
  ObjectiveFunction objective(model.program, model.observable,
                              std::move(experiments), {0, 1},
                              model.true_rates);
  const linalg::Vector x = {1.0, 0.5};
  linalg::Vector r;
  ASSERT_TRUE(objective.evaluate(x, r).is_ok());
  const std::size_t solves = objective.solver_stats().solves;
  const std::size_t m = objective.residual_size();
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{m, 1}, {m - 1, 2}, {0, 0}}) {
    linalg::Matrix jacobian(rows, cols);
    EXPECT_EQ(objective.evaluate_jacobian(x, r, {1e-4, 1e-4}, jacobian).code(),
              support::StatusCode::kInvalidArgument)
        << rows << " x " << cols;
  }
  EXPECT_EQ(objective.solver_stats().solves, solves);
  linalg::Matrix jacobian(m, 2);
  EXPECT_TRUE(objective.evaluate_jacobian(x, r, {1e-4, 1e-4}, jacobian).is_ok());
}

TEST(Estimator, RecoversGroundTruthParameters) {
  TinyModel model;
  std::vector<Experiment> experiments;
  experiments.push_back(model.make_experiment(1.0, 80));
  experiments.push_back(model.make_experiment(0.5, 80));
  ObjectiveFunction objective(model.program, model.observable,
                              std::move(experiments), {0, 1},
                              model.true_rates);
  auto result = estimate_parameters(objective, {0.5, 0.2}, {0.01, 0.01},
                                    {10.0, 10.0});
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_NEAR(result->rate_constants[0], model.true_rates[0], 5e-3);
  EXPECT_NEAR(result->rate_constants[1], model.true_rates[1], 5e-3);
  EXPECT_LT(result->final_cost, 1e-6);
}

TEST(Estimator, RecoveryWithNoisyData) {
  TinyModel model;
  std::vector<Experiment> experiments;
  for (int i = 0; i < 4; ++i) {
    experiments.push_back(
        model.make_experiment(0.5 + 0.3 * i, 120, 0.005, 100 + i));
  }
  ObjectiveFunction objective(model.program, model.observable,
                              std::move(experiments), {0, 1},
                              model.true_rates);
  auto result = estimate_parameters(objective, {2.0, 0.2}, {0.01, 0.01},
                                    {10.0, 10.0});
  ASSERT_TRUE(result.is_ok());
  EXPECT_NEAR(result->rate_constants[0], model.true_rates[0], 0.05);
  EXPECT_NEAR(result->rate_constants[1], model.true_rates[1], 0.05);
}

TEST(Estimator, BoundsConstrainTheFit) {
  TinyModel model;
  std::vector<Experiment> experiments;
  experiments.push_back(model.make_experiment(1.0, 60));
  ObjectiveFunction objective(model.program, model.observable,
                              std::move(experiments), {0, 1},
                              model.true_rates);
  // [C](t) in the A->B->C cascade is symmetric under k0<->k1, so capping
  // only k0 would just select the swapped exact solution. Cap BOTH below
  // the true fast constant (1.2): no exact fit exists inside the box, so
  // the optimizer must end on the boundary with a nonzero cost.
  auto result =
      estimate_parameters(objective, {0.5, 0.5}, {0.01, 0.01}, {0.8, 0.8});
  ASSERT_TRUE(result.is_ok());
  EXPECT_LE(result->rate_constants[0], 0.8 + 1e-12);
  EXPECT_LE(result->rate_constants[1], 0.8 + 1e-12);
  const double max_k =
      std::max(result->rate_constants[0], result->rate_constants[1]);
  EXPECT_NEAR(max_k, 0.8, 0.05);
  EXPECT_GT(result->final_cost, 1e-8);
}

TEST(Estimator, SubsetOfParametersEstimated) {
  TinyModel model;
  std::vector<Experiment> experiments;
  experiments.push_back(model.make_experiment(1.0, 80));
  // Only k1 estimated; k0 fixed at the true value via base rates.
  ObjectiveFunction objective(model.program, model.observable,
                              std::move(experiments), {1},
                              model.true_rates);
  auto result = estimate_parameters(objective, {0.1}, {0.01}, {10.0});
  ASSERT_TRUE(result.is_ok());
  EXPECT_NEAR(result->rate_constants[0], model.true_rates[1], 5e-3);
}

TEST(Objective, JacobianHookMatchesSerialPerturbedEvaluations) {
  TinyModel model;
  std::vector<Experiment> experiments;
  experiments.push_back(model.make_experiment(1.0, 40));
  experiments.push_back(model.make_experiment(0.5, 30));
  ObjectiveFunction objective(model.program, model.observable,
                              std::move(experiments), {0, 1},
                              model.true_rates);
  const linalg::Vector x = {1.1, 0.45};
  const linalg::Vector steps = {1e-4, -2e-5};
  const std::size_t m = objective.residual_size();
  linalg::Vector r0;
  ASSERT_TRUE(objective.evaluate(x, r0).is_ok());
  linalg::Matrix jacobian(m, 2);
  ASSERT_TRUE(objective.evaluate_jacobian(x, r0, steps, jacobian).is_ok());
  // Reference: the serial per-column loop the optimizer would otherwise
  // run. Both paths solve identical systems independently (the dense path
  // records nothing to replay), so the columns must match bit for bit.
  for (std::size_t c = 0; c < 2; ++c) {
    linalg::Vector x_pert = x;
    x_pert[c] += steps[c];
    linalg::Vector r_pert;
    ASSERT_TRUE(objective.evaluate(x_pert, r_pert).is_ok());
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_DOUBLE_EQ(jacobian(i, c), (r_pert[i] - r0[i]) / steps[c]);
    }
  }
}

TEST(Objective, PoolBitIdenticalAcrossWorkerCounts) {
  TinyModel model;
  // Worker counts 0 (inline), 1, 2, 8: residuals and Jacobians must agree
  // to the bit.
  struct Run {
    linalg::Vector r;
    linalg::Matrix jacobian{0, 0};
  };
  auto run = [&](int workers) {
    std::vector<Experiment> experiments;
    experiments.push_back(model.make_experiment(1.0, 50));
    experiments.push_back(model.make_experiment(0.5, 30));
    experiments.push_back(model.make_experiment(0.25, 20));
    ObjectiveOptions options;
    options.pool_workers = workers;
    options.dynamic_load_balancing = true;
    ObjectiveFunction objective(model.program, model.observable,
                                std::move(experiments), {0, 1},
                                model.true_rates, options);
    Run out;
    out.jacobian = linalg::Matrix(objective.residual_size(), 2);
    // Two evaluations plus a Jacobian.
    EXPECT_TRUE(objective.evaluate({1.0, 0.5}, out.r).is_ok());
    EXPECT_TRUE(objective.evaluate({1.1, 0.45}, out.r).is_ok());
    const linalg::Vector steps = {1.1e-4, 4.5e-5};
    EXPECT_TRUE(
        objective.evaluate_jacobian({1.1, 0.45}, out.r, steps, out.jacobian)
            .is_ok());
    return out;
  };
  const Run baseline = run(0);
  for (int workers : {1, 2, 8}) {
    const Run other = run(workers);
    ASSERT_EQ(other.r.size(), baseline.r.size());
    for (std::size_t i = 0; i < baseline.r.size(); ++i) {
      EXPECT_EQ(other.r[i], baseline.r[i]) << "worker count " << workers;
    }
    for (std::size_t i = 0; i < baseline.jacobian.rows(); ++i) {
      for (std::size_t j = 0; j < baseline.jacobian.cols(); ++j) {
        EXPECT_EQ(other.jacobian(i, j), baseline.jacobian(i, j))
            << "worker count " << workers;
      }
    }
  }
}

/// Objectives for the column-replay tests: three files of TinyModel on the
/// sparse-LU path (the only one that records steps).
struct ReplayFixture {
  TinyModel model;

  std::vector<Experiment> experiments() {
    std::vector<Experiment> out;
    out.push_back(model.make_experiment(1.0, 50));
    out.push_back(model.make_experiment(0.5, 30));
    out.push_back(model.make_experiment(0.25, 20));
    return out;
  }

  std::unique_ptr<ObjectiveFunction> make(int workers = 0,
                                          bool warm_start = false) {
    ObjectiveOptions options;
    options.pool_workers = workers;
    options.warm_start = warm_start;
    options.dynamic_load_balancing = true;
    options.compiled_jacobian = &model.jacobian;
    return std::make_unique<ObjectiveFunction>(
        model.program, model.observable, experiments(),
        std::vector<std::uint32_t>{0, 1}, model.true_rates, options);
  }

  /// Column c of the independent-solve Jacobian at x: a fresh objective
  /// evaluates x + steps[c] e_c. An independent column solve borrows
  /// nothing from earlier solves, so it computes exactly this.
  linalg::Vector independent_column(const linalg::Vector& x,
                                    const linalg::Vector& r,
                                    const linalg::Vector& steps,
                                    std::size_t c) {
    auto objective = make();
    linalg::Vector x_pert = x;
    x_pert[c] += steps[c];
    linalg::Vector r_pert;
    EXPECT_TRUE(objective->evaluate(x_pert, r_pert).is_ok());
    linalg::Vector column(r.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
      column[i] = (r_pert[i] - r[i]) * (1.0 / steps[c]);
    }
    return column;
  }
};

TEST(Objective, ReplayBitIdenticalAcrossWorkerCounts) {
  // The sparse-LU twin of PoolBitIdenticalAcrossWorkerCounts: the second
  // evaluation records its steps, and the Jacobian at the same x replays
  // them. r and J must agree to the bit for any worker count.
  ReplayFixture fixture;
  struct Run {
    linalg::Vector r;
    linalg::Matrix jacobian{0, 0};
    SolverStats stats;
  };
  auto run = [&](int workers) {
    auto objective = fixture.make(workers);
    Run out;
    out.jacobian = linalg::Matrix(objective->residual_size(), 2);
    EXPECT_TRUE(objective->evaluate({1.0, 0.5}, out.r).is_ok());
    EXPECT_TRUE(objective->evaluate({1.1, 0.45}, out.r).is_ok());
    const linalg::Vector steps = {1.1e-4, 4.5e-5};
    EXPECT_TRUE(
        objective->evaluate_jacobian({1.1, 0.45}, out.r, steps, out.jacobian)
            .is_ok());
    out.stats = objective->solver_stats();
    return out;
  };
  const Run baseline = run(0);
  EXPECT_EQ(baseline.stats.replayed_solves, 6u);  // 2 columns x 3 files
  EXPECT_EQ(baseline.stats.replay_fallbacks, 0u);
  for (int workers : {1, 2, 8}) {
    const Run other = run(workers);
    ASSERT_EQ(other.r.size(), baseline.r.size());
    for (std::size_t i = 0; i < baseline.r.size(); ++i) {
      EXPECT_EQ(other.r[i], baseline.r[i]) << "worker count " << workers;
    }
    for (std::size_t i = 0; i < baseline.jacobian.rows(); ++i) {
      for (std::size_t j = 0; j < baseline.jacobian.cols(); ++j) {
        EXPECT_EQ(other.jacobian(i, j), baseline.jacobian(i, j))
            << "worker count " << workers;
      }
    }
    EXPECT_EQ(other.stats.replayed_solves, baseline.stats.replayed_solves);
    EXPECT_EQ(other.stats.integration.newton_iterations,
              baseline.stats.integration.newton_iterations);
  }
}

TEST(Objective, ReplayedColumnsTrackCentralDifferences) {
  // Derivative oracle: central differences of solves at rtol 1e-10.
  // Forward differences at the estimator's 1e-4 relative step carry an
  // O(1e-4) truncation error; on top of that the replayed columns
  // difference two solves on one grid at rtol 1e-6. Bound: the largest
  // entry error within 1e-3 of the largest entry (0.744). Replay is kept
  // because it is faster, not because it is more accurate: with every solve
  // history-free, the largest entry error measured 1.25e-4 replayed
  // against 3.7e-5 for independent columns (1.7e-4 and 5.0e-5 of the
  // largest entry).
  ReplayFixture fixture;
  const linalg::Vector x0 = {1.0, 0.5};
  const linalg::Vector x = {1.1, 0.45};
  const linalg::Vector steps = {1.1e-4, 4.5e-5};
  auto objective = fixture.make();
  linalg::Vector r;
  ASSERT_TRUE(objective->evaluate(x0, r).is_ok());
  ASSERT_TRUE(objective->evaluate(x, r).is_ok());
  const std::size_t m = r.size();
  linalg::Matrix replayed(m, 2);
  ASSERT_TRUE(objective->evaluate_jacobian(x, r, steps, replayed).is_ok());
  ASSERT_EQ(objective->solver_stats().replayed_solves, 6u);

  ObjectiveOptions tight;
  tight.integration.relative_tolerance = 1e-10;
  tight.integration.absolute_tolerance = 1e-14;
  ObjectiveFunction reference(fixture.model.program, fixture.model.observable,
                              fixture.experiments(), {0, 1},
                              fixture.model.true_rates, tight);
  double replayed_error = 0.0;
  double scale = 0.0;
  for (std::size_t c = 0; c < 2; ++c) {
    const double h = 1e-3 * x[c];
    linalg::Vector plus = x;
    linalg::Vector minus = x;
    plus[c] += h;
    minus[c] -= h;
    linalg::Vector r_plus;
    linalg::Vector r_minus;
    ASSERT_TRUE(reference.evaluate(plus, r_plus).is_ok());
    ASSERT_TRUE(reference.evaluate(minus, r_minus).is_ok());
    for (std::size_t i = 0; i < m; ++i) {
      const double exact = (r_plus[i] - r_minus[i]) / (2.0 * h);
      scale = std::max(scale, std::fabs(exact));
      replayed_error =
          std::max(replayed_error, std::fabs(replayed(i, c) - exact));
    }
  }
  ASSERT_GT(scale, 0.0);
  EXPECT_LE(replayed_error, 1e-3 * scale);
}

TEST(Objective, JacobianAwayFromLastEvaluationSolvesColumnsIndependently) {
  // The recording belongs to the last evaluated point; a Jacobian anywhere
  // else must be exactly the independent-column one.
  ReplayFixture fixture;
  const std::vector<linalg::Vector> history = {{1.0, 0.5}, {1.05, 0.48}};
  const linalg::Vector x = {1.1, 0.45};
  const linalg::Vector steps = {1.1e-4, 4.5e-5};
  auto objective = fixture.make();
  linalg::Vector r;
  for (const linalg::Vector& point : history) {
    ASSERT_TRUE(objective->evaluate(point, r).is_ok());
  }
  linalg::Matrix jacobian(r.size(), 2);
  ASSERT_TRUE(objective->evaluate_jacobian(x, r, steps, jacobian).is_ok());
  EXPECT_EQ(objective->solver_stats().replayed_solves, 0u);
  EXPECT_EQ(objective->solver_stats().replay_fallbacks, 0u);
  for (std::size_t c = 0; c < 2; ++c) {
    const linalg::Vector column =
        fixture.independent_column(x, r, steps, c);
    for (std::size_t i = 0; i < r.size(); ++i) {
      EXPECT_EQ(jacobian(i, c), column[i]) << "row " << i << " column " << c;
    }
  }
}

TEST(Objective, FailedReplayFallsBackToIndependentColumns) {
  // Steps this large move the trajectory far enough from the recorded one
  // that a replayed Newton iteration no longer converges on the recorded
  // factorizations; those columns must come out exactly as independent
  // solves.
  ReplayFixture fixture;
  const std::vector<linalg::Vector> history = {{1.0, 0.5}, {1.1, 0.45}};
  const linalg::Vector& x = history.back();
  const linalg::Vector steps = {30.0, 20.0};
  auto objective = fixture.make();
  linalg::Vector r;
  for (const linalg::Vector& point : history) {
    ASSERT_TRUE(objective->evaluate(point, r).is_ok());
  }
  linalg::Matrix jacobian(r.size(), 2);
  ASSERT_TRUE(objective->evaluate_jacobian(x, r, steps, jacobian).is_ok());
  EXPECT_EQ(objective->solver_stats().replay_fallbacks, 6u);
  EXPECT_EQ(objective->solver_stats().replayed_solves, 0u);
  for (std::size_t c = 0; c < 2; ++c) {
    const linalg::Vector column =
        fixture.independent_column(x, r, steps, c);
    for (std::size_t i = 0; i < r.size(); ++i) {
      EXPECT_EQ(jacobian(i, c), column[i]) << "row " << i << " column " << c;
    }
  }
}

TEST(Objective, EvaluateIsIndependentOfEvaluationHistory) {
  // Every solve starts from the file's initial state and borrows nothing
  // from earlier solves: evaluate(x) is the same whatever the objective
  // evaluated before it, with or without ObjectiveOptions::warm_start.
  ReplayFixture fixture;
  const linalg::Vector x0 = {1.0, 0.5};
  const linalg::Vector x1 = {1.05, 0.48};
  const linalg::Vector x = {1.1, 0.45};
  const linalg::Vector steps = {1.0e-4, 5.0e-5};
  for (const bool warm_start : {false, true}) {
    SCOPED_TRACE(warm_start ? "warm_start" : "no warm_start");
    linalg::Vector fresh;
    ASSERT_TRUE(fixture.make(2, warm_start)->evaluate(x, fresh).is_ok());

    auto objective = fixture.make(2, warm_start);
    linalg::Vector r;
    ASSERT_TRUE(objective->evaluate(x0, r).is_ok());
    linalg::Matrix jacobian(r.size(), 2);
    ASSERT_TRUE(objective->evaluate_jacobian(x0, r, steps, jacobian).is_ok());
    ASSERT_TRUE(objective->evaluate(x1, r).is_ok());
    ASSERT_TRUE(objective->evaluate(x, r).is_ok());
    ASSERT_EQ(r.size(), fresh.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
      EXPECT_EQ(r[i], fresh[i]) << "residual " << i;
    }
  }
}

TEST(Objective, FirstJacobianReplays) {
  // The first evaluate() of a fit records its steps like every other, so
  // the first Jacobian replays every column.
  ReplayFixture fixture;
  const linalg::Vector x = {1.1, 0.45};
  const linalg::Vector steps = {1.1e-4, 4.5e-5};
  for (const bool warm_start : {false, true}) {
    SCOPED_TRACE(warm_start ? "warm_start" : "no warm_start");
    auto objective = fixture.make(0, warm_start);
    linalg::Vector r;
    ASSERT_TRUE(objective->evaluate(x, r).is_ok());
    linalg::Matrix jacobian(r.size(), 2);
    ASSERT_TRUE(objective->evaluate_jacobian(x, r, steps, jacobian).is_ok());
    EXPECT_EQ(objective->solver_stats().replayed_solves,
              2u * objective->experiment_count());
    EXPECT_EQ(objective->solver_stats().replay_fallbacks, 0u);
  }
}

TEST(Objective, WarmStartOptionHasNoEffect) {
  // ObjectiveOptions::warm_start is read nowhere: r and J agree to the bit
  // with it on and off.
  ReplayFixture fixture;
  const linalg::Vector x0 = {1.0, 0.5};
  const linalg::Vector x = {1.1, 0.45};
  const linalg::Vector steps = {1.1e-4, 4.5e-5};
  linalg::Vector r[2];
  linalg::Matrix jacobian[2] = {linalg::Matrix(0, 0), linalg::Matrix(0, 0)};
  for (int warm = 0; warm < 2; ++warm) {
    auto objective = fixture.make(2, warm == 1);
    ASSERT_TRUE(objective->evaluate(x0, r[warm]).is_ok());
    ASSERT_TRUE(objective->evaluate(x, r[warm]).is_ok());
    jacobian[warm] = linalg::Matrix(r[warm].size(), 2);
    ASSERT_TRUE(
        objective->evaluate_jacobian(x, r[warm], steps, jacobian[warm])
            .is_ok());
  }
  ASSERT_EQ(r[0].size(), r[1].size());
  for (std::size_t i = 0; i < r[0].size(); ++i) {
    EXPECT_EQ(r[1][i], r[0][i]) << "residual " << i;
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(jacobian[1](i, c), jacobian[0](i, c))
          << "row " << i << " column " << c;
    }
  }
}

TEST(Estimator, PoolDeterministicEndToEnd) {
  TinyModel model;
  auto run = [&](int workers) {
    std::vector<Experiment> experiments;
    experiments.push_back(model.make_experiment(1.0, 60));
    experiments.push_back(model.make_experiment(0.5, 60));
    experiments.push_back(model.make_experiment(0.75, 40));
    ObjectiveOptions options;
    options.pool_workers = workers;
    options.dynamic_load_balancing = true;
    // Sparse-direct Newton path: Jacobian columns replay the base solve's
    // recorded steps.
    options.compiled_jacobian = &model.jacobian;
    ObjectiveFunction objective(model.program, model.observable,
                                std::move(experiments), {0, 1},
                                model.true_rates, options);
    auto result = estimate_parameters(objective, {0.5, 0.2}, {0.01, 0.01},
                                      {10.0, 10.0});
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
    return std::move(result).value();
  };
  const EstimationResult baseline = run(0);
  EXPECT_NEAR(baseline.rate_constants[0], model.true_rates[0], 5e-3);
  EXPECT_NEAR(baseline.rate_constants[1], model.true_rates[1], 5e-3);
  EXPECT_GT(baseline.solver_stats.solves, 0u);
  EXPECT_GT(baseline.solver_stats.replayed_solves, 0u);
  for (int workers : {1, 2, 8}) {
    const EstimationResult other = run(workers);
    // Bit-identical optimization trajectory for any worker count.
    ASSERT_EQ(other.rate_constants.size(), baseline.rate_constants.size());
    for (std::size_t i = 0; i < baseline.rate_constants.size(); ++i) {
      EXPECT_EQ(other.rate_constants[i], baseline.rate_constants[i])
          << "worker count " << workers;
    }
    EXPECT_EQ(other.final_cost, baseline.final_cost);
    EXPECT_EQ(other.iterations, baseline.iterations);
    EXPECT_EQ(other.objective_evaluations, baseline.objective_evaluations);
    EXPECT_EQ(other.solver_stats.solves, baseline.solver_stats.solves);
    EXPECT_EQ(other.solver_stats.integration.steps,
              baseline.solver_stats.integration.steps);
    EXPECT_EQ(other.solver_stats.integration.factorizations,
              baseline.solver_stats.integration.factorizations);
    EXPECT_EQ(other.solver_stats.replayed_solves,
              baseline.solver_stats.replayed_solves);
    EXPECT_EQ(other.solver_stats.replay_fallbacks,
              baseline.solver_stats.replay_fallbacks);
  }
}

/// Four noisy files on the sparse-LU path: the fit has a noise floor and its
/// Jacobians replay.
std::unique_ptr<ObjectiveFunction> noisy_objective(TinyModel& model) {
  std::vector<Experiment> experiments;
  for (int i = 0; i < 4; ++i) {
    experiments.push_back(
        model.make_experiment(0.5 + 0.3 * i, 120, 0.005, 100 + i));
  }
  ObjectiveOptions options;
  options.compiled_jacobian = &model.jacobian;
  return std::make_unique<ObjectiveFunction>(
      model.program, model.observable, std::move(experiments),
      std::vector<std::uint32_t>{0, 1}, model.true_rates, options);
}

TEST(Estimator, NoisyFitStopsAtChiSquareFloor) {
  // EstimatorOptions turns the chi-square stop on: once a step moves
  // chi-square by less than 1, the fit ends as converged instead of
  // growing lambda toward max_lambda on noise.
  TinyModel model;
  auto objective = noisy_objective(model);
  EstimatorOptions options;
  options.levmar.max_iterations = 50;
  auto result = estimate_parameters(*objective, {2.0, 0.2}, {0.01, 0.01},
                                    {10.0, 10.0}, options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->message, "cost reduction below tolerance");
  EXPECT_LT(result->iterations, options.levmar.max_iterations);
  EXPECT_NEAR(result->rate_constants[0], model.true_rates[0], 0.05);
  EXPECT_NEAR(result->rate_constants[1], model.true_rates[1], 0.05);
  EXPECT_GT(result->solver_stats.replayed_solves, 0u);
}

TEST(Estimator, StopsAtSameIterationAsBoundedLeastSquares) {
  // estimate_parameters is bounded_least_squares over the objective's two
  // hooks with EstimatorOptions::levmar; called either way, the fit must
  // take the same path and stop at the same iteration.
  TinyModel model;
  const EstimatorOptions options;
  auto direct_objective = noisy_objective(model);
  auto estimated = estimate_parameters(*direct_objective, {2.0, 0.2},
                                       {0.01, 0.01}, {10.0, 10.0}, options);
  ASSERT_TRUE(estimated.is_ok());

  auto objective = noisy_objective(model);
  auto residual_fn = [&](const linalg::Vector& x, linalg::Vector& r) {
    return objective->evaluate(x, r);
  };
  auto jacobian_fn = [&](const linalg::Vector& x, const linalg::Vector& r,
                         const linalg::Vector& steps,
                         linalg::Matrix& jacobian) {
    return objective->evaluate_jacobian(x, r, steps, jacobian);
  };
  auto lm = nlopt::bounded_least_squares(
      residual_fn, jacobian_fn, objective->residual_size(), {2.0, 0.2},
      {0.01, 0.01}, {10.0, 10.0}, options.levmar);
  ASSERT_TRUE(lm.is_ok());
  EXPECT_EQ(lm->iterations, estimated->iterations);
  EXPECT_EQ(lm->message, estimated->message);
  EXPECT_EQ(lm->converged, estimated->converged);
  EXPECT_EQ(lm->cost, estimated->final_cost);
  for (std::size_t i = 0; i < lm->x.size(); ++i) {
    EXPECT_EQ(lm->x[i], estimated->rate_constants[i]);
  }
}

TEST(Estimator, SurfacesSolverStats) {
  TinyModel model;
  std::vector<Experiment> experiments;
  experiments.push_back(model.make_experiment(1.0, 80));
  ObjectiveFunction objective(model.program, model.observable,
                              std::move(experiments), {0, 1},
                              model.true_rates);
  auto result = estimate_parameters(objective, {0.5, 0.2}, {0.01, 0.01},
                                    {10.0, 10.0});
  ASSERT_TRUE(result.is_ok());
  const SolverStats& stats = result->solver_stats;
  EXPECT_GT(stats.solves, 0u);
  EXPECT_GT(stats.integration.steps, 0u);
  EXPECT_GT(stats.integration.rhs_evaluations, 0u);
  EXPECT_GT(stats.integration.newton_iterations, 0u);
  EXPECT_GT(stats.integration.jacobian_evaluations, 0u);
  EXPECT_GT(stats.integration.factorizations, 0u);
  // The dense path records no steps, so no column replays.
  EXPECT_EQ(stats.replayed_solves, 0u);
  EXPECT_EQ(stats.replay_fallbacks, 0u);
}

}  // namespace
}  // namespace rms::estimator
