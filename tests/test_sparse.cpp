// Tests for the sparse linear algebra (CSR + two-phase sparse LU: cached
// fill-reducing analysis, fixed-pattern refactor, pivoting fallback) and
// the sparse-Jacobian Newton path of the Adams-Gear solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "codegen/jacobian.hpp"
#include "linalg/lu.hpp"
#include "linalg/sparse.hpp"
#include "models/test_cases.hpp"
#include "solver/adams_gear.hpp"
#include "support/rng.hpp"
#include "vm/interpreter.hpp"

namespace rms::linalg {
namespace {

Matrix random_sparse_dense(std::size_t n, double density,
                           support::Xoshiro256& rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.uniform() < density) m(i, j) = rng.uniform(-1.0, 1.0);
    }
    m(i, i) += 4.0;  // diagonally dominant: nonsingular
  }
  return m;
}

TEST(CsrMatrix, FromDenseRoundTrip) {
  Matrix dense(3, 3);
  dense(0, 0) = 1.0;
  dense(0, 2) = 2.0;
  dense(1, 1) = 3.0;
  dense(2, 0) = -4.0;
  CsrMatrix sparse = CsrMatrix::from_dense(dense);
  EXPECT_EQ(sparse.nonzero_count(), 4u);
  Matrix back = sparse.to_dense();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(back(i, j), dense(i, j));
    }
  }
}

TEST(CsrMatrix, MultiplyMatchesDense) {
  support::Xoshiro256 rng(1);
  Matrix dense = random_sparse_dense(12, 0.2, rng);
  CsrMatrix sparse = CsrMatrix::from_dense(dense);
  Vector x(12);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  Vector y_dense;
  Vector y_sparse;
  dense.multiply(x, y_dense);
  sparse.multiply(x, y_sparse);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_NEAR(y_sparse[i], y_dense[i], 1e-14);
  }
}

TEST(SparseLu, SolvesSmallKnownSystem) {
  Matrix dense(3, 3);
  dense(0, 0) = 2;  dense(0, 1) = 1;
  dense(1, 0) = 1;  dense(1, 1) = 3;  dense(1, 2) = 1;
  dense(2, 1) = 1;  dense(2, 2) = 4;
  SparseLu lu;
  ASSERT_TRUE(lu.factor(CsrMatrix::from_dense(dense)));
  Vector b = {5.0, 10.0, 9.0};
  Vector x;
  lu.solve(b, x);
  Vector check;
  dense.multiply(x, check);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(check[i], b[i], 1e-12);
}

TEST(SparseLu, PivotingHandlesZeroDiagonal) {
  Matrix dense(2, 2);
  dense(0, 1) = 1.0;
  dense(1, 0) = 1.0;
  SparseLu lu;
  ASSERT_TRUE(lu.factor(CsrMatrix::from_dense(dense)));
  Vector b = {2.0, 3.0};
  Vector x;
  lu.solve(b, x);
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
}

TEST(SparseLu, DetectsSingularMatrix) {
  Matrix dense(2, 2);
  dense(0, 0) = 1.0;
  dense(0, 1) = 2.0;
  dense(1, 0) = 2.0;
  dense(1, 1) = 4.0;  // rank 1
  SparseLu lu;
  EXPECT_FALSE(lu.factor(CsrMatrix::from_dense(dense)));
  // Structurally singular: an empty column.
  Matrix dense2(2, 2);
  dense2(0, 0) = 1.0;
  dense2(1, 0) = 1.0;
  EXPECT_FALSE(lu.factor(CsrMatrix::from_dense(dense2)));
}

TEST(SparseLu, FactorNonzerosReported) {
  support::Xoshiro256 rng(5);
  Matrix dense = random_sparse_dense(20, 0.1, rng);
  SparseLu lu;
  ASSERT_TRUE(lu.factor(CsrMatrix::from_dense(dense)));
  EXPECT_GE(lu.factor_nonzeros(), 20u);
  EXPECT_LT(lu.factor_nonzeros(), 400u);  // far below dense
}

class SparseLuProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparseLuProperty, AgreesWithDenseLuOnRandomSystems) {
  support::Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 5 + rng.below(40);
    const double density = rng.uniform(0.05, 0.4);
    Matrix dense = random_sparse_dense(n, density, rng);
    Vector b(n);
    for (double& v : b) v = rng.uniform(-1.0, 1.0);

    Vector x_dense;
    ASSERT_TRUE(solve_linear_system(dense, b, x_dense));
    SparseLu lu;
    ASSERT_TRUE(lu.factor(CsrMatrix::from_dense(dense)));
    Vector x_sparse;
    lu.solve(b, x_sparse);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x_sparse[i], x_dense[i], 1e-9)
          << "n=" << n << " trial=" << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseLuProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(SparseLu, RefactorWithDifferentPattern) {
  // The factorization object must be reusable across patterns (the solver
  // refactors whenever the Jacobian refreshes).
  support::Xoshiro256 rng(77);
  SparseLu lu;
  for (int round = 0; round < 4; ++round) {
    const std::size_t n = 10 + 5 * round;
    Matrix dense = random_sparse_dense(n, 0.2, rng);
    ASSERT_TRUE(lu.factor(CsrMatrix::from_dense(dense)));
    Vector b(n, 1.0);
    Vector x;
    lu.solve(b, x);
    Vector check;
    dense.multiply(x, check);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(check[i], 1.0, 1e-9);
  }
}

/// max_i |(A x - b)_i|.
double residual_inf(const CsrMatrix& a, const Vector& x, const Vector& b) {
  Vector ax;
  a.multiply(x, ax);
  double worst = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    worst = std::max(worst, std::fabs(ax[i] - b[i]));
  }
  return worst;
}

Vector random_vector(std::size_t n, support::Xoshiro256& rng) {
  Vector v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Same pattern, new values: every stored entry redrawn.
CsrMatrix with_new_values(CsrMatrix a, support::Xoshiro256& rng) {
  for (std::size_t r = 0; r < a.rows; ++r) {
    for (std::uint32_t e = a.row_offsets[r]; e < a.row_offsets[r + 1]; ++e) {
      a.values[e] = a.col_indices[e] == r ? 4.0 + rng.uniform()
                                          : rng.uniform(-1.0, 1.0);
    }
  }
  return a;
}

/// Symmetric tridiagonal matrix with `diagonal` on the diagonal and 1 off
/// it. With a zero diagonal it is well conditioned for even n (eigenvalues
/// 2 cos(k pi / (n + 1)), none zero), and from_dense leaves the diagonal
/// out of the pattern, so every diagonal pivot is missing.
CsrMatrix tridiagonal(std::size_t n, double diagonal) {
  Matrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    dense(i, i) = diagonal;
    if (i + 1 < n) dense(i, i + 1) = dense(i + 1, i) = 1.0;
  }
  return CsrMatrix::from_dense(dense);
}

TEST(SparseLu, FillStaysNearTc3IterationMatrix) {
  // M = d0*I - J of TC3 at 5% scale: natural-order LU filled it 4.16x.
  auto built = models::build_test_case(models::scaled_config(3, 0.05));
  ASSERT_TRUE(built.is_ok());
  const std::size_t n = built->equation_count();
  const std::vector<double> rates = built->rates.values();
  const codegen::CompiledJacobian jac =
      codegen::compile_jacobian(built->odes.table, n, rates.size());
  CsrMatrix j;
  codegen::SparseJacobianEvaluator(&jac, &rates)(
      0.0, built->odes.init_concentrations.data(), j);
  Matrix dense = j.to_dense();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) dense(r, c) = -dense(r, c);
    dense(r, r) += 100.0;
  }
  const CsrMatrix m = CsrMatrix::from_dense(dense);

  SparseLu lu;
  ASSERT_TRUE(lu.factor(m));
  EXPECT_LE(static_cast<double>(lu.factor_nonzeros()),
            1.5 * static_cast<double>(m.nonzero_count()));
  support::Xoshiro256 rng(3);
  const Vector b = random_vector(n, rng);
  Vector x;
  lu.solve(b, x);
  EXPECT_LE(residual_inf(m, x, b), 1e-12);
}

TEST(SparseLu, RefactorSamePatternNewValues) {
  support::Xoshiro256 rng(91);
  const CsrMatrix a = CsrMatrix::from_dense(random_sparse_dense(60, 0.08, rng));
  SparseLu lu;
  ASSERT_TRUE(lu.factor(a));
  const std::size_t nonzeros = lu.factor_nonzeros();
  for (int round = 0; round < 3; ++round) {
    const CsrMatrix refreshed = with_new_values(a, rng);
    ASSERT_TRUE(lu.factor(refreshed));
    EXPECT_EQ(lu.factor_nonzeros(), nonzeros);  // same fixed pattern
    const Vector b = random_vector(a.rows, rng);
    Vector x;
    lu.solve(b, x);
    EXPECT_LE(residual_inf(refreshed, x, b), 1e-12) << "round " << round;
  }
}

TEST(SparseLu, PatternChangeReanalyses) {
  // Same dimension, different patterns, in turn: each factor() must use an
  // analysis of its own matrix's pattern. (A diagonal matrix's analysis
  // applied to the tridiagonal one would pass every pivot check and solve
  // the wrong system.)
  support::Xoshiro256 rng(17);
  Matrix twice_identity(40, 40);
  for (std::size_t i = 0; i < 40; ++i) twice_identity(i, i) = 2.0;
  const CsrMatrix diagonal = CsrMatrix::from_dense(twice_identity);
  const CsrMatrix banded = tridiagonal(40, 4.0);
  const CsrMatrix random =
      CsrMatrix::from_dense(random_sparse_dense(40, 0.15, rng));
  SparseLu lu;
  for (const CsrMatrix* a :
       {&diagonal, &banded, &random, &diagonal, &random, &banded}) {
    ASSERT_TRUE(lu.factor(*a));
    const Vector b = random_vector(40, rng);
    Vector x;
    lu.solve(b, x);
    EXPECT_LE(residual_inf(*a, x, b), 1e-12);
  }
}

TEST(SparseLu, TinyDiagonalAtRefactorFallsBackToPivoting) {
  // The analysis is made on a diagonally dominant matrix; the refactor
  // sees the same pattern with a diagonal of 1e-14 (and exactly 0), where
  // diagonal pivots would be useless, and must pivot off the diagonal.
  const std::size_t n = 30;
  SparseLu lu;
  ASSERT_TRUE(lu.factor(tridiagonal(n, 4.0)));
  support::Xoshiro256 rng(5);
  for (const double diagonal : {1e-14, 0.0}) {
    CsrMatrix a = tridiagonal(n, 4.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::uint32_t e = a.row_offsets[r]; e < a.row_offsets[r + 1]; ++e) {
        if (a.col_indices[e] == r) a.values[e] = diagonal;
      }
    }
    ASSERT_TRUE(lu.factor(a)) << "diagonal " << diagonal;
    const Vector b = random_vector(n, rng);
    Vector x;
    lu.solve(b, x);
    EXPECT_LE(residual_inf(a, x, b), 1e-12) << "diagonal " << diagonal;
  }
}

TEST(SparseLu, CopySurvivesRefactorOfOriginal) {
  // A step recording keeps a copy of the solver's factorization; the
  // solver then refactors its own object with other values.
  support::Xoshiro256 rng(23);
  const CsrMatrix a = CsrMatrix::from_dense(random_sparse_dense(50, 0.1, rng));
  const CsrMatrix pivoting = tridiagonal(50, 0.0);
  const Vector b = random_vector(50, rng);
  for (const CsrMatrix* recorded : {&a, &pivoting}) {
    SparseLu lu;
    ASSERT_TRUE(lu.factor(*recorded));
    const SparseLu copy = lu;
    ASSERT_TRUE(lu.factor(with_new_values(a, rng)));
    Vector x;
    copy.solve(b, x);
    EXPECT_LE(residual_inf(*recorded, x, b), 1e-12);
  }
}

TEST(SparseLu, FactorIsPureFunctionOfMatrix) {
  // No pivot sequence or pattern carries over between calls: a factor on a
  // used object solves bit-identically to one on a fresh object.
  support::Xoshiro256 rng(29);
  const CsrMatrix a = CsrMatrix::from_dense(random_sparse_dense(40, 0.1, rng));
  const CsrMatrix fallback = tridiagonal(40, 0.0);
  const Vector b = random_vector(40, rng);
  for (const CsrMatrix* target : {&a, &fallback}) {
    SparseLu fresh;
    ASSERT_TRUE(fresh.factor(*target));
    Vector expected;
    fresh.solve(b, expected);
    for (const CsrMatrix* before : {&a, &fallback}) {
      SparseLu used;
      ASSERT_TRUE(used.factor(*before));
      ASSERT_TRUE(used.factor(*target));
      Vector x;
      used.solve(b, x);
      EXPECT_EQ(x, expected);
    }
  }
}

TEST(SparseLu, ThreadsShareAnalysisThroughCopies) {
  // The solver pool's pattern: one recorded factorization is read by many
  // workers while each copies it and refactors its copy with other values.
  // Copies share the immutable analysis (refcounted across threads), and
  // every numeric refactor uses its thread's own workspace.
  support::Xoshiro256 rng(41);
  const CsrMatrix a = CsrMatrix::from_dense(random_sparse_dense(80, 0.06, rng));
  SparseLu recorded;
  ASSERT_TRUE(recorded.factor(a));
  const Vector b = random_vector(80, rng);
  Vector expected;
  recorded.solve(b, expected);

  constexpr int kThreads = 4;
  std::vector<CsrMatrix> variants;
  for (int t = 0; t < kThreads; ++t) variants.push_back(with_new_values(a, rng));
  std::vector<double> worst(kThreads, 0.0);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        SparseLu mine = recorded;
        if (!mine.factor(variants[t])) {
          worst[t] = HUGE_VAL;
          return;
        }
        Vector x;
        mine.solve(b, x);
        worst[t] = std::max(worst[t], residual_inf(variants[t], x, b));
        recorded.solve(b, x);
        if (x != expected) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_LE(worst[t], 1e-12) << "thread " << t;
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace rms::linalg

namespace rms::solver {
namespace {

TEST(AdamsGearSparse, MatchesDenseOnVulcanizationModel) {
  auto built = models::build_test_case({3, 7});
  ASSERT_TRUE(built.is_ok());
  const std::size_t n = built->equation_count();
  const std::vector<double> rates = built->rates.values();
  codegen::CompiledJacobian jac =
      codegen::compile_jacobian(built->odes.table, n, built->rates.size());

  auto make_system = [&](vm::Interpreter& interp) {
    return OdeSystem{n, [&](double t, const double* y, double* ydot) {
                       interp.run(t, y, rates.data(), ydot);
                     }};
  };

  vm::Interpreter i1(built->program_optimized);
  OdeSystem dense_system = make_system(i1);
  AdamsGear dense_solver(dense_system);
  ASSERT_TRUE(
      dense_solver.initialize(0.0, built->odes.init_concentrations).is_ok());
  std::vector<double> y_dense;
  ASSERT_TRUE(dense_solver.advance_to(5.0, y_dense).is_ok());

  vm::Interpreter i2(built->program_optimized);
  OdeSystem sparse_system = make_system(i2);
  sparse_system.sparse_jacobian =
      codegen::SparseJacobianEvaluator(&jac, &rates);
  IntegrationOptions options;
  options.newton_linear_solver = NewtonLinearSolver::kSparseLu;
  AdamsGear sparse_solver(sparse_system, options);
  ASSERT_TRUE(
      sparse_solver.initialize(0.0, built->odes.init_concentrations).is_ok());
  std::vector<double> y_sparse;
  auto status = sparse_solver.advance_to(5.0, y_sparse);
  ASSERT_TRUE(status.is_ok()) << status.to_string();

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y_sparse[i], y_dense[i],
                1e-4 * std::max(1.0, std::fabs(y_dense[i])));
  }
  // The sparse path must not fall back to finite differences.
  EXPECT_GT(sparse_solver.stats().jacobian_evaluations, 0u);
  EXPECT_LT(sparse_solver.stats().rhs_evaluations,
            dense_solver.stats().rhs_evaluations);
}

}  // namespace
}  // namespace rms::solver
