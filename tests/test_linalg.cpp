// Unit and property tests for the dense linear algebra substrate.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "support/rng.hpp"

namespace rms::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  Vector v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

TEST(Matrix, IdentityMultiplyIsIdentity) {
  Matrix id = Matrix::identity(4);
  Vector x = {1.0, -2.0, 3.0, 0.5};
  Vector y;
  id.multiply(x, y);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(Matrix, MultiplyMatchesManual) {
  Matrix a(2, 3);
  a(0, 0) = 1;  a(0, 1) = 2;  a(0, 2) = 3;
  a(1, 0) = -1; a(1, 1) = 0;  a(1, 2) = 4;
  Vector x = {1.0, 2.0, 3.0};
  Vector y;
  a.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 14.0);
  EXPECT_DOUBLE_EQ(y[1], 11.0);
}

TEST(Matrix, TransposeMultiplyAgreesWithExplicitTranspose) {
  Matrix a = random_matrix(5, 3, 42);
  Vector x = random_vector(5, 7);
  Vector y1;
  a.multiply_transpose(x, y1);
  // Manual transpose.
  Vector y2(3, 0.0);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 3; ++j) y2[j] += a(i, j) * x[i];
  }
  for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(y1[j], y2[j], 1e-14);
}

TEST(Matrix, MatrixProductAssociatesWithVector) {
  Matrix a = random_matrix(4, 3, 1);
  Matrix b = random_matrix(3, 5, 2);
  Vector x = random_vector(5, 3);
  Matrix ab = a.multiply(b);
  Vector bx, abx1, abx2;
  b.multiply(x, bx);
  a.multiply(bx, abx1);
  ab.multiply(x, abx2);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(abx1[i], abx2[i], 1e-13);
}

TEST(VectorOps, Norms) {
  Vector v = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(v), 4.0);
  EXPECT_DOUBLE_EQ(dot(v, v), 25.0);
}

TEST(VectorOps, Axpy) {
  Vector x = {1.0, 2.0};
  Vector y = {10.0, 20.0};
  axpy(0.5, x, y);
  EXPECT_DOUBLE_EQ(y[0], 10.5);
  EXPECT_DOUBLE_EQ(y[1], 21.0);
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 3;
  Vector b = {5.0, 10.0};
  Vector x;
  ASSERT_TRUE(solve_linear_system(a, b, x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, DetectsSingularMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;  // rank 1
  Vector b = {1.0, 2.0};
  Vector x;
  EXPECT_FALSE(solve_linear_system(a, b, x));
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 0;
  Vector b = {2.0, 3.0};
  Vector x;
  ASSERT_TRUE(solve_linear_system(a, b, x));
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
}

TEST(Lu, FactorOnceSolveMany) {
  Matrix a = random_matrix(6, 6, 11);
  for (std::size_t i = 0; i < 6; ++i) a(i, i) += 4.0;  // well conditioned
  LuFactorization lu;
  ASSERT_TRUE(lu.factor(a));
  for (std::uint64_t s = 0; s < 5; ++s) {
    Vector b = random_vector(6, 100 + s);
    Vector x;
    lu.solve(b, x);
    Vector ax;
    a.multiply(x, ax);
    for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(ax[i], b[i], 1e-11);
  }
}

// Property sweep: random diagonally dominant systems of several sizes are
// solved to near machine precision.
class LuProperty : public ::testing::TestWithParam<int> {};

TEST_P(LuProperty, ResidualSmallForRandomSystems) {
  const int n = GetParam();
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Matrix a = random_matrix(n, n, seed * 31 + n);
    for (int i = 0; i < n; ++i) a(i, i) += n;  // ensure nonsingular
    Vector x_true = random_vector(n, seed + 1000);
    Vector b;
    a.multiply(x_true, b);
    Vector x;
    ASSERT_TRUE(solve_linear_system(a, b, x));
    for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuProperty,
                         ::testing::Values(1, 2, 3, 5, 10, 20, 50));

TEST(Qr, SolvesSquareSystemExactly) {
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 3;
  Vector b = {5.0, 10.0};
  Vector x;
  ASSERT_TRUE(solve_least_squares(a, b, x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Qr, OverdeterminedResidualIsOrthogonalToColumns) {
  Matrix a = random_matrix(10, 3, 5);
  Vector b = random_vector(10, 6);
  Vector x;
  ASSERT_TRUE(solve_least_squares(a, b, x));
  // r = b - A x must satisfy A^T r = 0.
  Vector ax;
  a.multiply(x, ax);
  Vector r(10);
  for (std::size_t i = 0; i < 10; ++i) r[i] = b[i] - ax[i];
  Vector atr;
  a.multiply_transpose(r, atr);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(atr[j], 0.0, 1e-12);
}

TEST(Qr, DetectsRankDeficiency) {
  Matrix a(3, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;
  a(2, 0) = 3; a(2, 1) = 6;  // second column = 2 * first
  QrFactorization qr;
  EXPECT_FALSE(qr.factor(a));
}

TEST(Qr, DampedSolveFromFactorMatchesStackedSolve) {
  // The Levenberg-Marquardt trial step from R and Q^T r must match the
  // direct QR solve of the stacked (m + n) x n system [J; sqrt(lambda) D].
  for (const std::size_t m : {8, 200, 19200}) {
    for (const std::size_t n : {1, 4, 13}) {
      if (n > m) continue;
      const Matrix j = random_matrix(m, n, 31 * m + n);
      const Vector r = random_vector(m, 7 * m + n);
      Vector d = random_vector(n, m + 3 * n);
      for (double& v : d) v = 0.5 + std::fabs(v);
      DampedLeastSquares damped;
      damped.factor(j, r);
      for (const double lambda : {1e-12, 1e-3, 1e6}) {
        Matrix stacked(m + n, n);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t c = 0; c < n; ++c) stacked(i, c) = j(i, c);
        }
        for (std::size_t c = 0; c < n; ++c) {
          stacked(m + c, c) = std::sqrt(lambda) * d[c];
        }
        Vector rhs(m + n, 0.0);
        for (std::size_t i = 0; i < m; ++i) rhs[i] = -r[i];
        Vector expected;
        ASSERT_TRUE(solve_least_squares(stacked, rhs, expected));

        Vector dx;
        ASSERT_TRUE(damped.solve(lambda, d, dx));
        Vector diff(n);
        for (std::size_t c = 0; c < n; ++c) diff[c] = dx[c] - expected[c];
        EXPECT_LE(norm2(diff), 1e-10 * norm2(expected))
            << "m " << m << " n " << n << " lambda " << lambda;

        // The model reduction from R and Q^T r matches the m-length form.
        Vector j_dx;
        j.multiply(dx, j_dx);
        double reduction = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          reduction -= r[i] * j_dx[i] + 0.5 * j_dx[i] * j_dx[i];
        }
        EXPECT_NEAR(damped.model_reduction(dx), reduction,
                    1e-10 * std::fabs(reduction));
      }
    }
  }
}

TEST(Qr, DampedSolveHandlesZeroColumn) {
  // A zero column (a parameter the data do not see) leaves J rank
  // deficient, but [R; sqrt(lambda) D] is full rank for lambda > 0, and
  // the step leaves that parameter alone.
  Matrix j = random_matrix(20, 3, 11);
  for (std::size_t i = 0; i < 20; ++i) j(i, 1) = 0.0;
  QrFactorization qr;
  EXPECT_FALSE(qr.factor(j));
  DampedLeastSquares damped;
  damped.factor(j, random_vector(20, 12));
  Vector dx;
  ASSERT_TRUE(damped.solve(1e-3, {1.0, 1.0, 1.0}, dx));
  EXPECT_TRUE(std::isfinite(dx[0]) && std::isfinite(dx[2]));
  EXPECT_NEAR(dx[1], 0.0, 1e-15);
}

class QrProperty : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrProperty, RecoversExactSolutionOfConsistentSystem) {
  const auto [m, n] = GetParam();
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Matrix a = random_matrix(m, n, seed * 17 + m + n);
    Vector x_true = random_vector(n, seed + 2000);
    Vector b;
    a.multiply(x_true, b);  // consistent: b in range(A)
    Vector x;
    ASSERT_TRUE(solve_least_squares(a, b, x));
    for (int j = 0; j < n; ++j) EXPECT_NEAR(x[j], x_true[j], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrProperty,
    ::testing::Values(std::pair{3, 3}, std::pair{5, 2}, std::pair{10, 4},
                      std::pair{50, 10}, std::pair{100, 10}));

}  // namespace
}  // namespace rms::linalg
