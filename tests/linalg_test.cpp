// Unit tests for the dense matrix and LU oracle (dense_lu.hpp) and the
// solver's vector helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "dense_lu.hpp"
#include "linalg/vector.hpp"

namespace {

using prox::testref::LuFactorization;
using prox::testref::Matrix;
using prox::linalg::Vector;

TEST(Matrix, ConstructionZeroInitializes) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0);
  }
}

TEST(Matrix, IdentityHasUnitDiagonal) {
  const Matrix i = Matrix::identity(4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(i(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, SetZeroClearsWithoutResize) {
  Matrix m(2, 2);
  m(0, 0) = 5.0;
  m(1, 1) = -3.0;
  m.setZero();
  EXPECT_EQ(m(0, 0), 0.0);
  EXPECT_EQ(m(1, 1), 0.0);
  EXPECT_EQ(m.rows(), 2u);
}

TEST(Matrix, MultiplyMatchesManualComputation) {
  Matrix m(2, 3);
  m(0, 0) = 1.0; m(0, 1) = 2.0; m(0, 2) = 3.0;
  m(1, 0) = 4.0; m(1, 1) = 5.0; m(1, 2) = 6.0;
  const Vector x{1.0, -1.0, 2.0};
  const Vector y = m.multiply(x);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 1.0 - 2.0 + 6.0);
  EXPECT_DOUBLE_EQ(y[1], 4.0 - 5.0 + 12.0);
}

TEST(Matrix, MultiplySizeMismatchThrows) {
  Matrix m(2, 3);
  EXPECT_THROW(m.multiply(Vector{1.0, 2.0}), std::invalid_argument);
}

TEST(Matrix, MaxAbsFindsLargestMagnitude) {
  Matrix m(2, 2);
  m(0, 1) = -7.5;
  m(1, 0) = 3.0;
  EXPECT_DOUBLE_EQ(m.maxAbs(), 7.5);
}

TEST(VectorOps, Norms) {
  const Vector v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(prox::testref::norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(prox::testref::normInf(v), 4.0);
}

TEST(VectorOps, SubtractSizeMismatchThrows) {
  EXPECT_THROW(prox::testref::subtract(Vector{1.0}, Vector{1.0, 2.0}),
               std::invalid_argument);
}

TEST(Lu, SolvesKnown2x2System) {
  Matrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  const Vector x = prox::testref::solve(a, Vector{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the leading diagonal forces a row exchange.
  Matrix a(2, 2);
  a(0, 0) = 0.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 0.0;
  const Vector x = prox::testref::solve(a, Vector{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, DetectsSingularMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0;  // rank 1
  LuFactorization lu;
  EXPECT_FALSE(lu.factor(a));
  EXPECT_THROW(prox::testref::solve(a, Vector{1.0, 1.0}), std::runtime_error);
}

TEST(Lu, NonSquareThrows) {
  LuFactorization lu;
  EXPECT_THROW(lu.factor(Matrix(2, 3)), std::invalid_argument);
}

TEST(Lu, DeterminantOfKnownMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 3.0; a(0, 1) = 1.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0;
  LuFactorization lu;
  ASSERT_TRUE(lu.factor(a));
  EXPECT_NEAR(lu.determinant(), 10.0, 1e-12);
}

TEST(Lu, ReusableForMultipleRhs) {
  Matrix a(2, 2);
  a(0, 0) = 4.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  LuFactorization lu;
  ASSERT_TRUE(lu.factor(a));
  const Vector x1 = lu.solve(Vector{5.0, 4.0});
  const Vector x2 = lu.solve(Vector{9.0, 7.0});
  EXPECT_NEAR(4.0 * x1[0] + x1[1], 5.0, 1e-12);
  EXPECT_NEAR(4.0 * x2[0] + x2[1], 9.0, 1e-12);
}

TEST(Lu, SolveBeforeFactorThrows) {
  LuFactorization lu;
  EXPECT_THROW(lu.solve(Vector{1.0}), std::runtime_error);
}

TEST(Lu, RhsSizeMismatchThrows) {
  LuFactorization lu;
  ASSERT_TRUE(lu.factor(Matrix::identity(3)));
  EXPECT_THROW(lu.solve(Vector{1.0, 2.0}), std::invalid_argument);
}

// Property-style sweep: random diagonally dominant systems of varying size
// solve to residuals near machine precision.
class LuRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomSweep, ResidualIsTiny) {
  const int n = GetParam();
  std::mt19937 rng(42 + static_cast<unsigned>(n));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);

  Matrix a(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    double rowSum = 0.0;
    for (int c = 0; c < n; ++c) {
      a(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) = dist(rng);
      rowSum += std::fabs(a(static_cast<std::size_t>(r), static_cast<std::size_t>(c)));
    }
    a(static_cast<std::size_t>(r), static_cast<std::size_t>(r)) +=
        rowSum + 1.0;  // strict dominance (the +1 keeps n=1 nonsingular)
  }
  Vector b(static_cast<std::size_t>(n));
  for (double& x : b) x = dist(rng);

  const Vector x = prox::testref::solve(a, b);
  const Vector r = prox::testref::subtract(a.multiply(x), b);
  EXPECT_LT(prox::testref::normInf(r), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

}  // namespace
