// Unit + property tests for the dense linear algebra kernel: matrix ops,
// LU factorization/solve across sizes, pivoting, singularity detection,
// and iterative refinement.
#include <cmath>

#include <gtest/gtest.h>

#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "util/rng.h"

namespace cmldft::linalg {
namespace {

TEST(Matrix, IdentityAndMultiply) {
  Matrix id = Matrix::Identity(3);
  Vector x = {1.0, 2.0, 3.0};
  EXPECT_EQ(id.Multiply(x), x);
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 2) = 2;
  a(1, 1) = 3;
  Vector y = a.Multiply(Vector{1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
}

TEST(Matrix, MatrixMultiplyAgainstHandResult) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, AddScaleMaxAbs) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 2, 2.0);
  a.Add(b);
  EXPECT_DOUBLE_EQ(a(1, 1), 3.0);
  a.Scale(-2.0);
  EXPECT_DOUBLE_EQ(a.MaxAbs(), 6.0);
}

TEST(VectorOps, Norms) {
  Vector v = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(Norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(NormInf(v), 4.0);
  EXPECT_DOUBLE_EQ(Dot(v, v), 25.0);
}

TEST(Lu, SolvesHandSystem) {
  // 2x + y = 5 ; x + 3y = 10 -> x = 1, y = 3.
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 3;
  auto x = SolveDense(a, {5, 10});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the leading diagonal: fails without row exchanges.
  Matrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 0;
  auto x = SolveDense(a, {2, 3});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 3.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 4;
  LuFactorization lu;
  EXPECT_EQ(lu.Factor(a).code(), util::StatusCode::kSingularMatrix);
  EXPECT_FALSE(lu.factored());
}

TEST(Lu, SolveBeforeFactorFails) {
  LuFactorization lu;
  EXPECT_EQ(lu.Solve({1.0}).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(Lu, RejectsNonSquare) {
  LuFactorization lu;
  EXPECT_EQ(lu.Factor(Matrix(2, 3)).code(), util::StatusCode::kInvalidArgument);
}

TEST(Lu, RhsDimensionMismatch) {
  LuFactorization lu;
  ASSERT_TRUE(lu.Factor(Matrix::Identity(3)).ok());
  EXPECT_FALSE(lu.Solve({1.0, 2.0}).ok());
}

TEST(Lu, LogAbsDeterminant) {
  Matrix a = Matrix::Identity(3);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  LuFactorization lu;
  ASSERT_TRUE(lu.Factor(a).ok());
  EXPECT_NEAR(lu.LogAbsDeterminant(), std::log(8.0), 1e-12);
}

// Property sweep: random diagonally-dominant systems of many sizes solve
// to high accuracy (verified by residual, not by a reference solver).
class LuPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LuPropertyTest, RandomSystemResidualSmall) {
  const size_t n = static_cast<size_t>(GetParam());
  util::Rng rng(1000 + n);
  Matrix a(n, n);
  Vector b(n);
  for (size_t r = 0; r < n; ++r) {
    double row_sum = 0;
    for (size_t c = 0; c < n; ++c) {
      a(r, c) = rng.NextDouble(-1, 1);
      row_sum += std::fabs(a(r, c));
    }
    a(r, r) += row_sum + 1.0;  // strict diagonal dominance -> well conditioned
    b[r] = rng.NextDouble(-10, 10);
  }
  LuFactorization lu;
  ASSERT_TRUE(lu.Factor(a).ok());
  auto x = lu.Solve(b);
  ASSERT_TRUE(x.ok());
  const Vector residual = Subtract(b, a.Multiply(*x));
  EXPECT_LT(NormInf(residual), 1e-9 * (1.0 + NormInf(b))) << "n=" << n;

  // Refinement never makes it worse.
  auto xr = lu.SolveRefined(a, b, 2);
  ASSERT_TRUE(xr.ok());
  const Vector refined_res = Subtract(b, a.Multiply(*xr));
  EXPECT_LE(NormInf(refined_res), NormInf(residual) * 10 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(Lu, PermutationRoundTrip) {
  // Solving against columns of I reconstructs A^-1; A * A^-1 == I.
  const size_t n = 6;
  util::Rng rng(77);
  Matrix a(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) a(r, c) = rng.NextDouble(-1, 1);
    a(r, r) += 4.0;
  }
  LuFactorization lu;
  ASSERT_TRUE(lu.Factor(a).ok());
  Matrix inv(n, n);
  for (size_t c = 0; c < n; ++c) {
    Vector e(n, 0.0);
    e[c] = 1.0;
    auto col = lu.Solve(e);
    ASSERT_TRUE(col.ok());
    for (size_t r = 0; r < n; ++r) inv(r, c) = (*col)[r];
  }
  Matrix prod = a.Multiply(inv);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      EXPECT_NEAR(prod(r, c), r == c ? 1.0 : 0.0, 1e-10);
    }
  }
}

}  // namespace
}  // namespace cmldft::linalg
