// Tests for the sparse LU: builder semantics, correctness against the
// dense solver on random sparse and MNA-like systems, pivoting, fill-in
// accounting, and numeric-only refactorization.
#include <cmath>

#include <gtest/gtest.h>

#include "linalg/lu.h"
#include "linalg/sparse.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace cmldft::linalg {
namespace {

TEST(SparseBuilder, AccumulatesDuplicates) {
  SparseBuilder b(3);
  b.Add(0, 1, 2.0);
  b.Add(0, 1, 3.0);
  b.Add(2, 2, 1.0);
  EXPECT_EQ(b.num_entries(), 2u);
  Matrix d = b.ToDense();
  EXPECT_DOUBLE_EQ(d(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(2, 2), 1.0);
}

TEST(SparseBuilder, ClearResets) {
  SparseBuilder b(2);
  b.Add(0, 0, 1.0);
  b.Clear();
  EXPECT_EQ(b.num_entries(), 0u);
}

TEST(SparseLu, SolvesHandSystem) {
  SparseBuilder b(2);
  b.Add(0, 0, 2.0);
  b.Add(0, 1, 1.0);
  b.Add(1, 0, 1.0);
  b.Add(1, 1, 3.0);
  SparseLu lu;
  ASSERT_TRUE(lu.Factor(b).ok());
  auto x = lu.Solve({5.0, 10.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(SparseLu, HandlesZeroDiagonalViaPivoting) {
  // The MNA pattern that breaks naive elimination: a voltage-source branch
  // row has a structurally zero diagonal.
  SparseBuilder b(2);
  b.Add(0, 1, 1.0);
  b.Add(1, 0, 1.0);
  SparseLu lu;
  ASSERT_TRUE(lu.Factor(b).ok());
  auto x = lu.Solve({2.0, 3.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 3.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

TEST(SparseLu, DetectsSingular) {
  SparseBuilder b(2);
  b.Add(0, 0, 1.0);
  b.Add(0, 1, 2.0);
  b.Add(1, 0, 2.0);
  b.Add(1, 1, 4.0);
  SparseLu lu;
  EXPECT_EQ(lu.Factor(b).code(), util::StatusCode::kSingularMatrix);
}

TEST(SparseLu, SolveBeforeFactorFails) {
  SparseLu lu;
  EXPECT_EQ(lu.Solve({1.0}).status().code(),
            util::StatusCode::kFailedPrecondition);
}

// Property: random sparse systems agree with the dense solver.
class SparseVsDenseTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseVsDenseTest, MatchesDense) {
  const size_t n = static_cast<size_t>(GetParam());
  util::Rng rng(4000 + n);
  SparseBuilder b(n);
  // ~5 off-diagonal entries per row plus a dominant diagonal.
  for (size_t r = 0; r < n; ++r) {
    double row_sum = 0.0;
    for (int k = 0; k < 5; ++k) {
      const size_t c = rng.NextBelow(n);
      const double v = rng.NextDouble(-1, 1);
      b.Add(r, c, v);
      row_sum += std::fabs(v);
    }
    b.Add(r, r, row_sum + 1.0);
  }
  Vector rhs(n);
  for (double& v : rhs) v = rng.NextDouble(-10, 10);

  SparseLu sparse;
  ASSERT_TRUE(sparse.Factor(b).ok());
  auto xs = sparse.Solve(rhs);
  ASSERT_TRUE(xs.ok());

  LuFactorization dense;
  ASSERT_TRUE(dense.Factor(b.ToDense()).ok());
  auto xd = dense.Solve(rhs);
  ASSERT_TRUE(xd.ok());

  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR((*xs)[i], (*xd)[i], 1e-9 * (1.0 + std::fabs((*xd)[i])))
        << "i=" << i << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseVsDenseTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 200));

TEST(SparseLu, FillInStaysBounded) {
  // A banded system: fill-in must stay O(bandwidth * n), far below n^2.
  const size_t n = 200;
  SparseBuilder b(n);
  for (size_t r = 0; r < n; ++r) {
    b.Add(r, r, 4.0);
    if (r > 0) b.Add(r, r - 1, -1.0);
    if (r + 1 < n) b.Add(r, r + 1, -1.0);
  }
  SparseLu lu;
  ASSERT_TRUE(lu.Factor(b).ok());
  EXPECT_LT(lu.factor_nonzeros(), 5 * n);
}

namespace {
// The MNA-like random pattern used across these tests.
SparseBuilder RandomMnaLike(size_t n, uint64_t seed, double scale = 1.0) {
  util::Rng rng(seed);
  SparseBuilder b(n);
  for (size_t r = 0; r < n; ++r) {
    double row_sum = 0.0;
    for (int k = 0; k < 5; ++k) {
      const size_t c = rng.NextBelow(n);
      const double v = rng.NextDouble(-1, 1) * scale;
      b.Add(r, c, v);
      row_sum += std::fabs(v);
    }
    b.Add(r, r, row_sum + scale);
  }
  return b;
}
}  // namespace

TEST(SparseLuRefactor, FallsBackToFactorWhenUnfactored) {
  SparseBuilder b(2);
  b.Add(0, 0, 2.0);
  b.Add(0, 1, 1.0);
  b.Add(1, 0, 1.0);
  b.Add(1, 1, 3.0);
  SparseLu lu;
  ASSERT_TRUE(lu.Refactor(b).ok());  // no prior Factor
  auto x = lu.Solve({5.0, 10.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(SparseLuRefactor, SameValuesReproduceFactorExactly) {
  const size_t n = 64;
  SparseBuilder b = RandomMnaLike(n, 911);
  Vector rhs(n, 1.0);
  SparseLu lu;
  ASSERT_TRUE(lu.Factor(b).ok());
  auto x1 = lu.Solve(rhs);
  ASSERT_TRUE(x1.ok());
  ASSERT_TRUE(lu.Refactor(b).ok());
  auto x2 = lu.Solve(rhs);
  ASSERT_TRUE(x2.ok());
  // Same pivot order, same elimination arithmetic: bit-identical.
  for (size_t i = 0; i < n; ++i) EXPECT_EQ((*x1)[i], (*x2)[i]) << i;
}

TEST(SparseLuRefactor, NewValuesSamePatternMatchDense) {
  // The Newton-iteration scenario: identical sparsity pattern, moving
  // values. Refactor must match a from-scratch dense solve on each new
  // value set.
  const size_t n = 96;
  SparseLu lu;
  for (int pass = 0; pass < 50; ++pass) {
    // Same seed for structure; values perturbed per pass by rebuilding
    // with a different scale (pattern identical since NextBelow draws are
    // interleaved identically), and each off-diagonal value moves on its
    // own (shrinking, so the diagonal stays dominant).
    util::Rng rng(50 + pass);
    SparseBuilder b(n);
    RandomMnaLike(n, 1234, 1.0 + 0.37 * pass).ForEach(
        [&](size_t r, size_t c, double v) {
          b.Add(r, c, r == c ? v : v * rng.NextDouble(0.5, 1.0));
        });
    Vector rhs(n);
    for (double& v : rhs) v = rng.NextDouble(-10, 10);

    util::Status st = pass == 0 ? lu.Factor(b) : lu.Refactor(b);
    ASSERT_TRUE(st.ok()) << pass << ": " << st.ToString();
    auto xs = lu.Solve(rhs);
    ASSERT_TRUE(xs.ok());

    LuFactorization dense;
    ASSERT_TRUE(dense.Factor(b.ToDense()).ok());
    auto xd = dense.Solve(rhs);
    ASSERT_TRUE(xd.ok());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR((*xs)[i], (*xd)[i], 1e-9 * (1.0 + std::fabs((*xd)[i])))
          << "pass=" << pass << " i=" << i;
    }
  }
}

TEST(SparseLuRefactor, SlotZeroAtFactorFilledLaterMatchesDense) {
  // The DC-to-transient case: a slot stamped with exactly 0 at Factor time
  // (a capacitor's companion conductance in DC) carries a value later. The
  // pivot search skips it, but the recorded pattern must cover it and the
  // fill it brings in, so Refactor replays instead of repivoting.
  const size_t n = 64;
  auto build = [&](bool filled) {
    util::Rng rng(321);
    SparseBuilder b(n);
    for (size_t r = 0; r < n; ++r) {
      b.Add(r, r, 4.0 + rng.NextDouble(0, 1));
      const size_t c = rng.NextBelow(n);
      const double v = rng.NextDouble(-1, 1);
      if (c != r) b.Add(r, c, v);
      // The latent coupling: zero at Factor, nonzero afterwards.
      const double latent = rng.NextDouble(-1, 1);
      b.Add(r, (r + n / 2) % n, filled ? latent : 0.0);
    }
    return b;
  };
  SparseLu lu;
  ASSERT_TRUE(lu.Factor(build(false)).ok());
  const SparseBuilder b = build(true);
  const auto before = util::telemetry::Capture();
  ASSERT_TRUE(lu.Refactor(b).ok());
  const auto after = util::telemetry::Capture();
  EXPECT_EQ(after.Value("linalg.sparse_lu.refactor_fallbacks"),
            before.Value("linalg.sparse_lu.refactor_fallbacks"));
  EXPECT_EQ(after.Value("linalg.sparse_lu.refactors"),
            before.Value("linalg.sparse_lu.refactors") + 1);

  util::Rng rng(5);
  Vector rhs(n);
  for (double& v : rhs) v = rng.NextDouble(-10, 10);
  auto xs = lu.Solve(rhs);
  ASSERT_TRUE(xs.ok());
  LuFactorization dense;
  ASSERT_TRUE(dense.Factor(b.ToDense()).ok());
  auto xd = dense.Solve(rhs);
  ASSERT_TRUE(xd.ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR((*xs)[i], (*xd)[i], 1e-9 * (1.0 + std::fabs((*xd)[i]))) << i;
  }
}

TEST(SparseLuRefactor, SlotOutsidePatternFallsBackBitExact) {
  // Tridiagonal: no fill, so a corner slot added after Factor lies outside
  // the recorded pattern. Refactor must notice, count the fallback, and
  // produce exactly what a fresh Factor produces.
  const size_t n = 16;
  SparseBuilder b(n);
  for (size_t r = 0; r < n; ++r) {
    b.Add(r, r, 4.0 + 0.1 * static_cast<double>(r));
    if (r > 0) b.Add(r, r - 1, -1.0);
    if (r + 1 < n) b.Add(r, r + 1, -1.0);
  }
  SparseLu reused;
  ASSERT_TRUE(reused.Factor(b).ok());
  b.Add(0, n - 1, 0.5);
  b.Add(n - 1, 0, 0.25);

  const auto before = util::telemetry::Capture();
  ASSERT_TRUE(reused.Refactor(b).ok());
  const auto after = util::telemetry::Capture();
  EXPECT_EQ(after.Value("linalg.sparse_lu.refactor_fallbacks"),
            before.Value("linalg.sparse_lu.refactor_fallbacks") + 1);

  SparseLu fresh;
  ASSERT_TRUE(fresh.Factor(b).ok());
  util::Rng rng(8);
  Vector rhs(n);
  for (double& v : rhs) v = rng.NextDouble(-5, 5);
  auto xr = reused.Solve(rhs);
  auto xf = fresh.Solve(rhs);
  ASSERT_TRUE(xr.ok() && xf.ok());
  for (size_t i = 0; i < n; ++i) EXPECT_EQ((*xr)[i], (*xf)[i]) << i;
}

TEST(SparseLuRefactor, DimensionChangeFallsBackToFactor) {
  SparseBuilder small(2);
  small.Add(0, 0, 2.0);
  small.Add(1, 1, 3.0);
  SparseLu lu;
  ASSERT_TRUE(lu.Factor(small).ok());
  SparseBuilder big = RandomMnaLike(10, 7);
  ASSERT_TRUE(lu.Refactor(big).ok());
  auto x = lu.Solve(Vector(10, 1.0));
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x->size(), 10u);
}

TEST(SparseLuRefactor, BadPivotTriggersFullRepivot) {
  // Values that invert the magnitude relation the original pivot order
  // relied on: the entry the old order wants to pivot on collapses to
  // zero, forcing the fallback path. The solve must still be correct.
  SparseBuilder a(2);
  a.Add(0, 0, 10.0);
  a.Add(0, 1, 1.0);
  a.Add(1, 0, 1.0);
  a.Add(1, 1, 10.0);
  SparseLu lu;
  ASSERT_TRUE(lu.Factor(a).ok());

  SparseBuilder b(2);
  b.Add(0, 0, 0.0);  // the old first pivot is now exactly zero
  b.Add(0, 1, 1.0);
  b.Add(1, 0, 1.0);
  b.Add(1, 1, 0.0);
  ASSERT_TRUE(lu.Refactor(b).ok());
  auto x = lu.Solve({2.0, 3.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 3.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

TEST(SparseLuRefactor, DimensionChangeMatchesFreshFactorBitExact) {
  // The fallback path IS a full Factor: its factorization — and every
  // subsequent solve — must be bit-identical to a fresh object's.
  SparseBuilder small(3);
  small.Add(0, 0, 2.0);
  small.Add(1, 1, 3.0);
  small.Add(2, 2, 4.0);
  SparseLu reused;
  ASSERT_TRUE(reused.Factor(small).ok());

  const size_t n = 48;
  SparseBuilder big = RandomMnaLike(n, 4242);
  ASSERT_TRUE(reused.Refactor(big).ok());  // dimension 3 -> 48: fallback
  SparseLu fresh;
  ASSERT_TRUE(fresh.Factor(big).ok());

  util::Rng rng(99);
  Vector rhs(n);
  for (double& v : rhs) v = rng.NextDouble(-5, 5);
  auto xr = reused.Solve(rhs);
  auto xf = fresh.Solve(rhs);
  ASSERT_TRUE(xr.ok() && xf.ok());
  for (size_t i = 0; i < n; ++i) EXPECT_EQ((*xr)[i], (*xf)[i]) << i;
}

TEST(SparseLuRefactor, BadPivotFallbackMatchesFreshFactorBitExact) {
  const size_t n = 32;
  SparseBuilder a = RandomMnaLike(n, 17);
  SparseLu reused;
  ASSERT_TRUE(reused.Factor(a).ok());

  // Degenerate value set on the same pattern: zero out the diagonal the
  // memorized pivot order leans on, forcing the repivot fallback.
  SparseBuilder b = RandomMnaLike(n, 17);
  for (size_t i = 0; i + 1 < n; i += 2) b.Add(i, i, -b.ToDense()(i, i));
  ASSERT_TRUE(reused.Refactor(b).ok());
  SparseLu fresh;
  ASSERT_TRUE(fresh.Factor(b).ok());

  Vector rhs(n, 1.0);
  auto xr = reused.Solve(rhs);
  auto xf = fresh.Solve(rhs);
  ASSERT_TRUE(xr.ok() && xf.ok());
  for (size_t i = 0; i < n; ++i) EXPECT_EQ((*xr)[i], (*xf)[i]) << i;
}

}  // namespace
}  // namespace cmldft::linalg
