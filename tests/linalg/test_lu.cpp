#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/rng.hpp"
#include "util/error.hpp"

namespace vsstat::linalg {
namespace {

TEST(DenseLu, SolvesSmallSystem) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = DenseLu(a).solve({3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(DenseLu, SolvesWithPivoting) {
  // Leading zero forces a row swap.
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = DenseLu(a).solve({2.0, 3.0});
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(DenseLu, DetectsSingularMatrix) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(DenseLu{a}, ConvergenceError);
  EXPECT_THROW(DenseLu{a}, SingularMatrixError);
}

TEST(DenseLu, NanPivotIsSingular) {
  // `best > tol` is false for NaN: a NaN pivot column reports singularity
  // instead of writing NaN through the factors.
  const Matrix a{{std::nan(""), 1.0}, {0.5, 2.0}};
  EXPECT_THROW(DenseLu{a}, SingularMatrixError);
}

TEST(DenseLu, RejectsNonSquare) {
  EXPECT_THROW(DenseLu{Matrix(2, 3)}, InvalidArgumentError);
}

TEST(DenseLu, DeterminantOfKnownMatrix) {
  const Matrix a{{4.0, 3.0}, {6.0, 3.0}};
  EXPECT_NEAR(DenseLu(a).determinant(), -6.0, 1e-12);
}

TEST(DenseLu, ReusableForMultipleRhs) {
  const DenseLu lu(Matrix{{2.0, 0.0}, {0.0, 4.0}});
  EXPECT_DOUBLE_EQ(lu.solve({2.0, 4.0})[0], 1.0);
  EXPECT_DOUBLE_EQ(lu.solve({4.0, 8.0})[1], 2.0);
}

TEST(DenseLu, RandomSystemsRoundTrip) {
  stats::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.below(10);
    Matrix a(n, n);
    Vector xTrue(n);
    for (std::size_t i = 0; i < n; ++i) {
      xTrue[i] = rng.uniform(-2.0, 2.0);
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
      a(i, i) += static_cast<double>(n);  // diagonally dominant
    }
    const Vector b = a * xTrue;
    const Vector x = DenseLu(a).solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xTrue[i], 1e-9);
  }
}

TEST(DenseLu, InPlaceKernelMatchesTheClass) {
  // The raw-storage kernel pair is what levenbergMarquardt runs on its
  // workspace: factor n x n row-major storage in place, then solve.  It
  // must agree bit for bit with the class, which wraps the same kernel.
  const Matrix a{{1.0, 4.0, -2.0}, {3.0, 0.5, 1.0}, {-2.0, 1.0, 5.0}};
  const Vector b{1.0, -2.0, 0.5};
  Vector storage(a.data(), a.data() + 9);
  std::vector<std::size_t> pivots(3);
  ASSERT_EQ(DenseLu::factorInPlace(storage.data(), pivots.data(), 3, 0.0), 3u);
  EXPECT_EQ(pivots[0], 1u);  // |3.0| is the largest in column 0
  Vector x = b;
  DenseLu::solveFactored(storage.data(), pivots.data(), x.data(), 3);
  EXPECT_EQ(x, DenseLu(a).solve(b));
  const Vector r = a * x;
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(r[i], b[i], 1e-14);
}

TEST(DenseLu, InPlaceKernelReportsTheSingularColumn) {
  // Column 1 is zero below the first pivot: the kernel stops there, with
  // no tolerance (LM's setting), instead of dividing by zero.
  Vector storage{2.0, 1.0, 4.0, 2.0};
  std::vector<std::size_t> pivots(2);
  EXPECT_EQ(DenseLu::factorInPlace(storage.data(), pivots.data(), 2, 0.0), 1u);
  Vector nanColumn{std::nan(""), 1.0, 1.0, 2.0};
  EXPECT_EQ(DenseLu::factorInPlace(nanColumn.data(), pivots.data(), 2, 0.0),
            0u);
}

}  // namespace
}  // namespace vsstat::linalg
