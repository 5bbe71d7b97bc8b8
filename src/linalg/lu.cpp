#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace vsstat::linalg {

DenseLu::DenseLu(Matrix a, double pivotTolerance) : lu_(std::move(a)) {
  factorize(pivotTolerance);
}

void DenseLu::refactor(const Matrix& a, double pivotTolerance) {
  require(a.rows() == a.cols(), "DenseLu: matrix must be square");
  const std::size_t n = a.rows();
  if (lu_.rows() != n || lu_.cols() != n) {
    lu_ = Matrix(n, n);
  }
  std::copy(a.data(), a.data() + n * n, lu_.data());
  factorize(pivotTolerance);
}

void DenseLu::factorize(double pivotTolerance) {
  require(lu_.rows() == lu_.cols(), "DenseLu: matrix must be square");
  const std::size_t n = lu_.rows();
  pivots_.resize(n);
  const std::size_t done =
      factorInPlace(lu_.data(), pivots_.data(), n, pivotTolerance);
  if (done < n) {
    throw SingularMatrixError(
        "DenseLu: matrix is singular to working precision",
        static_cast<int>(done));
  }
}

std::size_t DenseLu::factorInPlace(double* a, std::size_t* pivots,
                                   std::size_t n,
                                   double pivotTolerance) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at/below the diagonal.
    std::size_t p = k;
    double best = std::fabs(a[k * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(a[i * n + k]);
      if (v > best) {
        best = v;
        p = i;
      }
    }
    // Negated comparison so a NaN pivot is caught as well as a zero one.
    if (!(best > pivotTolerance)) return k;
    pivots[k] = p;
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a[k * n + j], a[p * n + j]);
    }
    const double inv = 1.0 / a[k * n + k];
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = a[i * n + k] * inv;
      a[i * n + k] = f;
      if (f == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) a[i * n + j] -= f * a[k * n + j];
    }
  }
  return n;
}

void DenseLu::solveFactored(const double* lu, const std::size_t* pivots,
                            double* b, std::size_t n) noexcept {
  // Row interchanges, then the column sweep of L's multipliers (unit
  // diagonal): per entry, the same subtractions in the same order as
  // eliminating b alongside the matrix would perform.
  for (std::size_t k = 0; k < n; ++k) {
    if (pivots[k] != k) std::swap(b[k], b[pivots[k]]);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = lu[i * n + k];
      if (f == 0.0) continue;
      b[i] -= f * b[k];
    }
  }
  for (std::size_t k = n; k-- > 0;) {
    double s = b[k];
    for (std::size_t j = k + 1; j < n; ++j) s -= lu[k * n + j] * b[j];
    b[k] = s / lu[k * n + k];
  }
}

Vector DenseLu::solve(const Vector& b) const {
  Vector x = b;
  solveInPlace(x);
  return x;
}

void DenseLu::solveInPlace(Vector& x) const {
  require(x.size() == lu_.rows(), "DenseLu solve: rhs size mismatch");
  solveFactored(lu_.data(), pivots_.data(), x.data(), x.size());
}

double DenseLu::determinant() const noexcept {
  double d = 1.0;
  for (std::size_t i = 0; i < lu_.rows(); ++i) {
    d *= lu_(i, i);
    if (pivots_[i] != i) d = -d;
  }
  return d;
}

}  // namespace vsstat::linalg
