// Dense LU factorization with partial pivoting: the one dense LU beside
// linalg::SparseLu.  It is the dense oracle the sparse engine is tested
// against, and its raw-storage kernel is the Levenberg-Marquardt
// normal-equation solve (linalg/levmar.hpp), which runs it in place on the
// solver's workspace so a steady-state fit stays allocation-free.
#ifndef VSSTAT_LINALG_LU_HPP
#define VSSTAT_LINALG_LU_HPP

#include <vector>

#include "linalg/matrix.hpp"

namespace vsstat::linalg {

/// Factorization object; reusable for multiple right-hand sides and -- via
/// refactor() -- for repeated factorizations of same-size matrices without
/// reallocating the LU storage or pivot array.
class DenseLu {
 public:
  /// Empty factorization; call refactor() before solving.
  DenseLu() = default;

  /// Factors a square matrix.  Throws SingularMatrixError (a
  /// ConvergenceError) on numerical singularity, i.e. a pivot column whose
  /// largest magnitude is not above `pivotTolerance` (or is NaN).
  explicit DenseLu(Matrix a, double pivotTolerance = 1e-14);

  /// Re-factors in place, reusing the existing LU/pivot storage when `a`
  /// matches the previous size (zero heap allocations in that case).
  /// Throws SingularMatrixError on singularity, like the constructor.
  void refactor(const Matrix& a, double pivotTolerance = 1e-14);

  /// Solves A x = b.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Solves in place: x is the right-hand side on entry, solution on exit.
  void solveInPlace(Vector& x) const;

  [[nodiscard]] double determinant() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return lu_.rows(); }

  /// The kernel behind the class, on caller-owned storage.  Factors the
  /// n x n row-major `a` in place into PA = LU (unit-lower L below the
  /// diagonal, U on and above; pivots[k] is the row swapped into row k).
  /// Returns the number of columns eliminated: n on success, or the index
  /// of the first column whose largest magnitude is not above
  /// `pivotTolerance` -- which also catches zero and NaN pivots -- with `a`
  /// left partially eliminated.  Allocation-free.
  static std::size_t factorInPlace(double* a, std::size_t* pivots,
                                   std::size_t n,
                                   double pivotTolerance) noexcept;

  /// Solves with factorInPlace()'s output: b is the right-hand side on
  /// entry, the solution on exit.  Allocation-free.
  static void solveFactored(const double* lu, const std::size_t* pivots,
                            double* b, std::size_t n) noexcept;

 private:
  void factorize(double pivotTolerance);

  Matrix lu_;
  std::vector<std::size_t> pivots_;
};

}  // namespace vsstat::linalg

#endif  // VSSTAT_LINALG_LU_HPP
