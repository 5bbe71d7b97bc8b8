#include "linalg/sparse_lu.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "linalg/ordering.hpp"
#include "util/error.hpp"

namespace vsstat::linalg {

namespace {

std::uint64_t microsSince(
    const std::chrono::steady_clock::time_point& t0) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

void SparseLu::refactor(const SparseMatrix& m, double pivotTolerance) {
  if (mode_ == SolverMode::reusePivot) {
    refactorReusingPivots(m, pivotTolerance);
    return;
  }
  const SparsePattern& pattern = m.pattern();
  require(!pattern.empty(), "SparseLu: empty pattern");
  if (pattern_ != &pattern || n_ != pattern.size()) {
    fullFactor(m, pivotTolerance);
    return;
  }
  if (!fastRefactor(m, pivotTolerance, 0.0)) {
    // Pivot order went stale for the current values: re-pivot from scratch.
    fullFactor(m, pivotTolerance);
  }
}

void SparseLu::refactorReusingPivots(const SparseMatrix& m,
                                     double pivotTolerance) {
  const SparsePattern& pattern = m.pattern();
  require(!pattern.empty(), "SparseLu: empty pattern");
  if (pattern_ != &pattern || n_ != pattern.size()) {
    fullFactor(m, pivotTolerance);
    return;
  }
  if (!fastRefactor(m, pivotTolerance, kGrowthLimit)) {
    // Monitor breakdown: the reused order hit a near-zero pivot or grew the
    // factor past the growth limit for these values.  Abandon it and derive
    // a fresh order from the values themselves; restorePivotSnapshot()
    // brings the canonical order back at the next solve boundary.
    ++pivotFallbacks_;
    fullFactor(m, pivotTolerance);
  }
}

void SparseLu::snapshotPivotOrder() {
  require(pattern_ != nullptr, "SparseLu: snapshot before factorization");
  snapshot_.pattern = pattern_;
  snapshot_.n = n_;
  snapshot_.patternNnz = patternNnz_;
  snapshot_.rowPerm = rowPerm_;
  snapshot_.permInv = permInv_;
  snapshot_.permSign = permSign_;
  snapshot_.lColStart = lColStart_;
  snapshot_.lRowIdx = lRowIdx_;
  snapshot_.uColStart = uColStart_;
  snapshot_.uRowIdx = uRowIdx_;
  snapshot_.colPerm = colPerm_;
  snapshot_.colSign = colSign_;
  snapshot_.aColStart = aColStart_;
  snapshot_.aRowIdx = aRowIdx_;
  snapshot_.aSlotIdx = aSlotIdx_;
  snapshotValid_ = true;
  divergedFromSnapshot_ = false;
}

void SparseLu::restorePivotSnapshot() noexcept {
  if (!snapshotValid_) {
    // No canonical order to reuse: behave like a fresh-mode solve boundary.
    reset();
    return;
  }
  if (!divergedFromSnapshot_) {
    // Steady state: the live structure IS the snapshot; just make sure a
    // reset() between solves (e.g. a mixed-mode caller) is undone.
    pattern_ = snapshot_.pattern;
    return;
  }
  // A breakdown re-pivot replaced the structure mid-solve; copy the
  // canonical one back.  assign()/resize() reuse capacity -- the vectors
  // were sized by a factorization of the same pattern, so no steady-state
  // allocation happens here either.  The value arrays only need their
  // sizes restored: the next refactor overwrites every slot.
  n_ = snapshot_.n;
  patternNnz_ = snapshot_.patternNnz;
  rowPerm_.assign(snapshot_.rowPerm.begin(), snapshot_.rowPerm.end());
  permInv_.assign(snapshot_.permInv.begin(), snapshot_.permInv.end());
  permSign_ = snapshot_.permSign;
  lColStart_.assign(snapshot_.lColStart.begin(), snapshot_.lColStart.end());
  lRowIdx_.assign(snapshot_.lRowIdx.begin(), snapshot_.lRowIdx.end());
  uColStart_.assign(snapshot_.uColStart.begin(), snapshot_.uColStart.end());
  uRowIdx_.assign(snapshot_.uRowIdx.begin(), snapshot_.uRowIdx.end());
  lValues_.resize(lRowIdx_.size());
  uValues_.resize(uRowIdx_.size());
  uDiag_.resize(n_);
  colPerm_.assign(snapshot_.colPerm.begin(), snapshot_.colPerm.end());
  colSign_ = snapshot_.colSign;
  aColStart_.assign(snapshot_.aColStart.begin(), snapshot_.aColStart.end());
  aRowIdx_.assign(snapshot_.aRowIdx.begin(), snapshot_.aRowIdx.end());
  aSlotIdx_.assign(snapshot_.aSlotIdx.begin(), snapshot_.aSlotIdx.end());
  orderPattern_ = snapshot_.pattern;
  orderN_ = snapshot_.n;
  orderNnz_ = snapshot_.patternNnz;
  pattern_ = snapshot_.pattern;
  divergedFromSnapshot_ = false;
}

void SparseLu::ensureOrdering(const SparsePattern& pattern) {
  if (orderPattern_ == &pattern && orderN_ == pattern.size() &&
      orderNnz_ == pattern.nonZeroCount()) {
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  FillOrder order = minDegreeOrder(pattern);
  colPerm_ = std::move(order.perm);
  colSign_ = order.sign;

  // Column-major access of the pattern slots.  The CSR pattern is sorted by
  // (row, col), so a single ascending slot scan lands each column's entries
  // in ascending row order.
  const std::size_t n = pattern.size();
  const std::size_t nnz = pattern.nonZeroCount();
  const auto& rows = pattern.rowIndex();
  const auto& cols = pattern.colIndex();
  aColStart_.assign(n + 1, 0);
  for (std::size_t s = 0; s < nnz; ++s) ++aColStart_[cols[s] + 1];
  for (std::size_t c = 0; c < n; ++c) aColStart_[c + 1] += aColStart_[c];
  aRowIdx_.resize(nnz);
  aSlotIdx_.resize(nnz);
  std::vector<std::size_t> fill(aColStart_.begin(), aColStart_.end() - 1);
  for (std::size_t s = 0; s < nnz; ++s) {
    const std::size_t c = cols[s];
    aRowIdx_[fill[c]] = rows[s];
    aSlotIdx_[fill[c]] = s;
    ++fill[c];
  }
  orderPattern_ = &pattern;
  orderN_ = n;
  orderNnz_ = nnz;
  orderingMicros_ += microsSince(t0);
}

void SparseLu::fullFactor(const SparseMatrix& m, double pivotTolerance) {
  const SparsePattern& pattern = m.pattern();
  const std::size_t n = pattern.size();
  const auto t0 = std::chrono::steady_clock::now();
  n_ = n;
  pattern_ = nullptr;  // not analyzed until this factorization succeeds
  if (snapshotValid_) divergedFromSnapshot_ = true;

  ensureOrdering(pattern);

  if (x_.size() != n) {
    x_.assign(n, 0.0);
    visited_.assign(n, 0);
  }
  xi_.resize(n);
  dfsStack_.resize(n);
  dfsPos_.resize(n);
  rowPerm_.resize(n);
  permInv_.assign(n, -1);
  work_.resize(n);
  lColStart_.resize(n + 1);
  uColStart_.resize(n + 1);
  lColStart_[0] = 0;
  uColStart_[0] = 0;
  lRowIdx_.clear();
  lValues_.clear();
  uRowIdx_.clear();
  uValues_.clear();
  uDiag_.resize(n);

  const auto& values = m.values();

  // Gilbert-Peierls left-looking factorization of PAQ with row partial
  // pivoting.  During the sweep, L's row indices are ORIGINAL rows (the
  // final pivotal relabeling happens only after every row is pivotal);
  // permInv_[i] >= 0 marks row i as pivotal and doubles as the "has an L
  // column" test the DFS descends through.
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t j = colPerm_[k];

    // --- symbolic: reach of column j's pattern through the graph of L ------
    // xi_[top..n) receives the reach in topological order (parents before
    // the rows that depend on them), which is the order the numeric solve
    // below must visit.
    std::size_t top = n;
    for (std::size_t p = aColStart_[j]; p < aColStart_[j + 1]; ++p) {
      const std::size_t start = aRowIdx_[p];
      if (visited_[start]) continue;
      // Iterative DFS; dfsStack_ holds the path, dfsPos_ the next child.
      std::size_t head = 0;
      dfsStack_[0] = start;
      visited_[start] = 1;
      dfsPos_[0] =
          permInv_[start] >= 0 ? lColStart_[permInv_[start]] : 0;
      while (true) {
        const std::size_t i = dfsStack_[head];
        const std::int32_t kk = permInv_[i];
        bool descended = false;
        if (kk >= 0) {
          std::size_t q = dfsPos_[head];
          const std::size_t qEnd = lColStart_[static_cast<std::size_t>(kk) + 1];
          while (q < qEnd) {
            const std::size_t child = static_cast<std::size_t>(lRowIdx_[q]);
            ++q;
            if (!visited_[child]) {
              dfsPos_[head] = q;
              ++head;
              dfsStack_[head] = child;
              visited_[child] = 1;
              dfsPos_[head] =
                  permInv_[child] >= 0 ? lColStart_[permInv_[child]] : 0;
              descended = true;
              break;
            }
          }
          if (!descended) dfsPos_[head] = qEnd;
        }
        if (!descended) {
          xi_[--top] = i;
          if (head == 0) break;
          --head;
        }
      }
    }

    // --- numeric: sparse lower-triangular solve L x = A(:, j) --------------
    for (std::size_t p = aColStart_[j]; p < aColStart_[j + 1]; ++p)
      x_[aRowIdx_[p]] = values[aSlotIdx_[p]];
    for (std::size_t px = top; px < n; ++px) {
      const std::size_t i = xi_[px];
      const std::int32_t kk = permInv_[i];
      if (kk < 0) continue;
      const double xk = x_[i];
      if (xk == 0.0) continue;
      const std::size_t qEnd = lColStart_[static_cast<std::size_t>(kk) + 1];
      for (std::size_t q = lColStart_[static_cast<std::size_t>(kk)]; q < qEnd;
           ++q) {
        x_[static_cast<std::size_t>(lRowIdx_[q])] -= lValues_[q] * xk;
      }
    }

    // --- pivot: largest magnitude among the not-yet-pivotal rows -----------
    double best = -1.0;
    std::size_t ipiv = n;
    for (std::size_t px = top; px < n; ++px) {
      const std::size_t i = xi_[px];
      if (permInv_[i] >= 0) continue;
      const double v = std::fabs(x_[i]);
      if (v > best) {
        best = v;
        ipiv = i;
      }
    }
    if (ipiv == n || !(best >= pivotTolerance)) {
      // Negated comparison so a NaN column is also caught here instead of
      // silently poisoning the factors.  Restore the all-zero work
      // invariant before reporting: a later factorization must find x_ and
      // visited_ clean.
      for (std::size_t px = top; px < n; ++px) {
        x_[xi_[px]] = 0.0;
        visited_[xi_[px]] = 0;
      }
      throw SingularMatrixError(
          "SparseLu: matrix is singular to working precision",
          static_cast<int>(k));
    }
    const double pivot = x_[ipiv];
    rowPerm_[k] = ipiv;
    permInv_[ipiv] = static_cast<std::int32_t>(k);
    uDiag_[k] = pivot;

    // --- scatter-gather: partition the reach into U(:,k) and L(:,k) --------
    for (std::size_t px = top; px < n; ++px) {
      const std::size_t i = xi_[px];
      if (i != ipiv) {
        const std::int32_t kk = permInv_[i];
        if (kk >= 0) {
          uRowIdx_.push_back(kk);
          uValues_.push_back(x_[i]);
        } else {
          lRowIdx_.push_back(static_cast<std::int32_t>(i));
          lValues_.push_back(x_[i] / pivot);
        }
      }
      x_[i] = 0.0;
      visited_[i] = 0;
    }
    lColStart_[k + 1] = lRowIdx_.size();
    uColStart_[k + 1] = uRowIdx_.size();
  }

  // Relabel L's rows into pivotal order and sort both factors' columns
  // ascending (U's order is what the numeric refactor replays; L's is for
  // locality).  Insertion sort on the parallel arrays: columns are short
  // and nearly sorted, and it allocates nothing.
  for (auto& r : lRowIdx_) r = permInv_[static_cast<std::size_t>(r)];
  const auto sortColumn = [](std::size_t lo, std::size_t hi,
                             std::vector<std::int32_t>& idx,
                             std::vector<double>& val) noexcept {
    for (std::size_t p = lo + 1; p < hi; ++p) {
      const std::int32_t r = idx[p];
      const double v = val[p];
      std::size_t q = p;
      while (q > lo && idx[q - 1] > r) {
        idx[q] = idx[q - 1];
        val[q] = val[q - 1];
        --q;
      }
      idx[q] = r;
      val[q] = v;
    }
  };
  for (std::size_t k = 0; k < n; ++k) {
    sortColumn(lColStart_[k], lColStart_[k + 1], lRowIdx_, lValues_);
    sortColumn(uColStart_[k], uColStart_[k + 1], uRowIdx_, uValues_);
  }
  // Permutation sign by cycle decomposition, using visited_ as the cycle
  // marker (all-zero here by the work-array invariant, re-zeroed after) so
  // the fresh path stays allocation-free in steady state.
  permSign_ = 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (visited_[i]) continue;
    std::size_t len = 0;
    for (std::size_t j = i; !visited_[j]; j = rowPerm_[j]) {
      visited_[j] = 1;
      ++len;
    }
    if (len % 2 == 0) permSign_ = -permSign_;
  }
  std::fill(visited_.begin(), visited_.end(), 0);

  patternNnz_ = pattern.nonZeroCount();
  pattern_ = &pattern;
  ++fullFactors_;
  fullFactorMicros_ += microsSince(t0);
}

bool SparseLu::fastRefactor(const SparseMatrix& m, double pivotTolerance,
                            double growthLimit) noexcept {
  const std::size_t n = n_;
  const auto& values = m.values();
  double* x = x_.data();
  // maxA is only consumed by the growth monitor; the unmonitored (fresh-
  // mode) scatter stays the lean hot path.
  double maxA = 0.0;

  // Replay the numeric sweep over the fixed structure: per pivotal column k,
  // scatter A(:, colPerm_[k]) into pivotal row positions, consume the U
  // entries in ascending pivotal order (each one final when read, because
  // U's columns are sorted), then divide out the pivot into L.  Every
  // touched position is re-zeroed as it is consumed, preserving the
  // all-zero invariant of x_ -- including on the breakdown paths.
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t j = colPerm_[k];
    const std::size_t aEnd = aColStart_[j + 1];
    if (growthLimit > 0.0) {
      for (std::size_t p = aColStart_[j]; p < aEnd; ++p) {
        const double v = values[aSlotIdx_[p]];
        x[permInv_[aRowIdx_[p]]] = v;
        maxA = std::max(maxA, std::fabs(v));
      }
    } else {
      for (std::size_t p = aColStart_[j]; p < aEnd; ++p)
        x[permInv_[aRowIdx_[p]]] = values[aSlotIdx_[p]];
    }

    const std::size_t uEnd = uColStart_[k + 1];
    for (std::size_t p = uColStart_[k]; p < uEnd; ++p) {
      const std::size_t kk = static_cast<std::size_t>(uRowIdx_[p]);
      const double ukj = x[kk];
      uValues_[p] = ukj;
      x[kk] = 0.0;
      if (ukj == 0.0) continue;
      const std::size_t qEnd = lColStart_[kk + 1];
      for (std::size_t q = lColStart_[kk]; q < qEnd; ++q)
        x[static_cast<std::size_t>(lRowIdx_[q])] -= lValues_[q] * ukj;
    }

    const double diag = x[k];
    x[k] = 0.0;
    const std::size_t lEnd = lColStart_[k + 1];
    // Negated form so a NaN diagonal reports breakdown instead of passing.
    if (!(std::fabs(diag) >= pivotTolerance)) {
      for (std::size_t q = lColStart_[k]; q < lEnd; ++q)
        x[static_cast<std::size_t>(lRowIdx_[q])] = 0.0;
      return false;
    }
    uDiag_[k] = diag;
    for (std::size_t q = lColStart_[k]; q < lEnd; ++q) {
      const std::size_t i = static_cast<std::size_t>(lRowIdx_[q]);
      lValues_[q] = x[i] / diag;
      x[i] = 0.0;
    }
  }

  if (growthLimit > 0.0) {
    // Element-growth monitor (pivot-reuse sessions): one O(nnz) post-pass
    // instead of per-update tracking, so the elimination loop above stays
    // identical to the unmonitored fresh-mode path.  Partial pivoting keeps
    // max|LU| / max|A| near 1; a stale order gone degenerate shows up as
    // orders-of-magnitude growth long before results silently degrade.
    double maxLu = 0.0;
    for (const double v : lValues_) maxLu = std::max(maxLu, std::fabs(v));
    for (const double v : uValues_) maxLu = std::max(maxLu, std::fabs(v));
    for (const double v : uDiag_) maxLu = std::max(maxLu, std::fabs(v));
    if (maxLu > growthLimit * maxA) return false;
  }

  ++fastRefactors_;
  return true;
}

void SparseLu::solveInPlace(Vector& x) const {
  const std::size_t n = n_;
  require(pattern_ != nullptr, "SparseLu: solve before factorization");
  require(x.size() == n, "SparseLu: rhs size mismatch");

  // Permute the right-hand side into factorization row order.
  for (std::size_t k = 0; k < n; ++k) work_[k] = x[rowPerm_[k]];

  // Column-sweep forward substitution (L has unit diagonal).
  for (std::size_t k = 0; k < n; ++k) {
    const double xk = work_[k];
    if (xk == 0.0) continue;
    const std::size_t qEnd = lColStart_[k + 1];
    for (std::size_t q = lColStart_[k]; q < qEnd; ++q)
      work_[static_cast<std::size_t>(lRowIdx_[q])] -= lValues_[q] * xk;
  }
  // Column-sweep back substitution.
  for (std::size_t k = n; k-- > 0;) {
    const double xk = work_[k] / uDiag_[k];
    work_[k] = xk;
    if (xk == 0.0) continue;
    const std::size_t qEnd = uColStart_[k + 1];
    for (std::size_t q = uColStart_[k]; q < qEnd; ++q)
      work_[static_cast<std::size_t>(uRowIdx_[q])] -= uValues_[q] * xk;
  }
  // Undo the fill-reducing column permutation.
  for (std::size_t k = 0; k < n; ++k) x[colPerm_[k]] = work_[k];
}

Vector SparseLu::solve(const Vector& b) const {
  Vector x = b;
  solveInPlace(x);
  return x;
}

double SparseLu::determinant() const noexcept {
  double d = permSign_ * colSign_;
  for (std::size_t k = 0; k < n_; ++k) d *= uDiag_[k];
  return d;
}

}  // namespace vsstat::linalg
