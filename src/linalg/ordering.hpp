// Fill-reducing elimination orders for sparse MNA factorization.
//
// A good column order is what makes graph-sparse LU pay: eliminating
// low-degree nodes first keeps the fill-in (and therefore the numeric work
// of every later refactorization) near-linear in the pattern nonzeros on
// grid/mesh-shaped circuits, instead of the O(n^2) fill a natural order can
// produce.  The order is a pure function of the pattern -- no values are
// consulted -- so callers may compute it once per captured MNA pattern and
// reuse it for every sample of a campaign without touching any bit-identity
// contract.
//
// The ordering is not free: it runs inside the first factor of every new
// pattern, so it sits on the latency of every cold solve.  It therefore has
// to scale like the factor, near-linearly in the pattern, which is why it
// is approximate minimum degree rather than an exact-degree elimination.
#ifndef VSSTAT_LINALG_ORDERING_HPP
#define VSSTAT_LINALG_ORDERING_HPP

#include <cstddef>
#include <vector>

#include "linalg/sparse.hpp"

namespace vsstat::linalg {

/// A fill-reducing elimination order.
struct FillOrder {
  /// perm[k] = original index eliminated at step k.
  std::vector<std::size_t> perm;
  /// Parity of the permutation (+1 or -1), for determinants.
  int sign = 1;
};

/// Approximate minimum degree (AMD; Amestoy, Davis & Duff, SIAM J. Matrix
/// Anal. Appl. 17(4), 1996) on the symmetrized graph of A + A^T (self-loops
/// ignored).  It eliminates on a quotient graph -- element absorption,
/// approximate external degrees, supervariables with mass elimination --
/// and orders rows denser than max(16, 10 sqrt(n)) last.  Each step
/// eliminates the lowest-index (super)variable of minimum approximate
/// degree, so the order is deterministic, a pure function of the pattern.
/// Time and memory grow near-linearly with the pattern on mesh- and
/// tree-shaped circuits; tests/linalg/test_ordering.cpp holds its fill to
/// within 5 % of an exact minimum-degree order.
///
/// Row pivoting composes freely with this column order: the factorization
/// pivots PAQ = LU with Q from here and P chosen numerically per column.
[[nodiscard]] FillOrder minDegreeOrder(const SparsePattern& pattern);

/// Parity (+1 / -1) of a permutation given as perm[k] = original index.
[[nodiscard]] int permutationSign(const std::vector<std::size_t>& perm);

}  // namespace vsstat::linalg

#endif  // VSSTAT_LINALG_ORDERING_HPP
