#include "linalg/ordering.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace vsstat::linalg {

int permutationSign(const std::vector<std::size_t>& perm) {
  const std::size_t n = perm.size();
  std::vector<char> seen(n, 0);
  int sign = 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (seen[i]) continue;
    std::size_t len = 0;
    std::size_t j = i;
    while (!seen[j]) {
      seen[j] = 1;
      j = perm[j];
      ++len;
    }
    if (len % 2 == 0) sign = -sign;
  }
  return sign;
}

namespace {

using Index = std::int64_t;

// Node states, kept in elen (a variable's element count when >= 0).
constexpr Index kElement = -1;  ///< an element: an eliminated pivot's clique
constexpr Index kGone = -2;     ///< absorbed element, merged or eliminated
                                ///< variable
constexpr Index kDense = -3;    ///< dense row, postponed to the end

/// Indexed binary min-heap of variables keyed by (approximate degree,
/// index): the top is always the lowest-index variable of minimum degree.
/// A key may only change while its variable is out of the heap.
class DegreeHeap {
 public:
  DegreeHeap(Index* heap, Index* slot, const Index* degree)
      : heap_(heap), slot_(slot), degree_(degree) {}

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  void push(Index v) noexcept {
    ++size_;
    siftUp(v, size_ - 1);
  }

  Index pop() noexcept {
    const Index top = heap_[0];
    slot_[top] = -1;
    if (--size_ > 0) siftDown(heap_[size_], 0);
    return top;
  }

  void remove(Index v) noexcept {
    const Index s = slot_[v];
    if (s < 0) return;
    slot_[v] = -1;
    if (--size_ == s) return;
    const Index last = heap_[size_];
    if (s > 0 && before(last, heap_[(s - 1) / 2])) {
      siftUp(last, s);
    } else {
      siftDown(last, s);
    }
  }

 private:
  [[nodiscard]] bool before(Index a, Index b) const noexcept {
    return degree_[a] < degree_[b] || (degree_[a] == degree_[b] && a < b);
  }
  void place(Index v, Index s) noexcept {
    heap_[s] = v;
    slot_[v] = s;
  }
  void siftUp(Index v, Index s) noexcept {
    while (s > 0) {
      const Index parent = (s - 1) / 2;
      if (!before(v, heap_[parent])) break;
      place(heap_[parent], s);
      s = parent;
    }
    place(v, s);
  }
  void siftDown(Index v, Index s) noexcept {
    for (;;) {
      Index child = 2 * s + 1;
      if (child >= size_) break;
      if (child + 1 < size_ && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], v)) break;
      place(heap_[child], s);
      s = child;
    }
    place(v, s);
  }

  Index* heap_;
  Index* slot_;
  const Index* degree_;
  Index size_ = 0;
};

}  // namespace

// Approximate minimum degree (Amestoy, Davis & Duff, SIAM J. Matrix Anal.
// Appl. 17(4), 1996) on the quotient graph of A + A^T.
//
// Every node is a variable (not yet eliminated) or an element (the clique an
// eliminated pivot left behind).  A variable's list in iw holds its adjacent
// elements first (elen of them), then its adjacent variables; an element's
// list holds its variables.  Eliminating pivot p turns p into an element
// whose variables Lp are the union of p's variables and the variables of
// every element adjacent to p, and those elements are absorbed into p -- so
// the graph never grows past its initial size and fill is never formed
// explicitly.  Around that core:
//
//   * approximate external degrees -- for each i in Lp,
//       d(i) = min(n_left, d_old(i) + |Lp \ i|,
//                  |A_i \ Lp| + |Lp \ i| + sum_{e in E_i} |L_e \ Lp|),
//     with every |L_e \ Lp| from one pass over the elements of Lp's
//     variables (the w array, offset by wflg so it is never cleared);
//   * aggressive element absorption -- an element with L_e inside Lp is
//     absorbed into p on sight;
//   * supervariables -- variables of Lp with identical lists (found by
//     hashing, confirmed by comparison) merge and are eliminated together,
//     and a variable adjacent to p alone is eliminated with p (mass
//     elimination);
//   * dense-row postponement -- a row with more than max(16, 10 sqrt(n))
//     off-diagonal neighbors leaves the graph and is ordered last.
//
// Everything lives in one flat workspace, so even a 10-node pattern pays a
// single allocation.  The lists need no more room than the initial graph
// plus one new element at a time; when the tail runs out the lists are
// compacted in place.
FillOrder minDegreeOrder(const SparsePattern& pattern) {
  const Index n = static_cast<Index>(pattern.size());
  FillOrder out;
  out.perm.reserve(pattern.size());

  const auto& rows = pattern.rowIndex();
  const auto& cols = pattern.colIndex();
  const std::size_t nnz = pattern.nonZeroCount();
  Index offDiagonal = 0;
  for (std::size_t s = 0; s < nnz; ++s) offDiagonal += rows[s] != cols[s];
  const Index raw = 2 * offDiagonal;  // (r, c) and (c, r), duplicates kept
  const Index iwlen = raw + raw / 5 + n;

  std::vector<Index> workspace(static_cast<std::size_t>(13 * n + iwlen), 0);
  Index* const pe = workspace.data();  // start of each node's list in iw
  Index* const len = pe + n;           // list length
  Index* const elen = len + n;         // elements in a variable's list / state
  Index* const nv = elen + n;          // supervariable size (<0: inside Lp)
  Index* const degree = nv + n;        // approx. external degree; |L_e|
  Index* const w = degree + n;         // |L_e \ Lp| + wflg; list marks
  Index* const hashHead = w + n;       // supervariable hash buckets
  Index* const hashNext = hashHead + n;
  Index* const hashOf = hashNext + n;
  Index* const memberNext = hashOf + n;  // variables of a supervariable
  Index* const memberTail = memberNext + n;
  Index* const heapSlots = memberTail + n;
  Index* const heapSlot = heapSlots + n;
  Index* const iw = heapSlot + n;

  // Symmetrized adjacency of A + A^T without self-loops, then deduplicated
  // in place (w marks the neighbors already kept).
  for (std::size_t s = 0; s < nnz; ++s) {
    if (rows[s] == cols[s]) continue;
    ++len[rows[s]];
    ++len[cols[s]];
  }
  Index pfree = 0;
  for (Index i = 0; i < n; ++i) {
    pe[i] = pfree;
    pfree += len[i];
    len[i] = 0;
  }
  for (std::size_t s = 0; s < nnz; ++s) {
    const Index r = static_cast<Index>(rows[s]);
    const Index c = static_cast<Index>(cols[s]);
    if (r == c) continue;
    iw[pe[r] + len[r]++] = c;
    iw[pe[c] + len[c]++] = r;
  }
  for (Index i = 0; i < n; ++i) {
    Index kept = pe[i];
    for (Index k = pe[i], end = pe[i] + len[i]; k < end; ++k) {
      const Index j = iw[k];
      if (w[j] == i + 1) continue;
      w[j] = i + 1;
      iw[kept++] = j;
    }
    len[i] = kept - pe[i];
  }

  // Dense rows leave the graph; every other list forgets them.
  const Index dense = std::max<Index>(
      16, static_cast<Index>(10.0 * std::sqrt(static_cast<double>(n))));
  Index denseCount = 0;
  for (Index i = 0; i < n; ++i) {
    if (len[i] > dense) {
      elen[i] = kDense;
      ++denseCount;
    }
  }
  if (denseCount > 0) {
    for (Index i = 0; i < n; ++i) {
      if (elen[i] == kDense) continue;
      Index kept = pe[i];
      for (Index k = pe[i], end = pe[i] + len[i]; k < end; ++k)
        if (elen[iw[k]] != kDense) iw[kept++] = iw[k];
      len[i] = kept - pe[i];
    }
  }

  DegreeHeap heap(heapSlots, heapSlot, degree);
  for (Index i = 0; i < n; ++i) {
    w[i] = 0;
    hashHead[i] = -1;
    memberNext[i] = -1;
    memberTail[i] = i;
    heapSlot[i] = -1;
    if (elen[i] == kDense) continue;
    nv[i] = 1;
    degree[i] = len[i];
    heap.push(i);
  }

  const auto appendMembers = [&](Index to, Index from) {
    memberNext[memberTail[to]] = from;
    memberTail[to] = memberTail[from];
  };

  // Compacts every live list to the front of iw.  A live list's first entry
  // is parked in pe and replaced by the flipped owner, which a linear scan
  // then recognizes as a list start.
  const auto compactLists = [&] {
    for (Index i = 0; i < n; ++i) {
      if ((elen[i] >= 0 || elen[i] == kElement) && len[i] > 0) {
        const Index start = pe[i];
        pe[i] = iw[start];
        iw[start] = -i - 1;
      }
    }
    Index dst = 0;
    for (Index src = 0; src < pfree;) {
      if (iw[src] >= 0) {
        ++src;
        continue;
      }
      const Index i = -iw[src] - 1;
      iw[dst] = pe[i];
      pe[i] = dst;
      for (Index k = 1; k < len[i]; ++k) iw[dst + k] = iw[src + k];
      dst += len[i];
      src += len[i];
    }
    pfree = dst;
  };

  const Index nLive = n - denseCount;
  Index eliminated = 0;  // weight of the variables ordered so far
  Index lemax = 0;       // largest element degree so far
  Index wflg = 1;        // w[x] < wflg means "unset in this step"

  while (!heap.empty()) {
    // --- pick the pivot and build its element Lp -----------------------
    const Index p = heap.pop();
    const Index elenp = elen[p];
    Index nvpiv = nv[p];
    eliminated += nvpiv;
    nv[p] = -nvpiv;
    Index degme = 0;  // weighted |Lp|
    Index pme1 = 0;
    Index pme2 = 0;
    // A principal variable joins Lp once: nv < 0 marks membership.
    const auto addToLp = [&](Index i) {
      const Index nvi = nv[i];
      if (nvi <= 0) return;
      degme += nvi;
      nv[i] = -nvi;
      iw[pme2++] = i;
      heap.remove(i);
    };
    if (elenp == 0) {
      // No adjacent element: Lp is p's own variable list, built in place.
      pme1 = pe[p];
      pme2 = pme1;
      for (Index k = pe[p], end = pe[p] + len[p]; k < end; ++k)
        addToLp(iw[k]);
    } else {
      Index bound = len[p] - elenp;
      for (Index k = pe[p], end = pe[p] + elenp; k < end; ++k)
        if (elen[iw[k]] == kElement) bound += len[iw[k]];
      if (pfree + std::min(bound, n) > iwlen) compactLists();
      pme1 = pfree;
      pme2 = pme1;
      for (Index k = pe[p], end = pe[p] + len[p]; k < end; ++k) {
        const Index x = iw[k];
        if (k - pe[p] >= elenp) {
          addToLp(x);
        } else if (elen[x] == kElement) {
          for (Index q = pe[x], qend = pe[x] + len[x]; q < qend; ++q)
            addToLp(iw[q]);
          elen[x] = kGone;  // absorbed into p
        }
      }
      pfree = pme2;
    }
    elen[p] = kElement;
    pe[p] = pme1;

    // --- w[e] - wflg = |L_e \ Lp| for every element next to Lp ----------
    for (Index k = pme1; k < pme2; ++k) {
      const Index i = iw[k];
      const Index nvi = -nv[i];
      for (Index q = pe[i], end = pe[i] + elen[i]; q < end; ++q) {
        const Index e = iw[q];
        if (elen[e] != kElement) continue;
        w[e] = w[e] >= wflg ? w[e] - nvi : degree[e] + wflg - nvi;
      }
    }

    // --- degree update, list pruning, mass elimination --------------------
    for (Index k = pme1; k < pme2; ++k) {
      const Index i = iw[k];
      const Index p1 = pe[i];
      const Index p2 = p1 + elen[i];
      const Index p4 = p1 + len[i];
      Index pn = p1;
      Index deg = 0;
      std::uint64_t hash = 0;
      for (Index q = p1; q < p2; ++q) {
        const Index e = iw[q];
        if (elen[e] != kElement) continue;
        const Index external = w[e] - wflg;
        if (external > 0) {
          deg += external;
          iw[pn++] = e;
          hash += static_cast<std::uint64_t>(e);
        } else {
          elen[e] = kGone;  // L_e inside Lp: aggressive absorption
        }
      }
      const Index elements = pn - p1 + 1;  // the kept ones plus p
      const Index p3 = pn;
      for (Index q = p2; q < p4; ++q) {
        const Index j = iw[q];
        if (nv[j] <= 0) continue;  // in Lp (p's element covers it) or merged
        deg += nv[j];
        iw[pn++] = j;
        hash += static_cast<std::uint64_t>(j);
      }
      if (elements == 1 && p3 == pn) {
        // Adjacent to p alone: eliminate i together with p, no extra fill.
        const Index nvi = -nv[i];
        degme -= nvi;
        nvpiv += nvi;
        eliminated += nvi;
        nv[i] = 0;
        elen[i] = kGone;
        appendMembers(p, i);
        continue;
      }
      degree[i] = std::min(degree[i], deg);
      // p goes first.  There is room: i lost p from its variables or an
      // absorbed element of p from its elements.
      iw[pn] = iw[p3];
      iw[p3] = iw[p1];
      iw[p1] = p;
      ++pn;
      len[i] = pn - p1;
      elen[i] = elements;
      const auto bucket =
          static_cast<Index>(hash % static_cast<std::uint64_t>(n));
      hashOf[i] = bucket;
      hashNext[i] = hashHead[bucket];
      hashHead[bucket] = i;
    }
    degree[p] = degme;
    lemax = std::max(lemax, degme);
    wflg += lemax;  // every w[e] set above is now stale

    // --- supervariable detection: merge indistinguishable variables -----
    for (Index k = pme1; k < pme2; ++k) {
      const Index i = iw[k];
      if (nv[i] >= 0) continue;  // mass-eliminated or merged
      const Index bucket = hashOf[i];
      const Index first = hashHead[bucket];
      if (first < 0) continue;
      hashHead[bucket] = -1;
      for (Index a = first; a >= 0 && hashNext[a] >= 0; a = hashNext[a]) {
        // Every list starts with p, so compare from the second entry on.
        for (Index q = pe[a] + 1, end = pe[a] + len[a]; q < end; ++q)
          w[iw[q]] = wflg;
        Index prev = a;
        for (Index b = hashNext[a]; b >= 0;) {
          const Index next = hashNext[b];
          bool same = len[b] == len[a] && elen[b] == elen[a];
          for (Index q = pe[b] + 1, end = pe[b] + len[b]; same && q < end; ++q)
            same = w[iw[q]] == wflg;
          if (same) {
            nv[a] += nv[b];  // both negative while in Lp
            nv[b] = 0;
            elen[b] = kGone;
            appendMembers(a, b);
            hashNext[prev] = next;
          } else {
            prev = b;
          }
          b = next;
        }
        ++wflg;
      }
    }

    // --- final degrees; Lp keeps its principal variables only -----------
    const Index left = nLive - eliminated;
    Index kept = pme1;
    for (Index k = pme1; k < pme2; ++k) {
      const Index i = iw[k];
      const Index nvi = -nv[i];
      if (nvi <= 0) continue;
      nv[i] = nvi;
      degree[i] = std::min(degree[i] + degme - nvi, left - nvi);
      heap.push(i);
      iw[kept++] = i;
    }
    nv[p] = nvpiv;
    len[p] = kept - pme1;
    if (len[p] == 0) elen[p] = kGone;
    if (elenp != 0) pfree = kept;

    for (Index v = p; v >= 0; v = memberNext[v])
      out.perm.push_back(static_cast<std::size_t>(v));
  }

  // Dense rows last, in index order.
  for (Index i = 0; i < n; ++i)
    if (elen[i] == kDense) out.perm.push_back(static_cast<std::size_t>(i));

  out.sign = permutationSign(out.perm);
  return out;
}

}  // namespace vsstat::linalg
