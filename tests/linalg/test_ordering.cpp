// Contract tests for the fill-reducing order (linalg/ordering.hpp).
//
// minDegreeOrder is approximate minimum degree.  Its contract, checked here
// on every grid-ladder fixture and on 200 seeded random patterns:
//
//   * it returns a permutation, and `sign` is that permutation's parity;
//   * it is a pure function of the pattern: a copy at another address
//     orders identically;
//   * its structural fill nnz(L) -- of the Cholesky factor of the permuted
//     A + A^T -- stays within 5 % of the exact-degree, explicit-clique
//     minimum-degree order kept below as the oracle (rounded up to a whole
//     entry: under 20 entries, 5 % is less than one), and within 5 % over
//     the random set as a whole;
//   * degenerate patterns order cleanly: n = 1, diagonal-only, disconnected
//     components, and a dense row/column touching every vertex.
#include "linalg/ordering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "models/vs_model.hpp"
#include "spice/assembler.hpp"

namespace vsstat::linalg {
namespace {

using Coords = std::vector<std::pair<std::size_t, std::size_t>>;

constexpr double kFillSlack = 1.05;

/// Exact greedy minimum degree on the elimination graph of A + A^T: each
/// step eliminates the lowest-index vertex of minimum current degree and
/// joins its neighbors into an explicit clique.  O(n^2 + fill) -- the
/// oracle, not a production path.
std::vector<std::size_t> oracleMinDegreeOrder(const SparsePattern& pattern) {
  const std::size_t n = pattern.size();
  std::vector<std::size_t> perm;
  perm.reserve(n);

  std::vector<std::vector<std::size_t>> adj(n);
  const auto& rows = pattern.rowIndex();
  const auto& cols = pattern.colIndex();
  for (std::size_t s = 0; s < pattern.nonZeroCount(); ++s) {
    if (rows[s] == cols[s]) continue;
    adj[rows[s]].push_back(cols[s]);
    adj[cols[s]].push_back(rows[s]);
  }
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }

  std::vector<char> eliminated(n, 0);
  std::vector<std::size_t> merged;
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    std::size_t bestDeg = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < n; ++i) {
      if (!eliminated[i] && adj[i].size() < bestDeg) {
        bestDeg = adj[i].size();
        best = i;
      }
    }
    perm.push_back(best);
    eliminated[best] = 1;

    // Every surviving neighbor u absorbs (adj[best] \ {u}) and drops best.
    const std::vector<std::size_t>& clique = adj[best];
    for (const std::size_t u : clique) {
      std::vector<std::size_t>& au = adj[u];
      merged.clear();
      std::set_union(au.begin(), au.end(), clique.begin(), clique.end(),
                     std::back_inserter(merged));
      merged.erase(std::remove_if(merged.begin(), merged.end(),
                                  [&](std::size_t v) {
                                    return v == u || v == best;
                                  }),
                   merged.end());
      au.swap(merged);
    }
    adj[best].clear();
  }
  return perm;
}

/// Strictly-lower nnz of the Cholesky factor of P (A + A^T) P^T, where
/// perm[k] is the vertex eliminated at step k: elimination tree (Liu) plus
/// row-subtree counts, O(nnz(L)).
std::size_t structuralFill(const SparsePattern& pattern,
                           const std::vector<std::size_t>& perm) {
  const std::size_t n = pattern.size();
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> rank(n);
  for (std::size_t k = 0; k < n; ++k) rank[perm[k]] = k;
  // Neighbors of each step in the symmetrized graph, in step numbering.
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t s = 0; s < pattern.nonZeroCount(); ++s) {
    const std::size_t r = rank[pattern.rowIndex()[s]];
    const std::size_t c = rank[pattern.colIndex()[s]];
    if (r == c) continue;
    adj[std::max(r, c)].push_back(std::min(r, c));
  }
  std::vector<std::size_t> parent(n, kNone);
  std::vector<std::size_t> ancestor(n, kNone);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t r : adj[k]) {
      while (ancestor[r] != kNone && ancestor[r] != k) {
        const std::size_t next = ancestor[r];
        ancestor[r] = k;
        r = next;
      }
      if (ancestor[r] == kNone) {
        ancestor[r] = k;
        parent[r] = k;
      }
    }
  }
  // Row k of L is the union of the etree paths from its neighbors up to k.
  std::vector<std::size_t> mark(n, kNone);
  std::size_t fill = 0;
  for (std::size_t k = 0; k < n; ++k) {
    mark[k] = k;
    for (std::size_t r : adj[k]) {
      for (; mark[r] != k; r = parent[r]) {
        mark[r] = k;
        ++fill;
      }
    }
  }
  return fill;
}

/// Parity by inversion count: independent of permutationSign's cycle walk.
int inversionSign(const std::vector<std::size_t>& perm) {
  std::size_t inversions = 0;
  for (std::size_t i = 0; i < perm.size(); ++i)
    for (std::size_t j = i + 1; j < perm.size(); ++j)
      inversions += perm[i] > perm[j];
  return inversions % 2 == 0 ? 1 : -1;
}

void expectPermutation(const FillOrder& order, std::size_t n,
                       const std::string& what) {
  ASSERT_EQ(order.perm.size(), n) << what;
  std::vector<char> seen(n, 0);
  for (const std::size_t v : order.perm) {
    ASSERT_LT(v, n) << what;
    ASSERT_FALSE(seen[v]) << what << ": vertex " << v << " ordered twice";
    seen[v] = 1;
  }
}

struct FillPair {
  std::size_t amd = 0;
  std::size_t oracle = 0;
};

/// The full contract on one pattern: permutation, sign, determinism under
/// a copy, and fill within kFillSlack of the oracle.
FillPair expectOrderContract(const SparsePattern& pattern,
                             const std::string& what) {
  const std::size_t n = pattern.size();
  const FillOrder order = minDegreeOrder(pattern);
  expectPermutation(order, n, what);
  if (::testing::Test::HasFatalFailure()) return {};
  EXPECT_EQ(order.sign, inversionSign(order.perm)) << what;

  const SparsePattern copy = pattern;
  EXPECT_EQ(minDegreeOrder(copy).perm, order.perm) << what;

  FillPair fill;
  fill.amd = structuralFill(pattern, order.perm);
  fill.oracle = structuralFill(pattern, oracleMinDegreeOrder(pattern));
  EXPECT_LE(static_cast<double>(fill.amd),
            std::ceil(kFillSlack * static_cast<double>(fill.oracle)))
      << what << ": nnz(L) " << fill.amd << " vs oracle " << fill.oracle;
  return fill;
}

circuits::NominalProvider vsProvider() {
  return circuits::NominalProvider(models::VsModel(models::defaultVsNmos()),
                                   models::VsModel(models::defaultVsPmos()));
}

/// The circuit's MNA pattern as the assembler captures it.
SparsePattern mnaPattern(spice::Circuit& circuit) {
  const spice::detail::Assembler assembler(circuit);
  return assembler.jacobian().pattern();
}

TEST(Ordering, MeshRungsFillWithinOracle) {
  for (const int edge : {10, 32, 64}) {
    auto p = vsProvider();
    auto bench = circuits::buildPowerGridIrDrop(p, edge, edge, 0.9);
    expectOrderContract(mnaPattern(bench.circuit),
                        "mesh " + std::to_string(edge));
  }
}

TEST(Ordering, HTreeFillWithinOracle) {
  for (const int levels : {3, 6, 9}) {
    auto p = vsProvider();
    auto bench = circuits::buildHTreeClock(p, levels, 0.9);
    expectOrderContract(mnaPattern(bench.circuit),
                        "h-tree " + std::to_string(levels));
  }
}

TEST(Ordering, SramColumnBlockArrowFillWithinOracle) {
  for (const int cells : {4, 32}) {
    auto p = vsProvider();
    auto bench =
        circuits::buildSramColumn(p, cells, 0.9, circuits::SramSizing{});
    expectOrderContract(mnaPattern(bench.circuit),
                        "sram column " + std::to_string(cells));
  }
}

TEST(Ordering, AcBlockPatternFillWithinOracle) {
  // The real block form [G -wC; wC G] of the 32x32 mesh, built the way
  // spice::SmallSignalSystem builds it: each MNA slot in all four blocks.
  auto p = vsProvider();
  auto bench = circuits::buildPowerGridIrDrop(p, 32, 32, 0.9);
  const SparsePattern mna = mnaPattern(bench.circuit);
  const std::size_t n = mna.size();
  Coords coords;
  for (std::size_t s = 0; s < mna.nonZeroCount(); ++s) {
    const std::size_t r = mna.rowIndex()[s];
    const std::size_t c = mna.colIndex()[s];
    coords.insert(coords.end(),
                  {{r, c}, {r, c + n}, {r + n, c}, {r + n, c + n}});
  }
  expectOrderContract(SparsePattern(2 * n, coords), "ac block 32x32");
}

TEST(Ordering, SeededRandomPatternsFillWithinOracle) {
  // Unsymmetric random patterns with a full diagonal, 2..161 vertices and
  // mean off-diagonal degree 1..8; every fifth one adds a few hub vertices
  // (the supply-net shape) and every seventh a band (the ladder shape).
  FillPair total;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t n = 2 + rng() % 160;
    const std::size_t edges = n * (1 + rng() % 8) / 2;
    Coords coords;
    for (std::size_t i = 0; i < n; ++i) coords.emplace_back(i, i);
    for (std::size_t e = 0; e < edges; ++e)
      coords.emplace_back(rng() % n, rng() % n);
    if (seed % 5 == 0) {
      for (std::size_t hub = 0; hub < 3; ++hub) {
        const std::size_t h = rng() % n;
        for (std::size_t i = 0; i < n; i += 1 + rng() % 4)
          coords.emplace_back(h, i);
      }
    }
    if (seed % 7 == 0) {
      for (std::size_t i = 0; i + 2 < n; ++i) coords.emplace_back(i + 2, i);
    }
    const FillPair fill = expectOrderContract(
        SparsePattern(n, coords), "random seed " + std::to_string(seed));
    total.amd += fill.amd;
    total.oracle += fill.oracle;
  }
  EXPECT_LE(static_cast<double>(total.amd),
            kFillSlack * static_cast<double>(total.oracle));
}

TEST(Ordering, SingleVertex) {
  const FillOrder order = minDegreeOrder(SparsePattern(1, Coords{{0, 0}}));
  EXPECT_EQ(order.perm, std::vector<std::size_t>{0});
  EXPECT_EQ(order.sign, 1);
}

TEST(Ordering, DiagonalOnlyKeepsTheNaturalOrder) {
  Coords coords;
  for (std::size_t i = 0; i < 50; ++i) coords.emplace_back(i, i);
  const FillOrder order = minDegreeOrder(SparsePattern(50, coords));
  std::vector<std::size_t> natural(50);
  for (std::size_t i = 0; i < 50; ++i) natural[i] = i;
  EXPECT_EQ(order.perm, natural);
  EXPECT_EQ(order.sign, 1);
}

TEST(Ordering, DisconnectedComponents) {
  // Three paths of 20 and 10 isolated vertices, interleaved by index.
  Coords coords;
  const std::size_t n = 70;
  for (std::size_t i = 0; i < n; ++i) coords.emplace_back(i, i);
  for (std::size_t path = 0; path < 3; ++path)
    for (std::size_t k = 0; k + 1 < 20; ++k)
      coords.emplace_back(path + 3 * k, path + 3 * (k + 1));
  const SparsePattern pattern(n, coords);
  expectOrderContract(pattern, "disconnected");
  // Paths and isolated vertices eliminate without fill.
  EXPECT_EQ(structuralFill(pattern, minDegreeOrder(pattern).perm), 57u);
}

TEST(Ordering, DenseSupplyRowIsOrderedLast) {
  // A 20x20 mesh plus one supply vertex touching every mesh vertex.
  const std::size_t edge = 20;
  const std::size_t supply = edge * edge;
  Coords coords;
  for (std::size_t r = 0; r < edge; ++r) {
    for (std::size_t c = 0; c < edge; ++c) {
      const std::size_t v = r * edge + c;
      coords.emplace_back(v, v);
      if (c + 1 < edge) coords.emplace_back(v, v + 1);
      if (r + 1 < edge) coords.emplace_back(v, v + edge);
      coords.emplace_back(supply, v);
      coords.emplace_back(v, supply);
    }
  }
  coords.emplace_back(supply, supply);
  const SparsePattern pattern(supply + 1, coords);
  expectOrderContract(pattern, "dense supply row");
  EXPECT_EQ(minDegreeOrder(pattern).perm.back(), supply);
}

}  // namespace
}  // namespace vsstat::linalg
