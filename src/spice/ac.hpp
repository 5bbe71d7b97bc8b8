// Small-signal AC analysis.
//
// The circuit is linearized at its DC operating point: G = dF/dv is the
// Newton Jacobian in DC mode and C = dQ/dv is recovered exactly as the
// difference between a backward-Euler(h=1) assembly and the DC assembly at
// the same iterate (elements stamp companion terms as c0 * dq/dv, so the
// difference isolates dq/dv with c0 = 1).  Both stay sparse, on the MNA
// pattern the assembler captured.  Each sweep point then solves the complex
// system (G + j*2*pi*f*C) x = b, where b places the unit AC excitation on
// the chosen source, in its real 2n x 2n block form
//
//   [ G  -wC ] [ Re x ]   [ Re b ]
//   [ wC   G ] [ Im x ] = [ Im b ],
//
// on linalg::SparseLu: the block pattern is built once per system, its
// fill-reducing ordering is computed once, and every frequency runs a fresh
// numeric factorization (pivots chosen from that frequency's values), so
// the cost per point scales with the factor's fill, not with n^3.
#ifndef VSSTAT_SPICE_AC_HPP
#define VSSTAT_SPICE_AC_HPP

#include <string>
#include <vector>

#include "linalg/complex.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_lu.hpp"
#include "spice/analysis.hpp"
#include "spice/circuit.hpp"

namespace vsstat::spice {

struct AcOptions {
  DcOptions dc;                      ///< operating-point solve settings
  double excitationMagnitude = 1.0;  ///< AC source amplitude [V]
};

/// Small-signal solution at one frequency.
struct AcPoint {
  double frequencyHz = 0.0;
  linalg::ComplexVector nodeVoltages;   ///< indexed by NodeId (ground = 0+0j)
  linalg::ComplexVector branchCurrents; ///< indexed by global branch index

  [[nodiscard]] linalg::Complex v(NodeId node) const {
    return nodeVoltages[static_cast<std::size_t>(node)];
  }
  /// |V(node)| in dB (20 log10).
  [[nodiscard]] double magnitudeDb(NodeId node) const;
  /// Phase of V(node) in degrees, in (-180, 180].
  [[nodiscard]] double phaseDeg(NodeId node) const;
};

/// Frequency sweep result plus the operating point it was linearized at.
struct AcSweep {
  OperatingPoint op;
  std::vector<AcPoint> points;

  /// |V(node)| per sweep point.
  [[nodiscard]] std::vector<double> magnitude(NodeId node) const;
};

/// Linearized (G, C) system at a fixed operating point; reusable across
/// frequencies and excitations.  This is the building block acAnalysis()
/// uses; it is public so callers can form custom excitations (e.g. noise
/// or loop-gain probes).
///
/// solve() refactors per-instance factor state, so one system must not be
/// solved from two threads at once -- like spice::SimSession, it belongs to
/// one thread at a time (campaigns build one system per sample).  The
/// matrices live on a pattern the system owns, so it is neither copyable
/// nor movable.
class SmallSignalSystem {
 public:
  /// Linearizes the circuit at the given operating point.
  SmallSignalSystem(const Circuit& circuit, const OperatingPoint& op);
  SmallSignalSystem(const SmallSignalSystem&) = delete;
  SmallSignalSystem& operator=(const SmallSignalSystem&) = delete;

  /// Solves (G + j*2*pi*f*C) x = b.  b must have unknownCount entries
  /// (node rows first, then branch rows).  Throws SingularMatrixError when
  /// the system is singular at this frequency.
  [[nodiscard]] linalg::ComplexVector solve(
      double frequencyHz, const linalg::ComplexVector& excitation) const;

  /// Excitation vector for a named voltage source with the given AC
  /// amplitude.
  [[nodiscard]] linalg::ComplexVector voltageExcitation(
      Circuit& circuit, const std::string& sourceName,
      double magnitude = 1.0) const;

  /// G = dF/dv, on the circuit's MNA pattern.
  [[nodiscard]] const linalg::SparseMatrix& conductance() const noexcept {
    return g_;
  }
  /// C = dQ/dv, on the same pattern as conductance().
  [[nodiscard]] const linalg::SparseMatrix& capacitance() const noexcept {
    return c_;
  }
  [[nodiscard]] std::size_t numNodes() const noexcept { return numNodes_; }
  [[nodiscard]] std::size_t numUnknowns() const noexcept {
    return numUnknowns_;
  }

 private:
  std::size_t numNodes_ = 0;
  std::size_t numUnknowns_ = 0;
  linalg::SparsePattern pattern_;       ///< the assembler's MNA pattern
  linalg::SparseMatrix g_;              ///< dF/dv at the operating point
  linalg::SparseMatrix c_;              ///< dQ/dv at the operating point
  linalg::SparsePattern blockPattern_;  ///< [G -wC; wC G], 2n x 2n
  // Per-frequency factor state (see the class comment on threading).
  mutable linalg::SparseMatrix block_;
  mutable linalg::SparseLu lu_;
  mutable linalg::Vector rhs_;
};

/// Full AC analysis: DC operating point, linearization, frequency sweep
/// with a unit (or options.excitationMagnitude) AC drive replacing the
/// named voltage source's small-signal value.
[[nodiscard]] AcSweep acAnalysis(Circuit& circuit,
                                 const std::string& sourceName,
                                 const std::vector<double>& frequenciesHz,
                                 const AcOptions& options = {});

/// Logarithmically spaced frequency grid, `pointsPerDecade` points per
/// decade from fStart to fStop inclusive.
[[nodiscard]] std::vector<double> logFrequencyGrid(double fStartHz,
                                                   double fStopHz,
                                                   int pointsPerDecade);

/// Lowest frequency in the sweep where |V(node)| has dropped 3 dB below
/// its value at the first sweep point; throws InvalidArgumentError when the
/// response never crosses (sweep too narrow).  Log-interpolated between
/// sweep points.
[[nodiscard]] double bandwidth3dB(const AcSweep& sweep, NodeId node);

}  // namespace vsstat::spice

#endif  // VSSTAT_SPICE_AC_HPP
