#include "spice/ac.hpp"

#include <cmath>
#include <cstdint>
#include <numbers>
#include <utility>
#include <vector>

#include "spice/assembler.hpp"
#include "spice/elements.hpp"
#include "util/error.hpp"

namespace vsstat::spice {

namespace {

/// Flattens an OperatingPoint back into the assembler's unknown layout
/// (node voltages 1..N-1 first, then branch currents).
linalg::Vector flatten(const Circuit& circuit, const OperatingPoint& op) {
  require(op.nodeVoltages.size() == circuit.nodeCount(),
          "SmallSignalSystem: operating point does not match circuit");
  linalg::Vector x(circuit.unknownCount(), 0.0);
  const std::size_t numNodes = circuit.nodeCount() - 1;
  for (std::size_t n = 0; n < numNodes; ++n) x[n] = op.nodeVoltages[n + 1];
  for (std::size_t b = 0; b < op.branchCurrents.size(); ++b)
    x[numNodes + b] = op.branchCurrents[b];
  return x;
}

}  // namespace

double AcPoint::magnitudeDb(NodeId node) const {
  return 20.0 * std::log10(std::abs(v(node)));
}

double AcPoint::phaseDeg(NodeId node) const {
  return std::arg(v(node)) * 180.0 / std::numbers::pi;
}

std::vector<double> AcSweep::magnitude(NodeId node) const {
  std::vector<double> mags;
  mags.reserve(points.size());
  for (const AcPoint& p : points) mags.push_back(std::abs(p.v(node)));
  return mags;
}

SmallSignalSystem::SmallSignalSystem(const Circuit& circuit,
                                     const OperatingPoint& op)
    : numNodes_(circuit.nodeCount() - 1),
      numUnknowns_(circuit.unknownCount()) {
  detail::Assembler assembler(circuit);
  const linalg::Vector x = flatten(circuit, op);
  pattern_ = assembler.pattern();
  g_ = linalg::SparseMatrix(pattern_);
  c_ = linalg::SparseMatrix(pattern_);
  const std::size_t nnz = pattern_.nonZeroCount();

  // G: Jacobian with all charge terms off.  A tiny gmin keeps the later
  // complex factorization healthy when a node is conductively floating; it
  // is identical in both assemblies so it cancels out of C exactly.
  assembler.setDcMode();
  assembler.setTime(0.0);
  assembler.setSourceScale(1.0);
  assembler.setGmin(1e-12);
  assembler.assemble(x);
  for (std::size_t s = 0; s < nnz; ++s)
    g_.setAt(static_cast<std::int32_t>(s), assembler.jacobian().values()[s]);

  // C: with backward Euler at h = 1 the elements stamp Jacobian terms
  // G + 1 * dQ/dv, so the difference recovers dQ/dv without any numeric
  // differentiation at this level.
  assembler.commitCharges();
  assembler.setBackwardEuler(1.0);
  assembler.assemble(x);
  for (std::size_t s = 0; s < nnz; ++s)
    c_.setAt(static_cast<std::int32_t>(s),
             assembler.jacobian().values()[s] - g_.values()[s]);

  // Real block form [G -wC; wC G]: every MNA slot (r, c) appears once in
  // each of the four n x n blocks.
  const std::size_t n = numUnknowns_;
  std::vector<std::pair<std::size_t, std::size_t>> coords;
  coords.reserve(4 * nnz);
  for (std::size_t s = 0; s < nnz; ++s) {
    const std::size_t r = pattern_.rowIndex()[s];
    const std::size_t c = pattern_.colIndex()[s];
    coords.emplace_back(r, c);
    coords.emplace_back(r, c + n);
    coords.emplace_back(r + n, c);
    coords.emplace_back(r + n, c + n);
  }
  blockPattern_ = linalg::SparsePattern(2 * n, coords);
  block_ = linalg::SparseMatrix(blockPattern_);
  rhs_.resize(2 * n);
}

linalg::ComplexVector SmallSignalSystem::solve(
    double frequencyHz, const linalg::ComplexVector& excitation) const {
  require(excitation.size() == numUnknowns_,
          "SmallSignalSystem::solve: excitation size mismatch");
  const std::size_t n = numUnknowns_;
  const double omega = 2.0 * std::numbers::pi * frequencyHz;

  // Block row r holds MNA row r's columns c, then its columns c + n (CSR
  // order), so each MNA slot maps to fixed offsets in rows r and r + n.
  const auto& rowStart = pattern_.rowStart();
  const auto& blockStart = blockPattern_.rowStart();
  const auto set = [this](std::size_t slot, double v) {
    block_.setAt(static_cast<std::int32_t>(slot), v);
  };
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t len = rowStart[r + 1] - rowStart[r];
    std::size_t top = blockStart[r];
    std::size_t bottom = blockStart[r + n];
    for (std::size_t s = rowStart[r]; s < rowStart[r + 1]; ++s) {
      const double g = g_.values()[s];
      const double wc = omega * c_.values()[s];
      set(top, g);
      set(top++ + len, -wc);
      set(bottom, wc);
      set(bottom++ + len, g);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    rhs_[k] = excitation[k].real();
    rhs_[k + n] = excitation[k].imag();
  }

  // Fresh pivots per frequency; the fill-reducing ordering survives reset().
  lu_.reset();
  lu_.refactor(block_);
  lu_.solveInPlace(rhs_);

  linalg::ComplexVector x(n);
  for (std::size_t k = 0; k < n; ++k)
    x[k] = linalg::Complex(rhs_[k], rhs_[k + n]);
  return x;
}

linalg::ComplexVector SmallSignalSystem::voltageExcitation(
    Circuit& circuit, const std::string& sourceName, double magnitude) const {
  // The branch equation reads v(pos) - v(neg) - V = 0, so perturbing the
  // source value by the AC amplitude puts +magnitude on that branch row of
  // the right-hand side.
  const VoltageSourceElement& src = circuit.voltageSource(sourceName);
  linalg::ComplexVector b(numUnknowns_, linalg::Complex{});
  b[numNodes_ + static_cast<std::size_t>(src.branchBase())] =
      linalg::Complex(magnitude, 0.0);
  return b;
}

AcSweep acAnalysis(Circuit& circuit, const std::string& sourceName,
                   const std::vector<double>& frequenciesHz,
                   const AcOptions& options) {
  require(!frequenciesHz.empty(), "acAnalysis: empty frequency list");

  AcSweep sweep;
  sweep.op = dcOperatingPoint(circuit, options.dc);
  const SmallSignalSystem system(circuit, sweep.op);
  const linalg::ComplexVector excitation = system.voltageExcitation(
      circuit, sourceName, options.excitationMagnitude);

  const std::size_t numNodes = circuit.nodeCount() - 1;
  sweep.points.reserve(frequenciesHz.size());
  for (double f : frequenciesHz) {
    require(f >= 0.0, "acAnalysis: negative frequency");
    const linalg::ComplexVector x = system.solve(f, excitation);

    AcPoint point;
    point.frequencyHz = f;
    point.nodeVoltages.assign(circuit.nodeCount(), linalg::Complex{});
    for (std::size_t n = 0; n < numNodes; ++n)
      point.nodeVoltages[n + 1] = x[n];
    point.branchCurrents.assign(
        static_cast<std::size_t>(circuit.branchTotal()), linalg::Complex{});
    for (std::size_t b = 0; b < point.branchCurrents.size(); ++b)
      point.branchCurrents[b] = x[numNodes + b];
    sweep.points.push_back(std::move(point));
  }
  return sweep;
}

std::vector<double> logFrequencyGrid(double fStartHz, double fStopHz,
                                     int pointsPerDecade) {
  require(fStartHz > 0.0 && fStopHz > fStartHz,
          "logFrequencyGrid: need 0 < fStart < fStop");
  require(pointsPerDecade >= 1, "logFrequencyGrid: pointsPerDecade >= 1");

  const double logStart = std::log10(fStartHz);
  const double logStop = std::log10(fStopHz);
  const int steps = static_cast<int>(
      std::ceil((logStop - logStart) * pointsPerDecade - 1e-12));
  std::vector<double> freqs;
  freqs.reserve(static_cast<std::size_t>(steps) + 1);
  for (int i = 0; i <= steps; ++i) {
    const double lf =
        logStart + (logStop - logStart) * i / std::max(steps, 1);
    freqs.push_back(std::pow(10.0, lf));
  }
  freqs.back() = fStopHz;  // avoid drift at the endpoint
  return freqs;
}

double bandwidth3dB(const AcSweep& sweep, NodeId node) {
  require(sweep.points.size() >= 2, "bandwidth3dB: need at least two points");
  const double ref = std::abs(sweep.points.front().v(node));
  require(ref > 0.0, "bandwidth3dB: zero response at the first point");
  const double target = ref / std::sqrt(2.0);

  for (std::size_t i = 1; i < sweep.points.size(); ++i) {
    const double m1 = std::abs(sweep.points[i].v(node));
    if (m1 > target) continue;
    const double m0 = std::abs(sweep.points[i - 1].v(node));
    const double f0 = sweep.points[i - 1].frequencyHz;
    const double f1 = sweep.points[i].frequencyHz;
    if (m0 == m1) return f1;
    // Interpolate in (log f, magnitude) between the bracketing points.
    const double t = (m0 - target) / (m0 - m1);
    return std::pow(10.0,
                    std::log10(f0) + t * (std::log10(f1) - std::log10(f0)));
  }
  throw InvalidArgumentError(
      "bandwidth3dB: response never drops 3 dB within the sweep");
}

}  // namespace vsstat::spice
