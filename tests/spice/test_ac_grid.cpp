// AC analysis at grid scale: a sweep on the 32x32 power-grid mesh rung of
// the grid ladder (1025 unknowns) with a capacitor on every mesh node.
//
// The small-signal solve runs in real block form on SparseLu, so the check
// is the one a dense complex oracle cannot afford at this size: the
// complex residual ||(G + jwC) x - b||_inf, formed by sparse mat-vec
// against the system's own G and C, must stay within 1e-10 ||b||_inf at
// DC and at two frequencies bracketing the mesh's RC corner.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "models/vs_model.hpp"
#include "spice/ac.hpp"
#include "spice/analysis.hpp"

namespace vsstat::spice {
namespace {

constexpr int kEdge = 32;
constexpr double kMeshOhms = 5.0;
constexpr double kNodeFarads = 10e-15;

/// y = (G + j*omega*C) x over the shared MNA pattern.
linalg::ComplexVector applySystem(const SmallSignalSystem& system,
                                  double omega,
                                  const linalg::ComplexVector& x) {
  const linalg::SparseMatrix& g = system.conductance();
  const linalg::SparseMatrix& c = system.capacitance();
  const linalg::SparsePattern& pattern = g.pattern();
  linalg::ComplexVector y(x.size());
  for (std::size_t s = 0; s < pattern.nonZeroCount(); ++s) {
    const linalg::Complex a(g.values()[s], omega * c.values()[s]);
    y[pattern.rowIndex()[s]] += a * x[pattern.colIndex()[s]];
  }
  return y;
}

double normInf(const linalg::ComplexVector& v) {
  double m = 0.0;
  for (const linalg::Complex& e : v) m = std::max(m, std::abs(e));
  return m;
}

TEST(AcGrid, MeshSweepSolvesToResidualAtDcAndAroundTheCorner) {
  circuits::NominalProvider provider(models::VsModel(models::defaultVsNmos()),
                                     models::VsModel(models::defaultVsPmos()));
  circuits::PowerGridBench grid = circuits::buildPowerGridIrDrop(
      provider, kEdge, kEdge, 0.9, kMeshOhms);
  Circuit& circuit = grid.circuit;
  for (int r = 0; r < kEdge; ++r) {
    for (int c = 0; c < kEdge; ++c) {
      const std::string suffix = std::to_string(r) + "_" + std::to_string(c);
      circuit.addCapacitor("CN" + suffix, circuit.node("g" + suffix),
                           circuit.ground(), kNodeFarads);
    }
  }
  ASSERT_EQ(circuit.unknownCount(), 1025u);

  // Distributed-RC corner of the mesh, seen from the feed corner.
  const double fc = 1.0 / (2.0 * std::numbers::pi * kMeshOhms * kNodeFarads *
                           kEdge * kEdge);
  const std::vector<double> freqs{0.0, 0.5 * fc, 2.0 * fc};
  const AcSweep sweep = acAnalysis(circuit, grid.feedSource, freqs);
  ASSERT_EQ(sweep.points.size(), freqs.size());

  const SmallSignalSystem system(circuit, sweep.op);
  const linalg::ComplexVector b =
      system.voltageExcitation(circuit, grid.feedSource);
  const std::size_t numNodes = system.numNodes();
  for (const AcPoint& point : sweep.points) {
    // Back to the unknown layout: node rows first, then branch rows.
    linalg::ComplexVector x(system.numUnknowns());
    for (std::size_t n = 0; n < numNodes; ++n) x[n] = point.nodeVoltages[n + 1];
    for (std::size_t k = 0; k < point.branchCurrents.size(); ++k)
      x[numNodes + k] = point.branchCurrents[k];

    const double omega = 2.0 * std::numbers::pi * point.frequencyHz;
    linalg::ComplexVector r = applySystem(system, omega, x);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] -= b[i];
    EXPECT_LE(normInf(r), 1e-10 * normInf(b)) << "f = " << point.frequencyHz;
  }

  // The mesh is a passive divider against the leakage loads at DC, and the
  // node capacitance attenuates the far corner further above the corner.
  const double dc = std::abs(sweep.points[0].v(grid.farNode));
  EXPECT_GT(dc, 0.0);
  EXPECT_LE(dc, 1.0 + 1e-12);
  EXPECT_LT(std::abs(sweep.points[2].v(grid.farNode)), dc);
}

}  // namespace
}  // namespace vsstat::spice
