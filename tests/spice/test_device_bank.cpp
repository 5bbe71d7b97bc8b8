// The device bank (spice/device_bank.hpp) is the only path by which a
// MOSFET is evaluated and stamped, so its stamps are checked against
// oracles outside the engine:
//   * every Jacobian slot of an assembly matches a central difference of
//     the assembled residual, in DC and in trapezoidal-transient mode, on
//     the paper's INV, NAND2 and SRAM VS fixtures;
//   * a converged DC operating point satisfies KCL computed from
//     MosfetElement::terminalDrainCurrent and the source branch currents;
//   * a session rebound to new cards -- in place or across model families
//     (a lane refresh resp. a bank rebuild) -- is bit-identical to a freshly
//     built session on those cards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "circuits/provider.hpp"
#include "linalg/matrix.hpp"
#include "models/alpha_power.hpp"
#include "models/bsim_lite.hpp"
#include "models/vs_model.hpp"
#include "spice/analysis.hpp"
#include "spice/assembler.hpp"
#include "spice/circuit.hpp"
#include "spice/elements.hpp"
#include "spice/session.hpp"
#include "spice/solver_core.hpp"
#include "support/mna_oracles.hpp"

namespace vsstat::spice {
namespace {

using test_support::expectKcl;

models::VsParams nmosCard() { return models::defaultVsNmos(); }
models::VsParams pmosCard() { return models::defaultVsPmos(); }

/// Inverter driving a capacitive load, with a pulse input: exercises DC
/// (homotopies off the zero guess) and transient (charge stamps).
/// `nmos` replaces the pull-down's card when given.
Circuit makeInverter(const models::MosfetModel* nmos = nullptr,
                     models::DeviceGeometry nmosGeometry =
                         models::geometryNm(300, 40)) {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.addVoltageSource("VDD", vdd, c.ground(), SourceWaveform::dc(0.9));
  c.addVoltageSource("VIN", in, c.ground(),
                     SourceWaveform::pulse(0.0, 0.9, 20e-12, 10e-12, 10e-12,
                                           80e-12, 200e-12));
  c.addMosfet("MP", out, in, vdd,
              std::make_unique<models::VsModel>(pmosCard()),
              models::geometryNm(600, 40));
  c.addMosfet("MN", out, in, c.ground(),
              nmos != nullptr ? nmos->clone()
                              : std::make_unique<models::VsModel>(nmosCard()),
              nmosGeometry);
  c.addCapacitor("CL", out, c.ground(), 2e-15);
  return c;
}

/// Mixed model families in one circuit: a VS inverter loaded by a BsimLite
/// pass transistor and an AlphaPower pull-down.  Groups one VsLoadBank and
/// two generic banks in a single banked assembly.
Circuit makeMixedFamilies() {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  const NodeId tail = c.node("tail");
  c.addVoltageSource("VDD", vdd, c.ground(), SourceWaveform::dc(0.9));
  c.addVoltageSource("VIN", in, c.ground(), SourceWaveform::dc(0.35));
  c.addMosfet("MP", out, in, vdd,
              std::make_unique<models::VsModel>(pmosCard()),
              models::geometryNm(600, 40));
  c.addMosfet("MN", out, in, c.ground(),
              std::make_unique<models::VsModel>(nmosCard()),
              models::geometryNm(300, 40));
  c.addMosfet("MPASS", tail, vdd, out,
              std::make_unique<models::BsimLite>(models::defaultBsimNmos()),
              models::geometryNm(200, 40));
  c.addMosfet("MA", tail, in, c.ground(),
              std::make_unique<models::AlphaPowerModel>(
                  models::defaultAlphaNmos()),
              models::geometryNm(150, 40));
  c.addCapacitor("CT", tail, c.ground(), 1e-15);
  return c;
}

/// The paper's VS fixtures with nominal cards.
struct Fixture {
  std::string label;
  Circuit circuit;
};

std::vector<Fixture> vsFixtures() {
  const models::VsModel nmos(nmosCard());
  const models::VsModel pmos(pmosCard());
  circuits::NominalProvider provider(nmos, pmos);
  std::vector<Fixture> out;
  out.push_back({"inv_fo3", circuits::buildInvFo3(provider,
                                                  circuits::CellSizing{},
                                                  circuits::StimulusSpec{})
                                .circuit});
  out.push_back({"nand2_fo3", circuits::buildNand2Fo3(
                                  provider, circuits::CellSizing{},
                                  circuits::StimulusSpec{})
                                  .circuit});
  out.push_back({"sram_read", circuits::buildSramButterfly(
                                  provider, 0.9, circuits::SramMode::Read,
                                  circuits::SramSizing{})
                                  .circuit});
  return out;
}

void expectSameOp(const OperatingPoint& a, const OperatingPoint& b) {
  ASSERT_EQ(a.nodeVoltages.size(), b.nodeVoltages.size());
  for (std::size_t i = 0; i < a.nodeVoltages.size(); ++i)
    EXPECT_EQ(a.nodeVoltages[i], b.nodeVoltages[i]) << "node " << i;
  ASSERT_EQ(a.branchCurrents.size(), b.branchCurrents.size());
  for (std::size_t i = 0; i < a.branchCurrents.size(); ++i)
    EXPECT_EQ(a.branchCurrents[i], b.branchCurrents[i]) << "branch " << i;
}

void expectSameWave(const Waveform& a, const Waveform& b) {
  ASSERT_EQ(a.sampleCount(), b.sampleCount());
  ASSERT_EQ(a.nodeCount(), b.nodeCount());
  for (std::size_t i = 0; i < a.sampleCount(); ++i) {
    EXPECT_EQ(a.time(i), b.time(i)) << "sample " << i;
    for (std::size_t n = 0; n < a.nodeCount(); ++n)
      EXPECT_EQ(a.value(static_cast<NodeId>(n), i),
                b.value(static_cast<NodeId>(n), i))
          << "sample " << i << " node " << n;
  }
}

// --- Jacobian vs central difference of the assembled residual -----------------

enum class StampMode { dc, trapezoidal };

/// Central-difference step [V or A] and tolerance of the Jacobian check.
/// The VS derivatives are analytic, so the residual is smooth on this scale
/// and the difference is good to ~1e-7 of a row's largest entry; 1e-5
/// leaves margin while a flipped or dropped stamp misses by O(1).
constexpr double kFdStep = 1e-6;
constexpr double kFdRelTol = 1e-5;

/// An iterate off every solution: node voltages spread over [-0.1, 1.0] V
/// so devices sit in cutoff, saturation, triode and reverse conduction;
/// branch currents of tens of microamps.
linalg::Vector offSolutionIterate(const Circuit& circuit) {
  linalg::Vector x(circuit.unknownCount());
  for (std::size_t k = 0; k < x.size(); ++k) {
    const double phase = std::sin(1.7 * static_cast<double>(k) + 0.3);
    x[k] = k + 1 < circuit.nodeCount() ? 0.45 + 0.55 * phase : 3e-5 * phase;
  }
  return x;
}

/// Assembles at `x` and checks every Jacobian entry -- pattern slots and
/// structural zeros alike -- against (F(x + h e_j) - F(x - h e_j)) / 2h.
/// Trapezoidal mode first commits the charges of a nearby state, so the
/// companion history is live; it is constant in x and drops out of the
/// difference.
void expectJacobianMatchesResidual(const std::string& label,
                                   const Circuit& circuit,
                                   const linalg::Vector& x, StampMode mode) {
  detail::Assembler assembler(circuit);
  if (mode == StampMode::trapezoidal) {
    linalg::Vector previous = x;
    for (double& v : previous) v *= 0.9;
    assembler.assemble(previous);
    assembler.commitCharges();
    const std::vector<double> currentPrev(
        static_cast<std::size_t>(circuit.chargeSlotTotal()), 1e-6);
    assembler.setTrapezoidal(0.5e-12, currentPrev);
  }

  const std::size_t n = x.size();
  assembler.assemble(x);
  linalg::Matrix jacobian(n, n);
  assembler.scatterJacobian(jacobian);

  linalg::Matrix difference(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    linalg::Vector probe = x;
    probe[j] = x[j] + kFdStep;
    assembler.assemble(probe);
    const linalg::Vector plus = assembler.residual();
    probe[j] = x[j] - kFdStep;
    assembler.assemble(probe);
    const linalg::Vector& minus = assembler.residual();
    for (std::size_t i = 0; i < n; ++i)
      difference(i, j) = (plus[i] - minus[i]) / (2.0 * kFdStep);
  }

  for (std::size_t i = 0; i < n; ++i) {
    double rowScale = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      rowScale = std::max(rowScale, std::fabs(difference(i, j)));
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(jacobian(i, j), difference(i, j),
                  kFdRelTol * rowScale + 1e-15)
          << label << (mode == StampMode::dc ? " dc" : " trapezoidal")
          << " J(" << i << ", " << j << ")";
    }
  }
}

TEST(DeviceBankStamps, JacobianMatchesCentralDifferenceOnVsFixtures) {
  for (Fixture& f : vsFixtures()) {
    SimSession session(f.circuit);
    ASSERT_GT(session.deviceBankLaneCount(), 0u) << f.label;
    const linalg::Vector solved =
        detail::unpackGuess(f.circuit, session.dcOperatingPoint());
    const linalg::Vector generic = offSolutionIterate(f.circuit);
    for (const StampMode mode : {StampMode::dc, StampMode::trapezoidal}) {
      expectJacobianMatchesResidual(f.label + " @op", f.circuit, solved, mode);
      expectJacobianMatchesResidual(f.label + " @generic", f.circuit, generic,
                                    mode);
    }
  }
}

// --- KCL at converged operating points --------------------------------------------

TEST(DeviceBankStamps, DcOperatingPointSatisfiesKcl) {
  for (Fixture& f : vsFixtures()) {
    SCOPED_TRACE(f.label);
    expectKcl(f.circuit, dcOperatingPoint(f.circuit));
  }
  const Circuit mixed = makeMixedFamilies();
  expectKcl(mixed, dcOperatingPoint(mixed));
}

TEST(DeviceBankStamps, SweepLevelsSatisfyKcl) {
  // Warm-started sweep levels through one session: every level is a
  // converged operating point of its own.
  const models::VsModel nmos(nmosCard());
  const models::VsModel pmos(pmosCard());
  circuits::NominalProvider provider(nmos, pmos);
  circuits::SramButterflyBench bench = circuits::buildSramButterfly(
      provider, 0.9, circuits::SramMode::Read, circuits::SramSizing{});
  SimSession session(bench.circuit);
  std::vector<double> levels;
  for (int i = 0; i <= 9; ++i) levels.push_back(0.1 * i);
  for (const OperatingPoint& op : session.dcSweep(bench.sweep1, levels))
    expectKcl(bench.circuit, op);
}

// --- Rebound sessions vs freshly built ones ---------------------------------------

/// Runs DC, a sweep and a transient through `session`.
struct Runs {
  OperatingPoint op;
  std::vector<OperatingPoint> sweep;
  Waveform wave;
};

Runs runAll(SimSession& session) {
  TransientOptions tran;
  tran.tStop = 120e-12;
  tran.dt = 1e-12;
  std::vector<double> levels;
  for (int i = 0; i <= 12; ++i) levels.push_back(0.075 * i);
  OperatingPoint op = session.dcOperatingPoint();
  std::vector<OperatingPoint> sweep = session.dcSweep("VIN", levels);
  return Runs{std::move(op), std::move(sweep), session.transient(tran)};
}

void expectSameRuns(const Runs& a, const Runs& b) {
  expectSameOp(a.op, b.op);
  ASSERT_EQ(a.sweep.size(), b.sweep.size());
  for (std::size_t i = 0; i < a.sweep.size(); ++i)
    expectSameOp(a.sweep[i], b.sweep[i]);
  expectSameWave(a.wave, b.wave);
}

TEST(DeviceBankRebind, InPlaceRebindMatchesFreshSession) {
  models::VsParams shifted = nmosCard();
  shifted.vt0 += 0.07;
  shifted.mu *= 0.9;
  const models::VsModel card(shifted);
  const models::DeviceGeometry geometry = models::geometryNm(320, 42);

  Circuit rebound = makeInverter();
  SimSession reboundSession(rebound);
  (void)runAll(reboundSession);  // lanes derived from the old card
  rebound.mosfet("MN").rebind(card, geometry);

  Circuit fresh = makeInverter(&card, geometry);
  SimSession freshSession(fresh);
  expectSameRuns(runAll(reboundSession), runAll(freshSession));
}

TEST(DeviceBankRebind, CrossFamilyRebindMatchesFreshSession) {
  // A BsimLite card in the VS lane: the VS bank rejects the type and the
  // set regroups into a VS group and a generic group.
  const models::BsimLite card(models::defaultBsimNmos());
  const models::DeviceGeometry geometry = models::geometryNm(300, 40);

  Circuit rebound = makeInverter();
  SimSession reboundSession(rebound);
  (void)runAll(reboundSession);
  rebound.mosfet("MN").rebind(card, geometry);

  Circuit fresh = makeInverter(&card, geometry);
  SimSession freshSession(fresh);
  expectSameRuns(runAll(reboundSession), runAll(freshSession));
  expectKcl(rebound, reboundSession.dcOperatingPoint());
}

// --- Entry points and lane accounting ---------------------------------------------

TEST(DeviceBank, FreeFunctionsMatchSessions) {
  // The free analyses build a one-shot banked assembler; a persistent
  // session must reproduce them bit for bit (spice/session.hpp contract).
  Circuit freePath = makeInverter();
  Circuit sessionPath = makeInverter();
  SimSession session(sessionPath);

  expectSameOp(dcOperatingPoint(freePath), session.dcOperatingPoint());

  TransientOptions opt;
  opt.tStop = 100e-12;
  opt.dt = 1e-12;
  expectSameWave(transient(freePath, opt), session.transient(opt));
}

TEST(DeviceBank, EveryMosfetIsALane) {
  Circuit inverter = makeInverter();
  EXPECT_EQ(SimSession(inverter).deviceBankLaneCount(), 2u);
  // VS group (MP, MN) + BsimLite group + AlphaPower group.
  Circuit mixed = makeMixedFamilies();
  EXPECT_EQ(SimSession(mixed).deviceBankLaneCount(), 4u);
}

}  // namespace
}  // namespace vsstat::spice
