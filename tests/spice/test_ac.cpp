// Small-signal AC analysis: closed-form RC responses, linearity, the
// extracted C matrix, and consistency of MOSFET amplifier gain with DC
// finite differences.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>

#include "models/vs_model.hpp"
#include "spice/ac.hpp"
#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/elements.hpp"
#include "util/error.hpp"

namespace vsstat::spice {
namespace {

using models::defaultVsNmos;
using models::geometryNm;
using models::VsModel;

/// V -> R -> C lowpass; returns the output node.
NodeId buildLowpass(Circuit& c, double r, double cap) {
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.addVoltageSource("VIN", in, c.ground(), SourceWaveform::dc(0.0));
  c.addResistor("R1", in, out, r);
  c.addCapacitor("C1", out, c.ground(), cap);
  return out;
}

TEST(AcAnalysis, RcLowpassMatchesAnalyticResponse) {
  Circuit c;
  const NodeId out = buildLowpass(c, 1e3, 1e-9);  // fc = 159.155 kHz
  const double fc = 1.0 / (2.0 * std::numbers::pi * 1e3 * 1e-9);

  const AcSweep sweep =
      acAnalysis(c, "VIN", {fc / 100.0, fc, 100.0 * fc});
  ASSERT_EQ(sweep.points.size(), 3u);

  // Well below the pole: unity gain, ~zero phase.
  EXPECT_NEAR(std::abs(sweep.points[0].v(out)), 1.0, 1e-3);
  EXPECT_NEAR(sweep.points[0].phaseDeg(out), 0.0, 1.0);

  // At the pole: 1/sqrt(2) magnitude and -45 degrees.
  EXPECT_NEAR(std::abs(sweep.points[1].v(out)), 1.0 / std::sqrt(2.0), 1e-6);
  EXPECT_NEAR(sweep.points[1].phaseDeg(out), -45.0, 1e-6);

  // Two decades above: -40 dB and approaching -90 degrees.
  EXPECT_NEAR(sweep.points[2].magnitudeDb(out), -40.0, 0.1);
  EXPECT_NEAR(sweep.points[2].phaseDeg(out), -90.0, 1.0);
}

TEST(AcAnalysis, RcHighpassBlocksDcPassesHighBand) {
  // V -> C -> out -> R -> gnd: highpass with fc = 1/(2 pi R C).
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.addVoltageSource("VIN", in, c.ground(), SourceWaveform::dc(0.0));
  c.addCapacitor("C1", in, out, 1e-9);
  c.addResistor("R1", out, c.ground(), 1e3);
  const double fc = 1.0 / (2.0 * std::numbers::pi * 1e3 * 1e-9);

  const AcSweep sweep = acAnalysis(c, "VIN", {fc / 100.0, fc, 100.0 * fc});
  EXPECT_LT(std::abs(sweep.points[0].v(out)), 0.015);
  EXPECT_NEAR(std::abs(sweep.points[1].v(out)), 1.0 / std::sqrt(2.0), 1e-6);
  EXPECT_NEAR(std::abs(sweep.points[2].v(out)), 1.0, 1e-3);
  // Phase leads below the corner.
  EXPECT_NEAR(sweep.points[1].phaseDeg(out), 45.0, 1e-6);
}

TEST(AcAnalysis, ResistiveDividerIsFlat) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  c.addVoltageSource("VIN", in, c.ground(), SourceWaveform::dc(1.0));
  c.addResistor("R1", in, mid, 1000.0);
  c.addResistor("R2", mid, c.ground(), 3000.0);

  const AcSweep sweep = acAnalysis(c, "VIN", {1.0, 1e6, 1e12});
  for (const AcPoint& p : sweep.points) {
    EXPECT_NEAR(std::abs(p.v(mid)), 0.75, 1e-9) << p.frequencyHz;
    EXPECT_NEAR(p.phaseDeg(mid), 0.0, 1e-9);
  }
}

TEST(AcAnalysis, ExcitationMagnitudeScalesLinearly) {
  Circuit c1;
  const NodeId out1 = buildLowpass(c1, 1e3, 1e-9);
  Circuit c2;
  const NodeId out2 = buildLowpass(c2, 1e3, 1e-9);

  AcOptions doubled;
  doubled.excitationMagnitude = 2.0;
  const AcSweep unit = acAnalysis(c1, "VIN", {1e5});
  const AcSweep twice = acAnalysis(c2, "VIN", {1e5}, doubled);
  EXPECT_NEAR(std::abs(twice.points[0].v(out2)),
              2.0 * std::abs(unit.points[0].v(out1)), 1e-12);
}

TEST(AcAnalysis, CapacitanceMatrixOfSingleCapacitorIsExact) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.addVoltageSource("V1", a, c.ground(), SourceWaveform::dc(0.5));
  c.addResistor("Rb", b, c.ground(), 1e6);  // DC path for node b
  c.addCapacitor("C1", a, b, 3e-12);

  const OperatingPoint op = dcOperatingPoint(c);
  const SmallSignalSystem system(c, op);
  const linalg::SparseMatrix& cm = system.capacitance();

  const auto row = [&](NodeId n) { return static_cast<std::size_t>(n - 1); };
  EXPECT_NEAR(cm(row(a), row(a)), 3e-12, 1e-20);
  EXPECT_NEAR(cm(row(a), row(b)), -3e-12, 1e-20);
  EXPECT_NEAR(cm(row(b), row(a)), -3e-12, 1e-20);
  EXPECT_NEAR(cm(row(b), row(b)), 3e-12, 1e-20);
}

TEST(AcAnalysis, CommonSourceGainMatchesDcFiniteDifference) {
  // NMOS common-source stage: gate biased into saturation, 10k drain load.
  // The low-frequency AC gain must equal the slope of the DC transfer
  // curve at the bias point.
  const auto build = [](double vin) {
    Circuit c;
    const NodeId vdd = c.node("vdd");
    const NodeId g = c.node("g");
    const NodeId d = c.node("d");
    c.addVoltageSource("VDD", vdd, c.ground(), SourceWaveform::dc(0.9));
    c.addVoltageSource("VIN", g, c.ground(), SourceWaveform::dc(vin));
    c.addResistor("RD", vdd, d, 1e4);
    c.addMosfet("MN", d, g, c.ground(),
                std::make_unique<VsModel>(defaultVsNmos()),
                geometryNm(300, 40));
    return c;
  };

  constexpr double kBias = 0.55;
  constexpr double kStep = 1e-4;
  Circuit cLo = build(kBias - kStep);
  Circuit cHi = build(kBias + kStep);
  const double voutLo = dcOperatingPoint(cLo).v(cLo.node("d"));
  const double voutHi = dcOperatingPoint(cHi).v(cHi.node("d"));
  const double dcGain = (voutHi - voutLo) / (2.0 * kStep);
  ASSERT_LT(dcGain, -1.0);  // stage must actually amplify (inverting)

  Circuit c = build(kBias);
  const AcSweep sweep = acAnalysis(c, "VIN", {1.0});
  const double acGain = std::abs(sweep.points[0].v(c.node("d")));
  // The AC Jacobian uses 1 mV forward differences inside the element, the
  // reference a 0.1 mV central difference; a ~2% agreement window covers
  // that discretization gap.
  EXPECT_NEAR(acGain, std::abs(dcGain), 0.02 * std::abs(dcGain));
  // Inverting amplifier: output ~180 degrees from input at low frequency.
  EXPECT_NEAR(std::abs(sweep.points[0].phaseDeg(c.node("d"))), 180.0, 1.0);
}

TEST(AcAnalysis, CommonSourceGainRollsOffWithLoadCapacitor) {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId g = c.node("g");
  const NodeId d = c.node("d");
  c.addVoltageSource("VDD", vdd, c.ground(), SourceWaveform::dc(0.9));
  c.addVoltageSource("VIN", g, c.ground(), SourceWaveform::dc(0.55));
  c.addResistor("RD", vdd, d, 1e4);
  c.addCapacitor("CL", d, c.ground(), 1e-12);
  c.addMosfet("MN", d, g, c.ground(),
              std::make_unique<VsModel>(defaultVsNmos()), geometryNm(300, 40));

  const AcSweep sweep =
      acAnalysis(c, "VIN", logFrequencyGrid(1e3, 1e12, 4));
  const std::vector<double> mags = sweep.magnitude(d);
  // Gain is flat at low frequency, then strictly decreasing past the pole.
  EXPECT_NEAR(mags[1] / mags[0], 1.0, 1e-3);
  EXPECT_LT(mags.back(), 0.02 * mags.front());
  // 3 dB bandwidth close to 1/(2 pi RD CL) = 15.9 MHz (the transistor's
  // own output conductance and capacitance shift it slightly).
  const double bw = bandwidth3dB(sweep, d);
  EXPECT_GT(bw, 0.5 * 15.9e6);
  EXPECT_LT(bw, 2.5 * 15.9e6);
}

TEST(LogFrequencyGrid, EndpointsAndMonotonicity) {
  const std::vector<double> f = logFrequencyGrid(10.0, 1e6, 10);
  EXPECT_NEAR(f.front(), 10.0, 1e-9);
  EXPECT_NEAR(f.back(), 1e6, 1e-6);
  EXPECT_EQ(f.size(), 51u);  // 5 decades * 10 + 1
  for (std::size_t i = 1; i < f.size(); ++i) EXPECT_GT(f[i], f[i - 1]);
}

TEST(LogFrequencyGrid, RejectsBadRanges) {
  EXPECT_THROW((void)logFrequencyGrid(0.0, 1e3, 10), InvalidArgumentError);
  EXPECT_THROW((void)logFrequencyGrid(1e3, 1e2, 10), InvalidArgumentError);
  EXPECT_THROW((void)logFrequencyGrid(1.0, 1e3, 0), InvalidArgumentError);
}

TEST(Bandwidth3dB, ThrowsWhenSweepNeverCrosses) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  c.addVoltageSource("VIN", in, c.ground(), SourceWaveform::dc(1.0));
  c.addResistor("R1", in, mid, 1000.0);
  c.addResistor("R2", mid, c.ground(), 3000.0);
  const AcSweep sweep = acAnalysis(c, "VIN", {1.0, 10.0, 100.0});
  EXPECT_THROW((void)bandwidth3dB(sweep, mid), InvalidArgumentError);
}

TEST(AcAnalysis, RejectsEmptyAndNegativeFrequencies) {
  Circuit c;
  buildLowpass(c, 1e3, 1e-9);
  EXPECT_THROW((void)acAnalysis(c, "VIN", {}), InvalidArgumentError);
  EXPECT_THROW((void)acAnalysis(c, "VIN", {-1.0}), InvalidArgumentError);
}


TEST(AcAnalysis, UnknownSourceNameThrows) {
  Circuit c;
  buildLowpass(c, 1e3, 1e-9);
  EXPECT_THROW((void)acAnalysis(c, "NOPE", {1.0}), InvalidArgumentError);
}

TEST(SmallSignalSystemErrors, RejectsMismatchedOperatingPoint) {
  Circuit c;
  buildLowpass(c, 1e3, 1e-9);
  OperatingPoint wrong;  // empty node vector
  EXPECT_THROW(SmallSignalSystem(c, wrong), InvalidArgumentError);
}

TEST(SmallSignalSystemErrors, RejectsWrongExcitationSize) {
  Circuit c;
  buildLowpass(c, 1e3, 1e-9);
  const OperatingPoint op = dcOperatingPoint(c);
  const SmallSignalSystem system(c, op);
  EXPECT_THROW((void)system.solve(1.0, linalg::ComplexVector(1)),
               InvalidArgumentError);
}

}  // namespace
}  // namespace vsstat::spice
