// Alpha-power-law baseline model: region behaviour, smoothness at the
// Vdsat seam, symmetry, charge bookkeeping, and the strong-inversion fit
// to the golden model.
#include <gtest/gtest.h>

#include <cmath>

#include "extract/fit_campaign.hpp"
#include "measure/device_metrics.hpp"
#include "models/alpha_power.hpp"
#include "models/bsim_lite.hpp"
#include "models/geometry.hpp"
#include "util/error.hpp"

namespace vsstat::models {
namespace {

const DeviceGeometry kGeom = geometryNm(300, 40);

TEST(AlphaPower, RejectsBadParameters) {
  AlphaPowerParams p;
  p.kSat = 0.0;
  EXPECT_THROW(AlphaPowerModel{p}, InvalidArgumentError);
  p = AlphaPowerParams{};
  p.alphaSat = 2.5;
  EXPECT_THROW(AlphaPowerModel{p}, InvalidArgumentError);
  p = AlphaPowerParams{};
  p.vSmooth = 0.0;
  EXPECT_THROW(AlphaPowerModel{p}, InvalidArgumentError);
}

TEST(AlphaPower, OffStateCurrentIsNegligible) {
  const AlphaPowerModel m(defaultAlphaNmos());
  // No subthreshold conduction by design: far below VT the smoothed
  // overdrive current collapses to numerical noise.
  const double ioff = m.drainCurrent(kGeom, 0.0, 0.9);
  const double ion = m.drainCurrent(kGeom, 0.9, 0.9);
  EXPECT_GT(ion, 1e-5);
  EXPECT_LT(ioff, 1e-12 * ion * 1e6);  // < 1e-6 of on-current
}

TEST(AlphaPower, SaturationCurrentFollowsPowerLaw) {
  AlphaPowerParams p = defaultAlphaNmos();
  p.delta0 = 0.0;  // isolate the pure power law
  const AlphaPowerModel m(p);
  // Deep saturation, far above VT so the softplus smoothing is inactive:
  // Id ratio between two overdrives must equal the overdrive ratio ^ alpha.
  const double vds = 0.9;
  const double id1 = m.drainCurrent(kGeom, p.vth0 + 0.30, vds);
  const double id2 = m.drainCurrent(kGeom, p.vth0 + 0.60, vds);
  EXPECT_NEAR(id2 / id1, std::pow(2.0, p.alphaSat), 0.01);
}

TEST(AlphaPower, MonotoneInGateAndDrainBias) {
  const AlphaPowerModel m(defaultAlphaNmos());
  double prev = -1.0;
  for (double vgs = 0.0; vgs <= 0.9001; vgs += 0.05) {
    const double id = m.drainCurrent(kGeom, vgs, 0.9);
    EXPECT_GE(id, prev) << "vgs = " << vgs;
    prev = id;
  }
  prev = -1.0;
  for (double vds = 0.0; vds <= 0.9001; vds += 0.05) {
    const double id = m.drainCurrent(kGeom, 0.9, vds);
    EXPECT_GE(id, prev - 1e-15) << "vds = " << vds;
    prev = id;
  }
}

TEST(AlphaPower, C1AcrossVdsatSeam) {
  // Numeric derivative dId/dVds must be continuous through Vds = Vdsat:
  // compare one-sided slopes straddling the seam.
  AlphaPowerParams p = defaultAlphaNmos();
  p.delta0 = 0.0;
  const AlphaPowerModel m(p);
  const double vgs = 0.8;
  const double vov = vgs - p.vth0;
  const double vdsat = p.kV * std::pow(vov, 0.5 * p.alphaSat);
  ASSERT_LT(vdsat, 0.9);

  constexpr double h = 1e-6;
  const double below = (m.drainCurrent(kGeom, vgs, vdsat - h) -
                        m.drainCurrent(kGeom, vgs, vdsat - 2.0 * h)) / h;
  const double above = (m.drainCurrent(kGeom, vgs, vdsat + 2.0 * h) -
                        m.drainCurrent(kGeom, vgs, vdsat + h)) / h;
  const double scale = m.drainCurrent(kGeom, vgs, 0.9) / 0.9;  // A/V scale
  EXPECT_NEAR(below, above, 1e-3 * scale + 1e-4 * std::fabs(below));
}

TEST(AlphaPower, SourceDrainSymmetry) {
  const AlphaPowerModel m(defaultAlphaNmos());
  // Id(vgs, vds) = -Id(vgs - vds, -vds): terminal-role reversal.
  const double fwd = m.drainCurrent(kGeom, 0.7, 0.4);
  const double rev = m.drainCurrent(kGeom, 0.7 - 0.4, -0.4);
  EXPECT_NEAR(fwd, -rev, 1e-15 + 1e-12 * std::fabs(fwd));
}

TEST(AlphaPower, ChargesSumToZero) {
  const AlphaPowerModel m(defaultAlphaNmos());
  for (double vgs : {0.0, 0.3, 0.6, 0.9}) {
    for (double vds : {0.0, 0.3, 0.9, -0.4}) {
      const MosfetEvaluation e = m.evaluate(kGeom, vgs, vds);
      EXPECT_NEAR(e.qg + e.qd + e.qs, 0.0, 1e-20)
          << "vgs=" << vgs << " vds=" << vds;
    }
  }
}

TEST(AlphaPower, GateChargeGrowsWithGateBias) {
  const AlphaPowerModel m(defaultAlphaNmos());
  double prev = -1e30;
  for (double vgs = 0.0; vgs <= 0.9001; vgs += 0.1) {
    const double qg = m.evaluate(kGeom, vgs, 0.45).qg;
    EXPECT_GT(qg, prev) << "vgs = " << vgs;
    prev = qg;
  }
}

TEST(AlphaPower, PmosCardDrivesCanonicalCurrent) {
  const AlphaPowerModel pmos(defaultAlphaPmos());
  // Canonical polarity: positive vgs/vds produce positive canonical id;
  // the circuit element applies the sign flips.
  EXPECT_GT(pmos.drainCurrent(kGeom, 0.9, 0.9), 0.0);
  EXPECT_LT(pmos.drainCurrent(kGeom, 0.9, 0.9),
            AlphaPowerModel(defaultAlphaNmos()).drainCurrent(kGeom, 0.9, 0.9));
}

TEST(AlphaPower, CloneIsIndependent) {
  AlphaPowerModel m(defaultAlphaNmos());
  const auto copy = m.clone();
  m.mutableParams().kSat *= 2.0;
  EXPECT_NE(m.drainCurrent(kGeom, 0.9, 0.9),
            copy->drainCurrent(kGeom, 0.9, 0.9));
}

/// One-lane FitCampaign of the alpha-power card on the golden plan.
struct AlphaFit {
  extract::FitCampaignResult result;
  AlphaPowerParams card;
};

AlphaFit fitAlphaToGolden(const AlphaPowerParams& seed,
                          const MosfetModel& golden) {
  const extract::FitCampaign campaign(seed, kGeom,
                                      extract::goldenAlphaPowerPlan());
  AlphaFit fit;
  fit.result = campaign.run(
      1, 0, [&](std::size_t, stats::Rng& rng, extract::FitDataset& d) {
        campaign.synthesizeDataset(golden, 0.0, rng, d);
      });
  fit.card = campaign.alphaCard(fit.result, 0);
  return fit;
}

/// RMS relative error over the golden plan's Id-Vd family (gate 0.54 /
/// 0.72 / 0.9 V, drain 0.05 -> 0.9 V).
double rmsRelIdVd(const MosfetModel& fit, const MosfetModel& golden) {
  double sum = 0.0;
  int n = 0;
  for (const double frac : {0.6, 0.8, 1.0}) {
    for (double vds = 0.05; vds <= 0.9 + 1e-9; vds += 0.05) {
      const double e = fit.drainCurrent(kGeom, frac * 0.9, vds) /
                           golden.drainCurrent(kGeom, frac * 0.9, vds) -
                       1.0;
      sum += e * e;
      ++n;
    }
  }
  return std::sqrt(sum / n);
}

TEST(AlphaPowerFit, TracksGoldenStrongInversion) {
  const BsimLite golden(defaultBsimNmos());
  const AlphaFit fit = fitAlphaToGolden(defaultAlphaNmos(), golden);
  EXPECT_EQ(fit.result.outcomes[0], extract::FitOutcome::converged)
      << extract::toString(fit.result.outcomes[0]);
  // The alpha-power law is a 6-parameter empirical curve: expect a usable
  // (not perfect) strong-inversion match.
  const AlphaPowerModel fitted(fit.card);
  EXPECT_LT(rmsRelIdVd(fitted, golden), 0.15);
  EXPECT_LT(std::fabs(measure::cggAtVdd(fitted, kGeom, 0.9) /
                          measure::cggAtVdd(golden, kGeom, 0.9) -
                      1.0),
            0.10);

  // Idsat anchor: the fitted card lands near the golden on-current.
  const double idFit = fitted.drainCurrent(kGeom, 0.9, 0.9);
  const double idGold = golden.drainCurrent(kGeom, 0.9, 0.9);
  EXPECT_NEAR(idFit / idGold, 1.0, 0.05);
}

TEST(AlphaPowerFit, PmosAlsoFits) {
  const BsimLite golden(defaultBsimPmos());
  const AlphaFit fit = fitAlphaToGolden(defaultAlphaPmos(), golden);
  EXPECT_EQ(fit.result.outcomes[0], extract::FitOutcome::converged)
      << extract::toString(fit.result.outcomes[0]);
  EXPECT_LT(rmsRelIdVd(AlphaPowerModel(fit.card), golden), 0.15);
}

}  // namespace
}  // namespace vsstat::models
