// Fig. 1 nominal fits: the VS card fitted to the golden kit as a one-lane
// FitCampaign on the golden plan, scored directly on the two models.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "extract/fit_campaign.hpp"
#include "measure/device_metrics.hpp"
#include "models/bsim_lite.hpp"
#include "models/vs_model.hpp"
#include "util/error.hpp"

namespace vsstat::extract {
namespace {

using models::BsimLite;
using models::geometryNm;
using models::VsModel;

const models::DeviceGeometry kGeom = geometryNm(300, 40);

/// Bit of n0 in the VS family's parameter vector
/// [vt0, delta0, n0, vxo, mu, beta, cinv].
constexpr std::uint32_t kN0Bit = 1u << 2;

struct GoldenFit {
  FitCampaignResult result;
  models::VsParams card;
};

GoldenFit fitToGolden(const models::VsParams& seed,
                      const models::MosfetModel& golden) {
  const FitCampaign campaign(seed, kGeom, goldenVsPlan());
  GoldenFit fit;
  fit.result =
      campaign.run(1, 0, [&](std::size_t, stats::Rng& rng, FitDataset& d) {
        campaign.synthesizeDataset(golden, 0.0, rng, d);
      });
  fit.card = campaign.vsCard(fit.result, 0);
  return fit;
}

/// Fig. 1 curve errors: RMS of ln(Id_fit / Id_golden) over the Id-Vg scan
/// (drain at 0.05 and 0.9 V, gate 0.10 -> 0.9 V) and of the relative error
/// over the Id-Vd family (gate 0.5 / 0.7 / 0.9 V), plus the relative Cgg
/// error at (Vdd, 0).
struct CurveErrors {
  double rmsLogIdVg = 0.0;
  double rmsRelIdVd = 0.0;
  double relCgg = 0.0;
};

CurveErrors curveErrors(const models::MosfetModel& fit,
                        const models::MosfetModel& golden) {
  double sumLog = 0.0, sumRel = 0.0;
  int nLog = 0, nRel = 0;
  for (double vgs = 0.10; vgs <= 0.9 + 1e-9; vgs += 0.05) {
    for (const double vds : {0.05, 0.9}) {
      const double e = std::log(fit.drainCurrent(kGeom, vgs, vds) /
                                golden.drainCurrent(kGeom, vgs, vds));
      sumLog += e * e;
      ++nLog;
    }
  }
  for (const double vgs : {0.5, 0.7, 0.9}) {
    for (double vds = 0.05; vds <= 0.9 + 1e-9; vds += 0.05) {
      const double e = fit.drainCurrent(kGeom, vgs, vds) /
                           golden.drainCurrent(kGeom, vgs, vds) -
                       1.0;
      sumRel += e * e;
      ++nRel;
    }
  }
  CurveErrors c;
  c.rmsLogIdVg = std::sqrt(sumLog / nLog);
  c.rmsRelIdVd = std::sqrt(sumRel / nRel);
  c.relCgg = measure::cggAtVdd(fit, kGeom, 0.9) /
                 measure::cggAtVdd(golden, kGeom, 0.9) -
             1.0;
  return c;
}

TEST(VsFit, SelfFitIsNearPerfect) {
  // Fitting the VS model to itself must keep errors at numerical noise.
  const models::VsParams truth = models::defaultVsNmos();
  const VsModel golden(truth);
  const GoldenFit fit = fitToGolden(truth, golden);
  EXPECT_EQ(fit.result.outcomes[0], FitOutcome::converged)
      << toString(fit.result.outcomes[0]);
  const CurveErrors c = curveErrors(VsModel(fit.card), golden);
  EXPECT_LT(c.rmsLogIdVg, 1e-4);
  EXPECT_LT(c.rmsRelIdVd, 1e-4);
  EXPECT_LT(std::fabs(c.relCgg), 1e-4);
}

TEST(VsFit, CrossModelFitReachesFigureOneQuality) {
  // Fig. 1: VS tracks the golden kit across all regions.  Cross-family
  // fits can't be perfect; a few percent RMS is the expected quality.
  const BsimLite golden(models::defaultBsimNmos());
  const GoldenFit fit = fitToGolden(models::defaultVsNmos(), golden);
  // The golden data wants n0 below the family box: the fit ends on its
  // 1.22 floor and says so.
  EXPECT_EQ(fit.result.outcomes[0], FitOutcome::boundPinned)
      << toString(fit.result.outcomes[0]);
  EXPECT_EQ(fit.result.boundMask[0], kN0Bit);
  const CurveErrors c = curveErrors(VsModel(fit.card), golden);
  EXPECT_LT(c.rmsLogIdVg, 0.25);  // < ~25% in log-current space
  EXPECT_LT(c.rmsRelIdVd, 0.10);  // < 10% on output curves
  EXPECT_LT(std::fabs(c.relCgg), 0.05);
}

TEST(VsFit, AnchorsPinIdsatAndIoff) {
  const BsimLite golden(models::defaultBsimNmos());
  const GoldenFit fit = fitToGolden(models::defaultVsNmos(), golden);
  const VsModel fitted(fit.card);
  const double idsatErr = measure::idsat(fitted, kGeom, 0.9) /
                              measure::idsat(golden, kGeom, 0.9) -
                          1.0;
  const double ioffErr = measure::log10Ioff(fitted, kGeom, 0.9) -
                         measure::log10Ioff(golden, kGeom, 0.9);
  EXPECT_LT(std::fabs(idsatErr), 0.05);  // Idsat within 5%
  EXPECT_LT(std::fabs(ioffErr), 0.05);   // Ioff within ~12%
}

TEST(VsFit, PmosFitIsBoundPinnedOnN0) {
  const BsimLite golden(models::defaultBsimPmos());
  const GoldenFit fit = fitToGolden(models::defaultVsPmos(), golden);
  EXPECT_EQ(fit.result.outcomes[0], FitOutcome::boundPinned)
      << toString(fit.result.outcomes[0]);
  EXPECT_EQ(fit.result.boundMask[0], kN0Bit);
  EXPECT_LT(curveErrors(VsModel(fit.card), golden).rmsRelIdVd, 0.12);
}

TEST(VsFit, FittedCardStaysInPhysicalBounds) {
  const BsimLite golden(models::defaultBsimNmos());
  const models::VsParams card =
      fitToGolden(models::defaultVsNmos(), golden).card;
  EXPECT_GT(card.vt0, 0.15);
  EXPECT_LT(card.vt0, 0.65);
  EXPECT_GE(card.n0, 1.0);
  EXPECT_GT(card.vxo, 0.0);
  EXPECT_GT(card.mu, 0.0);
  EXPECT_GT(card.beta, 1.0);
}

TEST(VsFit, RejectsNonPositiveVdd) {
  EXPECT_THROW((void)goldenVsPlan(0.0), vsstat::InvalidArgumentError);
  EXPECT_THROW((void)goldenAlphaPowerPlan(-0.9), vsstat::InvalidArgumentError);
}

}  // namespace
}  // namespace vsstat::extract
