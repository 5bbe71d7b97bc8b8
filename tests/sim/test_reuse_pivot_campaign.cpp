// Campaign-level tolerance contract of SolverMode::reusePivot -- the same
// three-level scheme NumericsMode::fast ships under (test_fast_campaign):
//
//   (a) determinism: reuse-pivot campaigns are bit-identical across thread
//       counts -- the canonical pivot order is primed from the as-built
//       fixture, never from a sample, so results cannot depend on which
//       worker session served which sample;
//   (b) tolerance: with identical seeds, each sample's metric tracks the
//       fresh-mode campaign within solver tolerance (the Newton trajectory
//       differs -- same convergence criteria, different factorization
//       rounding -- so deltas are solver-epsilon-sized, orders below the
//       mismatch sigma), and the aggregate mean shift stays within
//       3 sigma / sqrt(n);
//   (c) composition: the SolverMode axis composes with NumericsMode::fast,
//       with the same guarantees against the fast/fresh configuration.
//
// A telemetry test additionally proves the mode is engaged: a reuse-pivot
// session performs ~zero full pivoting passes after priming where a fresh
// session performs one per solve.
#include "sim/session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "mc/circuit_campaign.hpp"
#include "mc/providers.hpp"
#include "mc/runner.hpp"
#include "measure/delay.hpp"
#include "measure/snm.hpp"
#include "models/vs_params.hpp"

namespace vsstat::sim {
namespace {

using circuits::GateFo3Bench;
using circuits::SramButterflyBench;

models::PelgromAlphas someAlphas() {
  models::PelgromAlphas a;
  a.aVt0 = 2.3;
  a.aLeff = 3.7;
  a.aWeff = 3.7;
  a.aMu = 900.0;
  a.aCinv = 0.3;
  return a;
}

std::unique_ptr<circuits::DeviceProvider> makeProvider(stats::Rng rng) {
  return std::make_unique<mc::VsStatisticalProvider>(
      models::defaultVsNmos(), models::defaultVsPmos(), someAlphas(),
      someAlphas(), rng);
}

constexpr int kSnmPoints = 31;

spice::SessionOptions sessionOptions(linalg::SolverMode solver,
                                     models::NumericsMode numerics) {
  spice::SessionOptions o;
  o.numerics = numerics;
  o.solver = solver;
  return o;
}

mc::McResult snmCampaign(int samples, unsigned threads,
                         linalg::SolverMode solver,
                         models::NumericsMode numerics) {
  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = 515151;
  opt.threads = threads;
  return mc::runCampaign<SramButterflyBench>(
      opt, 1,
      [](circuits::DeviceProvider& provider) {
        return circuits::buildSramButterfly(provider, 0.9,
                                            circuits::SramMode::Read,
                                            circuits::SramSizing{});
      },
      [] { return makeProvider(stats::Rng(0)); },
      [](std::size_t, CampaignSession<SramButterflyBench>& session,
         stats::Rng&, std::vector<double>& out) {
        out[0] =
            measure::measureSnm(session.fixture(), session.spice(), kSnmPoints)
                .cellSnm();
      },
      sessionOptions(solver, numerics));
}

mc::McResult invCampaign(int samples, unsigned threads,
                         linalg::SolverMode solver,
                         models::NumericsMode numerics) {
  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = 616161;
  opt.threads = threads;
  return mc::runCampaign<GateFo3Bench>(
      opt, 1,
      [](circuits::DeviceProvider& provider) {
        return circuits::buildInvFo3(provider, circuits::CellSizing{},
                                     circuits::StimulusSpec{});
      },
      [] { return makeProvider(stats::Rng(0)); },
      [](std::size_t, CampaignSession<GateFo3Bench>& session, stats::Rng&,
         std::vector<double>& out) {
        out[0] = measure::measureGateDelays(session.fixture(), session.spice())
                     .average();
      },
      sessionOptions(solver, numerics));
}

void expectBitIdentical(const mc::McResult& lhs, const mc::McResult& rhs) {
  ASSERT_EQ(lhs.metrics.size(), rhs.metrics.size());
  EXPECT_EQ(lhs.failures, rhs.failures);
  for (std::size_t m = 0; m < lhs.metrics.size(); ++m)
    EXPECT_EQ(lhs.metrics[m], rhs.metrics[m]) << "metric " << m;
}

/// Per-sample relative deltas + aggregate N-sigma statistical-equivalence
/// check between a reuse-pivot and a fresh run with identical seeds.
void expectWithinCampaignTolerance(const mc::McResult& reuse,
                                   const mc::McResult& fresh, double relTol) {
  ASSERT_EQ(reuse.failures, fresh.failures);
  ASSERT_EQ(reuse.metrics.size(), fresh.metrics.size());
  for (std::size_t m = 0; m < fresh.metrics.size(); ++m) {
    const std::vector<double>& ru = reuse.metrics[m];
    const std::vector<double>& fr = fresh.metrics[m];
    ASSERT_EQ(ru.size(), fr.size());
    const std::size_t n = fr.size();
    ASSERT_GT(n, 1u);

    double mean = 0.0;
    for (double v : fr) mean += v;
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (double v : fr) var += (v - mean) * (v - mean);
    const double sigma = std::sqrt(var / static_cast<double>(n - 1));

    double meanDelta = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_LE(std::fabs(ru[k] - fr[k]), relTol * (std::fabs(fr[k]) + 1e-18))
          << "metric " << m << " sample " << k;
      meanDelta += ru[k] - fr[k];
    }
    meanDelta /= static_cast<double>(n);
    // 3-sigma band on the mean shift; the per-sample bound keeps the
    // actual shift many orders below this.
    EXPECT_LE(std::fabs(meanDelta),
              3.0 * sigma / std::sqrt(static_cast<double>(n)))
        << "metric " << m;
  }
}

TEST(ReusePivotCampaign, SnmReuseTracksFreshWithinTolerance) {
  const mc::McResult fresh = snmCampaign(16, 1, linalg::SolverMode::fresh,
                                         models::NumericsMode::reference);
  const mc::McResult reuse = snmCampaign(16, 1, linalg::SolverMode::reusePivot,
                                         models::NumericsMode::reference);
  expectWithinCampaignTolerance(reuse, fresh, 1e-8);
}

TEST(ReusePivotCampaign, InvDelayReuseTracksFreshWithinTolerance) {
  const mc::McResult fresh = invCampaign(6, 1, linalg::SolverMode::fresh,
                                         models::NumericsMode::reference);
  const mc::McResult reuse = invCampaign(6, 1, linalg::SolverMode::reusePivot,
                                         models::NumericsMode::reference);
  expectWithinCampaignTolerance(reuse, fresh, 1e-8);
}

TEST(ReusePivotCampaign, FastCompositionTracksFastFreshWithinTolerance) {
  // The two session-mode axes compose: fast+reusePivot vs fast+fresh
  // isolates the SolverMode change under fast numerics.
  const mc::McResult fresh = snmCampaign(12, 1, linalg::SolverMode::fresh,
                                         models::NumericsMode::fast);
  const mc::McResult reuse = snmCampaign(12, 1, linalg::SolverMode::reusePivot,
                                         models::NumericsMode::fast);
  expectWithinCampaignTolerance(reuse, fresh, 1e-8);
}

TEST(ReusePivotCampaign, BitIdenticalAcrossThreadCounts) {
  // The determinism half of the contract: scheduling must not matter even
  // though every worker session reuses pivots across the samples it serves.
  const mc::McResult t1 = snmCampaign(12, 1, linalg::SolverMode::reusePivot,
                                      models::NumericsMode::reference);
  const mc::McResult t4 = snmCampaign(12, 4, linalg::SolverMode::reusePivot,
                                      models::NumericsMode::reference);
  expectBitIdentical(t1, t4);

  const mc::McResult i1 = invCampaign(4, 1, linalg::SolverMode::reusePivot,
                                      models::NumericsMode::reference);
  const mc::McResult i4 = invCampaign(4, 4, linalg::SolverMode::reusePivot,
                                      models::NumericsMode::reference);
  expectBitIdentical(i1, i4);
}

TEST(ReusePivotCampaign, FastCompositionBitIdenticalAcrossThreadCounts) {
  const mc::McResult t1 = snmCampaign(10, 1, linalg::SolverMode::reusePivot,
                                      models::NumericsMode::fast);
  const mc::McResult t4 = snmCampaign(10, 4, linalg::SolverMode::reusePivot,
                                      models::NumericsMode::fast);
  expectBitIdentical(t1, t4);
}

TEST(ReusePivotCampaign, PowerGridReuseTracksFreshAndStaysDeterministic) {
  // The post-layout-scale fixture (circuits::buildPowerGridIrDrop) is the
  // workload class pivot reuse targets; a small grid keeps the test quick
  // while still exercising the many-unknown factorization path.
  const auto gridCampaign = [](int samples, unsigned threads,
                               linalg::SolverMode solver) {
    mc::McOptions opt;
    opt.samples = samples;
    opt.seed = 717171;
    opt.threads = threads;
    return mc::runCampaign<circuits::PowerGridBench>(
        opt, 1,
        [](circuits::DeviceProvider& provider) {
          return circuits::buildPowerGridIrDrop(provider, 4, 4, 0.9);
        },
        [] { return makeProvider(stats::Rng(0)); },
        [](std::size_t, CampaignSession<circuits::PowerGridBench>& session,
           stats::Rng&, std::vector<double>& out) {
          static thread_local std::vector<double> levels;
          static thread_local std::vector<double> farVolts;
          if (levels.size() != 11u) {
            levels.clear();
            for (int i = 0; i <= 10; ++i) levels.push_back(0.09 * i);
          }
          circuits::PowerGridBench& fx = session.fixture();
          session.spice().dcSweepNode(fx.feedSource, levels, fx.farNode,
                                      farVolts);
          out[0] = 0.9 - farVolts.back();
        },
        sessionOptions(solver, models::NumericsMode::reference));
  };

  const mc::McResult fresh = gridCampaign(6, 1, linalg::SolverMode::fresh);
  const mc::McResult reuse =
      gridCampaign(6, 1, linalg::SolverMode::reusePivot);
  expectWithinCampaignTolerance(reuse, fresh, 1e-8);

  const mc::McResult t4 = gridCampaign(6, 4, linalg::SolverMode::reusePivot);
  expectBitIdentical(reuse, t4);
}

TEST(ReusePivotCampaign, TelemetryShowsPivotReuseEngaged) {
  const auto build = [](circuits::DeviceProvider& provider) {
    return circuits::buildSramButterfly(provider, 0.9,
                                        circuits::SramMode::Read,
                                        circuits::SramSizing{});
  };

  const auto sweepOnce = [](CampaignSession<SramButterflyBench>& session) {
    session.bindSample(stats::Rng(7));
    (void)measure::measureSnm(session.fixture(), session.spice(), kSnmPoints)
        .cellSnm();
  };

  CampaignSession<SramButterflyBench> fresh(
      build, makeProvider(stats::Rng(0)),
      sessionOptions(linalg::SolverMode::fresh,
                     models::NumericsMode::reference));
  sweepOnce(fresh);
  const spice::SimSession::SolverTelemetry freshTel =
      fresh.spice().solverTelemetry();
  EXPECT_FALSE(freshTel.pivotSnapshotPrimed);
  // Fresh mode re-pivots once per sweep-level solve: ~2 * kSnmPoints.
  EXPECT_GE(freshTel.fullFactors, static_cast<std::uint64_t>(kSnmPoints));

  CampaignSession<SramButterflyBench> reuse(
      build, makeProvider(stats::Rng(0)),
      sessionOptions(linalg::SolverMode::reusePivot,
                     models::NumericsMode::reference));
  sweepOnce(reuse);
  const spice::SimSession::SolverTelemetry reuseTel =
      reuse.spice().solverTelemetry();
  EXPECT_TRUE(reuseTel.pivotSnapshotPrimed);
  // Priming plus (rare) breakdown fallbacks -- nothing per-solve.
  EXPECT_LE(reuseTel.fullFactors, 4u);
  EXPECT_GE(reuseTel.fastRefactors, freshTel.fastRefactors);
}

}  // namespace
}  // namespace vsstat::sim
