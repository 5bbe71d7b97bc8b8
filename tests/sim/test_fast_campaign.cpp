// Campaign-level tolerance contract of NumericsMode::fast: a fast-mode
// session campaign must (a) stay deterministic -- bit-identical across
// thread counts, like every other campaign path -- and (b) track the
// reference campaign's metrics sample-for-sample within solver tolerance
// and, in aggregate, well within statistical noise.
//
// The per-sample check is the strong form of the issue's "within N sigma"
// criterion: with identical seeds the two campaigns evaluate identical
// device draws, so each sample's metric may differ only through the kernel
// rounding (model-level ~1e-14 relative) amplified by the Newton solves
// and the measurement interpolations -- orders below the mismatch sigma.
// The aggregate check then pins mean shift against N*sigma/sqrt(n) so the
// test fails loudly if the per-sample bound is ever loosened past the
// point of statistical equivalence.
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

mc::McResult snmCampaign(int samples, unsigned threads,
                         models::NumericsMode numerics) {
  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = 424242;
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
      spice::SessionOptions{.numerics = numerics});
}

mc::McResult invCampaign(int samples, unsigned threads,
                         models::NumericsMode numerics) {
  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = 909;
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
      spice::SessionOptions{.numerics = numerics});
}

void expectBitIdentical(const mc::McResult& lhs, const mc::McResult& rhs) {
  ASSERT_EQ(lhs.metrics.size(), rhs.metrics.size());
  EXPECT_EQ(lhs.failures, rhs.failures);
  for (std::size_t m = 0; m < lhs.metrics.size(); ++m)
    EXPECT_EQ(lhs.metrics[m], rhs.metrics[m]) << "metric " << m;
}

/// Per-sample relative deltas + aggregate N-sigma statistical-equivalence
/// check between a fast and a reference run with identical seeds.
void expectWithinCampaignTolerance(const mc::McResult& fast,
                                   const mc::McResult& ref, double relTol) {
  ASSERT_EQ(fast.failures, ref.failures);
  ASSERT_EQ(fast.metrics.size(), ref.metrics.size());
  for (std::size_t m = 0; m < ref.metrics.size(); ++m) {
    const std::vector<double>& fr = fast.metrics[m];
    const std::vector<double>& rr = ref.metrics[m];
    ASSERT_EQ(fr.size(), rr.size());
    const std::size_t n = rr.size();
    ASSERT_GT(n, 1u);

    double mean = 0.0;
    for (double v : rr) mean += v;
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (double v : rr) var += (v - mean) * (v - mean);
    const double sigma = std::sqrt(var / static_cast<double>(n - 1));

    double meanDelta = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_LE(std::fabs(fr[k] - rr[k]),
                relTol * (std::fabs(rr[k]) + 1e-18))
          << "metric " << m << " sample " << k;
      meanDelta += fr[k] - rr[k];
    }
    meanDelta /= static_cast<double>(n);
    // 3-sigma band on the mean shift; the per-sample bound keeps the
    // actual shift many orders below this.
    EXPECT_LE(std::fabs(meanDelta),
              3.0 * sigma / std::sqrt(static_cast<double>(n)))
        << "metric " << m;
  }
}

TEST(FastCampaign, SnmFastTracksReferenceWithinTolerance) {
  const mc::McResult ref =
      snmCampaign(16, 1, models::NumericsMode::reference);
  const mc::McResult fast = snmCampaign(16, 1, models::NumericsMode::fast);
  expectWithinCampaignTolerance(fast, ref, 1e-8);
}

TEST(FastCampaign, InvDelayFastTracksReferenceWithinTolerance) {
  const mc::McResult ref = invCampaign(6, 1, models::NumericsMode::reference);
  const mc::McResult fast = invCampaign(6, 1, models::NumericsMode::fast);
  expectWithinCampaignTolerance(fast, ref, 1e-8);
}

TEST(FastCampaign, FastModeBitIdenticalAcrossThreadCounts) {
  // Determinism survives the numerics swap: fast campaigns at 1 and 4
  // workers must agree bit-for-bit (per-worker sessions, decorrelated
  // per-sample RNG, and kernel results independent of scheduling).
  const mc::McResult t1 = snmCampaign(12, 1, models::NumericsMode::fast);
  const mc::McResult t4 = snmCampaign(12, 4, models::NumericsMode::fast);
  expectBitIdentical(t1, t4);

  const mc::McResult i1 = invCampaign(4, 1, models::NumericsMode::fast);
  const mc::McResult i4 = invCampaign(4, 4, models::NumericsMode::fast);
  expectBitIdentical(i1, i4);
}

}  // namespace
}  // namespace vsstat::sim
