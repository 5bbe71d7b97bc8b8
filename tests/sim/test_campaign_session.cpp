// The campaign engine's core contract (sim/session.hpp): a Monte Carlo
// campaign through build-once / rebind-per-sample sessions must produce
// BIT-identical metrics to the legacy rebuild-per-sample path, for any
// thread count -- on both a transient workload (INV Fo3 delay) and a
// DC-sweep workload (SRAM SNM).  Also covers the element/provider rebind
// plumbing, KCL at rebound samples, and the session pool.
#include "sim/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "mc/circuit_campaign.hpp"
#include "mc/providers.hpp"
#include "mc/runner.hpp"
#include "measure/delay.hpp"
#include "measure/snm.hpp"
#include "models/bsim_lite.hpp"
#include "models/bsim_params.hpp"
#include "models/vs_model.hpp"
#include "models/vs_params.hpp"
#include "support/mna_oracles.hpp"

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

void expectBitIdentical(const mc::McResult& lhs, const mc::McResult& rhs) {
  ASSERT_EQ(lhs.metrics.size(), rhs.metrics.size());
  EXPECT_EQ(lhs.failures, rhs.failures);
  for (std::size_t m = 0; m < lhs.metrics.size(); ++m) {
    ASSERT_EQ(lhs.metrics[m].size(), rhs.metrics[m].size()) << "metric " << m;
    // operator== on vector<double> compares element bits (no tolerance).
    EXPECT_EQ(lhs.metrics[m], rhs.metrics[m]) << "metric " << m;
  }
}

// --- INV Fo3 delay: transient workload -------------------------------------

constexpr double kInvDt = 0.5e-12;

mc::McResult invRebuildCampaign(int samples, unsigned threads) {
  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = 77;
  opt.threads = threads;
  return mc::runCampaign(
      opt, 1, [](std::size_t, stats::Rng& rng, std::vector<double>& out) {
        auto provider = makeProvider(rng);
        GateFo3Bench bench = circuits::buildInvFo3(
            *provider, circuits::CellSizing{}, circuits::StimulusSpec{});
        out[0] = measure::measureGateDelays(bench, kInvDt).average();
      });
}

mc::McResult invSessionCampaign(int samples, unsigned threads) {
  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = 77;
  opt.threads = threads;
  return mc::runCampaign<GateFo3Bench>(
      opt, 1,
      [](circuits::DeviceProvider& p) {
        return circuits::buildInvFo3(p, circuits::CellSizing{},
                                     circuits::StimulusSpec{});
      },
      [] { return makeProvider(stats::Rng(0)); },
      [](std::size_t, CampaignSession<GateFo3Bench>& session, stats::Rng&,
         std::vector<double>& out) {
        out[0] = measure::measureGateDelays(session.fixture(), session.spice(),
                                            kInvDt)
                     .average();
      });
}

TEST(CampaignSession, InvFo3RebindBitIdenticalToRebuild) {
  const mc::McResult rebuild = invRebuildCampaign(12, 1);
  const mc::McResult session1 = invSessionCampaign(12, 1);
  const mc::McResult session4 = invSessionCampaign(12, 4);
  ASSERT_GT(rebuild.sampleCount(), 0u);
  expectBitIdentical(rebuild, session1);
  expectBitIdentical(rebuild, session4);
}

// --- SRAM SNM: DC-sweep workload -------------------------------------------

constexpr int kSnmPoints = 31;

mc::McResult snmRebuildCampaign(int samples, unsigned threads) {
  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = 901;
  opt.threads = threads;
  return mc::runCampaign(
      opt, 1, [](std::size_t, stats::Rng& rng, std::vector<double>& out) {
        auto provider = makeProvider(rng);
        SramButterflyBench bench = circuits::buildSramButterfly(
            *provider, 0.9, circuits::SramMode::Read, circuits::SramSizing{});
        out[0] = measure::measureSnm(bench, kSnmPoints).cellSnm();
      });
}

mc::McResult snmSessionCampaign(int samples, unsigned threads) {
  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = 901;
  opt.threads = threads;
  return mc::runCampaign<SramButterflyBench>(
      opt, 1,
      [](circuits::DeviceProvider& p) {
        return circuits::buildSramButterfly(p, 0.9, circuits::SramMode::Read,
                                            circuits::SramSizing{});
      },
      [] { return makeProvider(stats::Rng(0)); },
      [](std::size_t, CampaignSession<SramButterflyBench>& session,
         stats::Rng&, std::vector<double>& out) {
        out[0] =
            measure::measureSnm(session.fixture(), session.spice(), kSnmPoints)
                .cellSnm();
      });
}

TEST(CampaignSession, SramSnmRebindBitIdenticalToRebuild) {
  const mc::McResult rebuild = snmRebuildCampaign(10, 1);
  const mc::McResult session1 = snmSessionCampaign(10, 1);
  const mc::McResult session4 = snmSessionCampaign(10, 4);
  ASSERT_GT(rebuild.sampleCount(), 0u);
  expectBitIdentical(rebuild, session1);
  expectBitIdentical(rebuild, session4);
}

// --- Device bank: rebound samples vs KCL ------------------------------------

TEST(DeviceBankCampaign, ReboundSamplesSatisfyKcl) {
  // bindSample rewrites every card in place, so the bank must refresh each
  // lane before the next solve.  KCL computed from the fixture's rebound
  // cards (not from the bank) fails if a lane still holds the previous
  // sample's card: the READ butterfly carries microamps through every
  // access and pull-down device.
  auto session = CampaignSession<SramButterflyBench>(
      [](circuits::DeviceProvider& p) {
        return circuits::buildSramButterfly(p, 0.9, circuits::SramMode::Read,
                                            circuits::SramSizing{});
      },
      makeProvider(stats::Rng(1)));
  ASSERT_EQ(session.spice().deviceBankLaneCount(), 6u);
  for (std::uint64_t sample = 0; sample < 8; ++sample) {
    session.bindSample(stats::Rng(1000 + sample));
    SCOPED_TRACE(sample);
    test_support::expectKcl(session.fixture().circuit,
                            session.spice().dcOperatingPoint());
  }
}

// --- Rebind plumbing ---------------------------------------------------------

TEST(CampaignSession, RecordsBuildOrderAndRebindsInPlace) {
  auto provider = makeProvider(stats::Rng(3));
  CampaignSession<SramButterflyBench> session(
      [](circuits::DeviceProvider& p) {
        return circuits::buildSramButterfly(p, 0.9, circuits::SramMode::Hold,
                                            circuits::SramSizing{});
      },
      std::move(provider));
  // Documented order: PU1, PD1, PG1, PU2, PD2, PG2.
  EXPECT_EQ(session.deviceCount(), 6u);

  // Rebinding with the same sample stream must reproduce the rebuild cards:
  // compare a terminal current against a freshly built fixture.
  const stats::Rng sample(12345);
  session.bindSample(sample);
  const double sessionId = session.fixture()
                               .circuit.mosfet("MPD1")
                               .terminalDrainCurrent(0.9, 0.9, 0.0);

  auto freshProvider = makeProvider(sample);
  SramButterflyBench rebuilt = circuits::buildSramButterfly(
      *freshProvider, 0.9, circuits::SramMode::Hold, circuits::SramSizing{});
  const double rebuiltId =
      rebuilt.circuit.mosfet("MPD1").terminalDrainCurrent(0.9, 0.9, 0.0);
  EXPECT_EQ(sessionId, rebuiltId);

  // A second bind with a different stream must actually change the card.
  session.bindSample(stats::Rng(999));
  const double rebound = session.fixture()
                             .circuit.mosfet("MPD1")
                             .terminalDrainCurrent(0.9, 0.9, 0.0);
  EXPECT_NE(rebound, sessionId);
}

TEST(MosfetRebind, SameTypeCopiesInPlaceDifferentTypeClones) {
  const models::VsModel vsA(models::defaultVsNmos());
  models::VsParams tweaked = models::defaultVsNmos();
  tweaked.vt0 += 0.05;
  const models::VsModel vsB(tweaked);

  spice::Circuit c;
  auto& m = c.addMosfet("M1", c.node("d"), c.node("g"), c.ground(),
                        vsA.clone(), models::geometryNm(300, 40));
  const models::MosfetModel* before = &m.model();
  m.rebind(vsB, models::geometryNm(300, 40));
  EXPECT_EQ(&m.model(), before);  // same object, parameters overwritten
  EXPECT_EQ(m.terminalDrainCurrent(0.9, 0.9, 0.0),
            spice::MosfetElement("tmp", 1, 2, 0, vsB.clone(),
                                 models::geometryNm(300, 40))
                .terminalDrainCurrent(0.9, 0.9, 0.0));

  // Cross-family rebind falls back to cloning (and must not change type).
  const models::BsimLite golden(models::defaultBsimNmos());
  m.rebind(golden, models::geometryNm(300, 40));
  EXPECT_NE(&m.model(), before);
  EXPECT_EQ(m.model().name(), "BSIM-lite");
}

TEST(SessionPool, ReusesSessionsAcrossLeases) {
  SessionPool<SramButterflyBench> pool(
      [](circuits::DeviceProvider& p) {
        return circuits::buildSramButterfly(p, 0.9, circuits::SramMode::Hold,
                                            circuits::SramSizing{});
      },
      [] { return makeProvider(stats::Rng(0)); });

  CampaignSession<SramButterflyBench>* first = nullptr;
  {
    auto lease = pool.acquire();
    first = &*lease;
  }
  {
    auto lease = pool.acquire();
    EXPECT_EQ(&*lease, first);  // returned to the free list and reused
  }
  EXPECT_EQ(pool.sessionCount(), 1u);

  // Two concurrent leases force a second session.
  auto a = pool.acquire();
  auto b = pool.acquire();
  EXPECT_NE(&*a, &*b);
  EXPECT_EQ(pool.sessionCount(), 2u);
}

}  // namespace
}  // namespace vsstat::sim
