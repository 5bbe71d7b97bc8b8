// Multi-tenant session-pool cache (sim::SessionPoolCache): keyed pools
// with LRU eviction behind the campaign server.  Covers the cache
// mechanics (hit/miss accounting, LRU order, eviction keeping in-flight
// pools alive) and the determinism contract that matters for multi-tenant
// serving: campaigns leased from a CACHED, REUSED pool must be
// bit-identical to campaigns on dedicated pools, at any worker count.
#include "sim/session.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "mc/circuit_campaign.hpp"
#include "mc/providers.hpp"
#include "mc/runner.hpp"
#include "measure/delay.hpp"
#include "models/vs_model.hpp"
#include "models/vs_params.hpp"
#include "sim/rescue.hpp"

namespace vsstat::sim {
namespace {

using circuits::GateFo3Bench;
using Cache = SessionPoolCache<GateFo3Bench>;
using Pool = SessionPool<GateFo3Bench>;

models::PelgromAlphas someAlphas() {
  models::PelgromAlphas a;
  a.aVt0 = 2.3;
  a.aLeff = 3.7;
  a.aWeff = 3.7;
  a.aMu = 900.0;
  a.aCinv = 0.3;
  return a;
}

GateFo3Bench buildInv(circuits::DeviceProvider& p) {
  return circuits::buildInvFo3(p, circuits::CellSizing{},
                               circuits::StimulusSpec{});
}

std::unique_ptr<circuits::DeviceProvider> makeInvProvider() {
  return std::make_unique<mc::VsStatisticalProvider>(
      models::defaultVsNmos(), models::defaultVsPmos(), someAlphas(),
      someAlphas(), stats::Rng(0));
}

std::shared_ptr<Pool> makeInvPool() {
  return std::make_shared<Pool>(buildInv, makeInvProvider);
}

TEST(SessionPoolCache, HitMissAccounting) {
  Cache cache(4);
  EXPECT_FALSE(cache.contains("a"));

  const std::shared_ptr<Pool> first = cache.acquire("a", makeInvPool);
  EXPECT_TRUE(cache.contains("a"));
  const std::shared_ptr<Pool> second = cache.acquire("a", makeInvPool);
  EXPECT_EQ(first.get(), second.get()) << "repeat key must share one pool";

  const Cache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(SessionPoolCache, EvictsLeastRecentlyUsed) {
  Cache cache(2);
  (void)cache.acquire("a", makeInvPool);
  (void)cache.acquire("b", makeInvPool);
  // Touch "a" so "b" becomes the LRU entry.
  (void)cache.acquire("a", makeInvPool);
  (void)cache.acquire("c", makeInvPool);

  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SessionPoolCache, EvictionKeepsInFlightPoolAlive) {
  Cache cache(1);
  const std::shared_ptr<Pool> held = cache.acquire("a", makeInvPool);
  {
    // Build a session on the held pool, then evict its cache entry.
    Pool::Lease lease = held->acquire();
    (void)cache.acquire("b", makeInvPool);
    EXPECT_FALSE(cache.contains("a"));
    // The lease (and the pool behind it) must remain fully usable.
    EXPECT_GE(lease->deviceCount(), 1u);
  }
  EXPECT_EQ(held->sessionCount(), 1u);
}

TEST(SessionPoolCache, CapacityMustBePositive) {
  EXPECT_THROW(Cache cache(0), InvalidArgumentError);
}

// --- determinism across cached/shared pools --------------------------------

constexpr double kInvDt = 0.5e-12;
constexpr int kCampaignSamples = 70;

mc::McOptions campaignOptions(unsigned threads) {
  mc::McOptions opt;
  opt.samples = kCampaignSamples;
  opt.seed = 321;
  opt.threads = threads;
  return opt;
}

void measureDelay(std::size_t, CampaignSession<GateFo3Bench>& session,
                  stats::Rng&, std::vector<double>& out) {
  out[0] =
      measure::measureGateDelays(session.fixture(), session.spice(), kInvDt)
          .average();
}

/// Runs the INV Fo3 delay campaign against an explicit shared pool in
/// chunks, the way the campaign server does; the chunk callbacks must tile
/// the budget in index order.
mc::McResult campaignOnPool(Pool& pool, unsigned threads, int chunkSamples) {
  std::size_t next = 0;
  const mc::McResult result = mc::runCampaign<GateFo3Bench>(
      campaignOptions(threads), 1, pool, measureDelay, RescuePolicy{},
      mc::SamplingPlan{}, chunkSamples, [&next](const mc::McChunkView& view) {
        EXPECT_EQ(view.first, next);
        next = view.end;
      });
  EXPECT_EQ(next, static_cast<std::size_t>(kCampaignSamples));
  return result;
}

TEST(SessionPoolCache, CachedPoolCampaignsBitIdenticalAcrossWorkers) {
  for (const spice::ToleranceTier tier :
       {spice::ToleranceTier::perSample, spice::ToleranceTier::statistical}) {
    spice::SessionOptions options;
    options.tier = tier;
    // The reference: the builder form on its own fresh pool, 1 worker.
    const mc::McResult reference = mc::runCampaign<GateFo3Bench>(
        campaignOptions(1), 1, buildInv, makeInvProvider, measureDelay,
        options);
    ASSERT_GT(reference.sampleCount(), 0u);

    // One cached pool, re-acquired (warm) for every run: one chunk, then
    // chunks of 1, 7 and 33 samples (33 is not a multiple of the 32-sample
    // warm-chain block), each at 1, 2 and 4 workers.  Sessions primed by
    // earlier runs must not matter.
    Cache cache(2);
    const std::string key = spice::toString(tier);
    for (const int chunk : {0, 1, 7, 33})
      for (const unsigned threads : {1u, 2u, 4u}) {
        const std::shared_ptr<Pool> pool = cache.acquire(key, [&options] {
          return std::make_shared<Pool>(buildInv, makeInvProvider, options);
        });
        const mc::McResult repeat = campaignOnPool(*pool, threads, chunk);
        EXPECT_EQ(repeat.metrics[0], reference.metrics[0])
            << spice::toString(tier) << " tier, chunk " << chunk << ", "
            << threads << " workers";
        EXPECT_EQ(repeat.failures, reference.failures);
        EXPECT_EQ(repeat.rescued, reference.rescued);
      }
    EXPECT_EQ(cache.stats().misses, 1u);
  }
}

}  // namespace
}  // namespace vsstat::sim
