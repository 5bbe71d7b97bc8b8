// Circuit-campaign overloads of mc::runCampaign: Monte Carlo over one fixed
// circuit topology through build-once / rebind-per-sample sessions
// (sim::CampaignSession) instead of rebuilding the fixture every sample.
//
// Semantics match the classic shape exactly -- decorrelated child RNG per
// sample, bit-identical results regardless of thread count, throwing
// samples dropped and counted -- and, because session rebinding is
// draw-for-draw and solver-numerics identical to a rebuild, the metrics
// are bit-identical to a rebuild-per-sample campaign with the same seed.
//
// The session pool's spice::SessionOptions select the session-mode axes for
// every worker session:
// NumericsMode::fast and/or SolverMode::reusePivot keep the
// thread-count-independence guarantee (results never depend on which
// worker served which sample) but replace rebuild bit-identity with the
// documented tolerance contracts (README, "Session modes").
//
// ToleranceTier::statistical adds the third axis: samples are dispatched
// in fixed-size warm-chain blocks (kStatisticalSampleBlock unless
// McOptions::sampleBlock overrides it).  One session lease spans each
// block; within it sample k's analyses seed Newton from sample k-1's
// converged states and blocks start cold, so the warm-start pattern is a
// pure function of the sample index -- statistical campaigns remain
// bit-identical across 1/2/4/... workers, they only trade per-sample
// bit-identity with perSample runs for the estimator-level contract.
//
// A SamplingPlan with a generator scheme (iid/lhs/halton/sobol) replaces
// the provider's internal RNG with externally computed standardized
// coordinates: the plan's generator is evaluated at each sample index and
// armed on the session's circuits::FixedZProvider before the rebind.
#ifndef VSSTAT_MC_CIRCUIT_CAMPAIGN_HPP
#define VSSTAT_MC_CIRCUIT_CAMPAIGN_HPP

#include <functional>
#include <memory>
#include <vector>

#include "mc/runner.hpp"
#include "mc/samplers.hpp"
#include "sim/rescue.hpp"
#include "sim/session.hpp"

namespace vsstat::mc {

/// Default warm-chain block length of statistical-tier campaigns.  Long
/// enough that the per-block cold start is amortized away, short enough
/// that blocks still load-balance across workers for quick-bench sample
/// counts.  Part of the determinism contract: results depend on this
/// value, never on the thread count.
inline constexpr int kStatisticalSampleBlock = 32;

/// Factory for per-worker device providers.  Each session owns one; its
/// initial RNG state is irrelevant (bindSample reseeds before every rebind
/// pass), so statistical providers may be created with any seed.
using ProviderFactory =
    std::function<std::unique_ptr<circuits::DeviceProvider>()>;

/// Sample function of a circuit campaign: the fixture arrives already
/// rebound for this sample's mismatch draw.  `rng` is the sample's child
/// stream at its START -- a COPY of it seeded the provider (exactly like
/// handing a fresh provider the stream in the rebuild flow), so drawing
/// from `rng` directly would replay the very values the rebind consumed.
/// For extra per-sample randomness, fork: `rng.fork(1)`, `rng.fork(2)`,
/// ... are decorrelated from the provider's draws.
template <class Fixture>
using CircuitSampleFn = std::function<void(
    std::size_t index, sim::CampaignSession<Fixture>& session,
    stats::Rng& rng, std::vector<double>& out)>;

/// Runs a Monte Carlo campaign over one circuit topology against a
/// caller-owned session pool: `fn` measures each sample on a leased worker
/// session, rebound for the sample's mismatch draw.  The pool's
/// SessionOptions pick the session modes; under ToleranceTier::statistical
/// a McOptions::sampleBlock of 0 means kStatisticalSampleBlock.  The pool
/// may be shared -- with earlier campaigns (warm sessions) or concurrent
/// ones -- without changing any result bit: a session's numerics do not
/// depend on which samples it served before.  `chunkSamples` / `onChunk`
/// stream progress (CampaignHooks).  Call with the fixture type explicit
/// when `fn` is a lambda, e.g. `mc::runCampaign<circuits::GateFo3Bench>`.
///
/// Failure semantics: a sample whose solve or metric throws a SampleFailure
/// first walks the deterministic rescue ladder (sim/rescue.hpp, disable via
/// `rescue.enabled = false`); a sample the ladder recovers counts in
/// McResult::rescued, one it cannot is dropped under its failure class.
/// Non-SampleFailure exceptions abort the campaign.  A failed or rescued
/// sample also voids the statistical tier's warm chain, so the drop/rescue
/// taxonomy stays a pure function of the sample index.
template <class Fixture>
[[nodiscard]] McResult runCampaign(
    const McOptions& options, std::size_t metricCount,
    sim::SessionPool<Fixture>& pool, const CircuitSampleFn<Fixture>& fn,
    const sim::RescuePolicy& rescue = {}, const SamplingPlan& plan = {},
    int chunkSamples = 0, const ChunkFn& onChunk = {}) {
  using Session = sim::CampaignSession<Fixture>;
  McOptions effective = options;
  if (pool.options().tier == spice::ToleranceTier::statistical &&
      effective.sampleBlock == 0)
    effective.sampleBlock = kStatisticalSampleBlock;

  const std::unique_ptr<SampleGenerator> generator = makeSampleGenerator(
      plan, static_cast<std::size_t>(effective.samples), effective.seed);

  // Blocked dispatch holds one lease per warm-chain block, cold-started at
  // its head; the runner hands it to the block's samples as ctx.block.
  using Lease = typename sim::SessionPool<Fixture>::Lease;
  CampaignHooks hooks{nullptr, chunkSamples, onChunk};
  if (effective.sampleBlock > 0)
    hooks.blockResource = [&pool](std::size_t) -> std::shared_ptr<void> {
      auto lease = std::make_shared<Lease>(pool.acquire());
      (*lease)->coldStart();
      return lease;
    };

  const auto runSample = [&](Session& session, std::size_t index,
                             stats::Rng& rng, std::vector<double>& out,
                             SampleContext& ctx) {
    // Arms the plan's z-vector for this sample.  FixedZProvider::reseed
    // only rewinds the cursor, so rescue-ladder replays (bindSample per
    // attempt) re-run the same coordinates bit-for-bit.
    if (generator != nullptr) {
      auto* fixed =
          dynamic_cast<circuits::FixedZProvider*>(&session.provider());
      require(fixed != nullptr,
              "runCampaign: SamplingPlan generator schemes require the "
              "provider factory to produce circuits::FixedZProvider "
              "sessions");
      fixed->setZ(generator->standardNormals(index));
    }
    sim::runSampleWithRescue(index, session, rng, out, ctx, fn, rescue);
  };

  return runCampaign(
      effective, metricCount,
      SampleFnEx([&](std::size_t index, stats::Rng& rng,
                     std::vector<double>& out, SampleContext& ctx) {
        if (ctx.block != nullptr) {
          runSample(**static_cast<Lease*>(ctx.block), index, rng, out, ctx);
        } else {
          Lease lease = pool.acquire();
          runSample(*lease, index, rng, out, ctx);
        }
      }),
      hooks);
}

/// Builder form: the same campaign on a fresh pool that lives for this one
/// call.  `build` is invoked once per worker session (not per sample).
template <class Fixture>
[[nodiscard]] McResult runCampaign(
    const McOptions& options, std::size_t metricCount,
    const typename sim::CampaignSession<Fixture>::Builder& build,
    const ProviderFactory& providerFactory, const CircuitSampleFn<Fixture>& fn,
    spice::SessionOptions sessionOptions = {},
    const sim::RescuePolicy& rescue = {}, const SamplingPlan& plan = {}) {
  sim::SessionPool<Fixture> pool(build, providerFactory, sessionOptions);
  return runCampaign<Fixture>(options, metricCount, pool, fn, rescue, plan);
}

}  // namespace vsstat::mc

#endif  // VSSTAT_MC_CIRCUIT_CAMPAIGN_HPP
