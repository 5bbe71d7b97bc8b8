// Device-bank benchmark: the struct-of-arrays banked MOSFET path
// (spice/device_bank.hpp) in reference and in NumericsMode::fast (SIMD
// transcendental kernels), at two levels:
//
//   micro    -- raw Newton-load evaluation of a 6-lane VS bank (the 6T SRAM
//               device population): per-device virtual evaluateLoad -- the
//               model-level oracle -- vs one evaluateLoadBatch with per-lane
//               cached derived parameters, in both numerics modes;
//   campaign -- the paper's two statistical inner loops (SRAM SNM DC
//               sweeps, INV FO3 transient delay) through reference-banked
//               and fast-banked session Monte Carlo campaigns, identical
//               seeds.
//
// The reference micro row verifies bit-identity with evaluateLoad in-run;
// fast rows verify the tolerance contract instead (max relative metric
// deviation from the reference run, reported as "max_rel_delta" and
// asserted under "within_tolerance").  "allocs" counts heap allocations
// per sample/evaluation in steady state.  A fourth campaign row composes
// the two session-mode axes -- NumericsMode::fast + SolverMode::reusePivot
// -- with "speedup_vs_fresh" against the fast/fresh run and the same
// tolerance accounting (the reference-numerics reuse rows live in
// bench_campaign).
//
// Output is machine-readable JSON, one object per line on stdout;
// BENCH_device_bank.json records a reference run and CI gates regressions
// against it (scripts/check_bench_regression.py).
//
// Usage: bench_device_bank [--quick]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "circuits/benchmarks.hpp"
#include "common.hpp"
#include "mc/circuit_campaign.hpp"
#include "mc/providers.hpp"
#include "mc/runner.hpp"
#include "measure/delay.hpp"
#include "measure/snm.hpp"
#include "models/vs_model.hpp"
#include "models/vs_params.hpp"

namespace vsstat {
namespace {

using Clock = std::chrono::steady_clock;

// --- micro: 6-lane VS bank ---------------------------------------------------

void benchMicro(int sweeps) {
  // Six mismatched VS instances in SRAM-like geometries: the device
  // population one banked SNM assembly evaluates.
  std::vector<std::unique_ptr<models::VsModel>> cards;
  std::vector<models::DeviceGeometry> geoms;
  for (int i = 0; i < 6; ++i) {
    models::VsParams p =
        (i % 2 == 0) ? models::defaultVsNmos() : models::defaultVsPmos();
    p.vt0 += 0.004 * i;
    p.mu *= 1.0 + 0.02 * i;
    cards.push_back(std::make_unique<models::VsModel>(p));
    geoms.push_back(models::geometryNm(150.0 + 50.0 * i, 40));
  }
  std::vector<models::BankLane> lanes;
  for (std::size_t i = 0; i < cards.size(); ++i)
    lanes.push_back(models::BankLane{cards[i].get(), &geoms[i]});
  const models::MosfetModel& frontCard = *cards.front();
  const auto bank = frontCard.makeLoadBank(lanes);
  const auto fastBank =
      frontCard.makeLoadBank(lanes, models::NumericsMode::fast);

  const std::size_t n = cards.size();
  std::vector<double> vgs(n), vds(n);
  std::vector<models::MosfetLoadEvaluation> scalarOut(n), batchOut(n),
      fastOut(n);
  constexpr double kStep = 1e-3;

  const auto biasAt = [&](int s) {
    for (std::size_t i = 0; i < n; ++i) {
      vgs[i] = 0.05 + 0.85 * ((s + static_cast<int>(i) * 7) % 97) / 96.0;
      vds[i] = 0.9 * ((s + static_cast<int>(i) * 13) % 89) / 88.0;
    }
  };

  double checksum = 0.0;
  bool identical = true;
  double fastMaxRel = 0.0;

  // Warmup + bit-identity (reference bank) and tolerance (fast bank)
  // accounting over the full sweep.
  for (int s = 0; s < 200; ++s) {
    biasAt(s);
    for (std::size_t i = 0; i < n; ++i)
      scalarOut[i] = cards[i]->evaluateLoad(geoms[i], vgs[i], vds[i], kStep);
    bank->evaluateLoadBatch(vgs, vds, kStep, batchOut);
    fastBank->evaluateLoadBatch(vgs, vds, kStep, fastOut);
    for (std::size_t i = 0; i < n; ++i) {
      identical = identical && scalarOut[i].at.id == batchOut[i].at.id &&
                  scalarOut[i].didVgs == batchOut[i].didVgs &&
                  scalarOut[i].dqgVds == batchOut[i].dqgVds &&
                  scalarOut[i].dqsVgs == batchOut[i].dqsVgs;
      fastMaxRel = std::max(
          fastMaxRel, std::fabs(fastOut[i].at.id - scalarOut[i].at.id) /
                          (std::fabs(scalarOut[i].at.id) + 1e-15));
    }
  }

  const std::uint64_t a0 = bench::allocCount();
  const auto t0 = Clock::now();
  for (int s = 0; s < sweeps; ++s) {
    biasAt(s);
    for (std::size_t i = 0; i < n; ++i) {
      scalarOut[i] = cards[i]->evaluateLoad(geoms[i], vgs[i], vds[i], kStep);
      checksum += scalarOut[i].at.id;
    }
  }
  const auto t1 = Clock::now();
  for (int s = 0; s < sweeps; ++s) {
    biasAt(s);
    bank->evaluateLoadBatch(vgs, vds, kStep, batchOut);
    for (std::size_t i = 0; i < n; ++i) checksum += batchOut[i].at.id;
  }
  const auto t2 = Clock::now();
  const std::uint64_t a1 = bench::allocCount();
  for (int s = 0; s < sweeps; ++s) {
    biasAt(s);
    fastBank->evaluateLoadBatch(vgs, vds, kStep, fastOut);
    for (std::size_t i = 0; i < n; ++i) checksum += fastOut[i].at.id;
  }
  const auto t3 = Clock::now();
  const std::uint64_t a2 = bench::allocCount();

  const double evals = static_cast<double>(sweeps) * static_cast<double>(n);
  const double nsScalar =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() /
      evals;
  const double nsBatch =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count() /
      evals;
  const double nsFast =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t3 - t2).count() /
      evals;
  std::printf("{\"name\": \"micro_vs_load_scalar\", \"lanes\": 6, "
              "\"ns_per_device_eval\": %.1f}\n",
              nsScalar);
  std::printf("{\"name\": \"micro_vs_load_banked\", \"lanes\": 6, "
              "\"ns_per_device_eval\": %.1f, \"speedup_vs_scalar\": %.2f, "
              "\"allocs\": %.2f, \"bit_identical\": %s}\n",
              nsBatch, nsScalar / nsBatch,
              static_cast<double>(a1 - a0) / (2.0 * evals),
              identical ? "true" : "false");
  std::printf("{\"name\": \"micro_vs_load_fast\", \"lanes\": 6, "
              "\"ns_per_device_eval\": %.1f, \"speedup_vs_scalar\": %.2f, "
              "\"speedup_vs_banked\": %.2f, \"allocs\": %.2f, "
              "\"max_rel_delta\": %.2e, \"within_tolerance\": %s}\n",
              nsFast, nsScalar / nsFast, nsBatch / nsFast,
              static_cast<double>(a2 - a1) / evals, fastMaxRel,
              fastMaxRel <= 1e-9 ? "true" : "false");
  if (checksum == 12345.0) std::printf("# impossible\n");  // defeat DCE
}

// --- campaigns: reference vs fast banked sessions ---------------------------

models::PelgromAlphas benchAlphas() {
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
      models::defaultVsNmos(), models::defaultVsPmos(), benchAlphas(),
      benchAlphas(), rng);
}

struct CampaignTiming {
  mc::McResult result;
  double usPerSample = 0.0;
  double allocsPerSample = 0.0;
};

/// allocs_per_sample is MARGINAL: the fixed campaign-construction cost
/// (sessions, pattern capture, bank SoA state) is measured on a small
/// reference campaign and differenced out, leaving the steady-state
/// allocation cost of one more sample -- zero, per the engine contract.
constexpr int kWarmSamples = 4;

CampaignTiming timeCampaign(int samples,
                            const std::function<mc::McResult(int)>& run) {
  (void)run(kWarmSamples);  // warmup: sessions, thread pool, thread_locals
  const std::uint64_t base0 = bench::allocCount();
  (void)run(kWarmSamples);  // fixed campaign cost + kWarmSamples marginals
  const std::uint64_t base1 = bench::allocCount();

  const std::uint64_t allocs0 = bench::allocCount();
  const auto t0 = Clock::now();
  CampaignTiming t;
  t.result = run(samples);
  const auto t1 = Clock::now();
  const std::uint64_t allocs1 = bench::allocCount();

  const double us = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
  t.usPerSample = us / samples;
  t.allocsPerSample =
      (static_cast<double>(allocs1 - allocs0) -
       static_cast<double>(base1 - base0)) /
      static_cast<double>(samples - kWarmSamples);
  return t;
}

constexpr int kSnmPoints = 45;
constexpr std::uint64_t kSeed = 901;

mc::McOptions options(int samples) {
  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = kSeed;
  opt.threads = 1;  // per-sample cost comparison, not parallel throughput
  return opt;
}

mc::McResult snmCampaign(int n, spice::SessionOptions sessionOptions) {
  return mc::runCampaign<circuits::SramButterflyBench>(
      options(n), 1,
      [](circuits::DeviceProvider& provider) {
        return circuits::buildSramButterfly(provider, 0.9,
                                            circuits::SramMode::Read,
                                            circuits::SramSizing{});
      },
      [] { return makeProvider(stats::Rng(0)); },
      [](std::size_t,
         sim::CampaignSession<circuits::SramButterflyBench>& session,
         stats::Rng&, std::vector<double>& out) {
        out[0] =
            measure::measureSnm(session.fixture(), session.spice(), kSnmPoints)
                .cellSnm();
      },
      sessionOptions);
}

mc::McResult invCampaign(int n, spice::SessionOptions sessionOptions) {
  return mc::runCampaign<circuits::GateFo3Bench>(
      options(n), 1,
      [](circuits::DeviceProvider& provider) {
        return circuits::buildInvFo3(provider, circuits::CellSizing{},
                                     circuits::StimulusSpec{});
      },
      [] { return makeProvider(stats::Rng(0)); },
      [](std::size_t, sim::CampaignSession<circuits::GateFo3Bench>& session,
         stats::Rng&, std::vector<double>& out) {
        out[0] =
            measure::measureGateDelays(session.fixture(), session.spice())
                .average();
      },
      sessionOptions);
}

void benchWorkload(
    const std::string& name, int samples,
    const std::function<mc::McResult(int, spice::SessionOptions)>& campaign) {
  spice::SessionOptions bankedOpt;
  spice::SessionOptions fastOpt;
  fastOpt.numerics = models::NumericsMode::fast;
  spice::SessionOptions fastReuseOpt = fastOpt;
  fastReuseOpt.solver = linalg::SolverMode::reusePivot;

  const CampaignTiming banked =
      timeCampaign(samples, [&](int n) { return campaign(n, bankedOpt); });
  const CampaignTiming fast =
      timeCampaign(samples, [&](int n) { return campaign(n, fastOpt); });
  const CampaignTiming fastReuse =
      timeCampaign(samples, [&](int n) { return campaign(n, fastReuseOpt); });
  const double fastDelta = bench::maxRelMetricDelta(fast.result, banked.result);
  // The composed modes' tolerance is accounted against the fast/fresh run:
  // that isolates what SolverMode::reusePivot adds on top of the already-
  // tolerance-checked fast numerics.
  const double fastReuseDelta =
      bench::maxRelMetricDelta(fastReuse.result, fast.result);
  std::printf("{\"name\": \"%s_banked_session\", \"samples\": %d, "
              "\"us_per_sample\": %.1f, \"samples_per_sec\": %.1f, "
              "\"allocs_per_sample\": %.1f}\n",
              name.c_str(), samples, banked.usPerSample,
              1e6 / banked.usPerSample, banked.allocsPerSample);
  std::printf("{\"name\": \"%s_fast_session\", \"samples\": %d, "
              "\"us_per_sample\": %.1f, \"samples_per_sec\": %.1f, "
              "\"allocs_per_sample\": %.1f, "
              "\"speedup_vs_banked\": %.2f, \"max_rel_delta\": %.2e, "
              "\"within_tolerance\": %s}\n",
              name.c_str(), samples, fast.usPerSample, 1e6 / fast.usPerSample,
              fast.allocsPerSample, banked.usPerSample / fast.usPerSample,
              fastDelta,
              // Same per-sample bound the campaign tolerance tests assert
              // (tests/sim/test_fast_campaign.cpp); measured ~1e-14.
              fastDelta <= 1e-8 ? "true" : "false");
  std::printf("{\"name\": \"%s_fast_reuse_session\", \"samples\": %d, "
              "\"us_per_sample\": %.1f, \"samples_per_sec\": %.1f, "
              "\"allocs_per_sample\": %.1f, \"speedup_vs_fresh\": %.2f, "
              "\"speedup_vs_banked\": %.2f, \"max_rel_delta\": %.2e, "
              "\"within_tolerance\": %s}\n",
              name.c_str(), samples, fastReuse.usPerSample,
              1e6 / fastReuse.usPerSample, fastReuse.allocsPerSample,
              fast.usPerSample / fastReuse.usPerSample,
              banked.usPerSample / fastReuse.usPerSample, fastReuseDelta,
              // tests/sim/test_reuse_pivot_campaign.cpp asserts the same
              // 1e-8 per-sample bound for the composed modes.
              fastReuseDelta <= 1e-8 ? "true" : "false");
}

int run(int micro, int snmSamples, int invSamples) {
  benchMicro(micro);
  benchWorkload("sram_snm", snmSamples, [](int n, spice::SessionOptions o) {
    return snmCampaign(n, o);
  });
  benchWorkload("inv_fo3", invSamples, [](int n, spice::SessionOptions o) {
    return invCampaign(n, o);
  });
  return 0;
}

}  // namespace
}  // namespace vsstat

int main(int argc, char** argv) {
  int micro = 200000;
  int snmSamples = 160;
  int invSamples = 48;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      micro = 20000;
      snmSamples = 32;
      invSamples = 12;
    }
  }
  try {
    return vsstat::run(micro, snmSamples, invSamples);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_device_bank: %s\n", e.what());
    return 1;
  }
}
