// Multi-fit extraction benchmark: the banked campaign engine
// (extract::FitCampaign) on a production-volume batch of VS-card
// re-extractions, in both numerics modes.
//
//   extract_campaign_banked   -- FitCampaign, reference numerics: lanes
//                                scheduled over the thread pool, per-worker
//                                allocation-free LM workspace, the whole
//                                measurement plan evaluated through one
//                                device bank per fit iteration.
//   extract_campaign_banked_fast -- same campaign under NumericsMode::fast
//                                (SIMD transcendental kernels): the
//                                throughput mode extraction's fit-tolerance
//                                contract legitimizes; carries
//                                speedup_vs_banked over the reference row.
//
// Every lane synthesizes a noisy I-V/Cgg dataset from a vt0-perturbed
// golden truth card and re-extracts it, so rows also report recovery
// quality: converged_fraction and the mean/max relative card-parameter
// error vs the known per-lane truth (CI-gated as bounded metrics).
//
// Output is JSONL (one object per line); BENCH_extract.json records a
// reference run that scripts/check_bench_regression.py gates in CI.
// "metrics_fnv1a" is FitCampaignResult::paramsFnv1a() -- equal hashes mean
// bit-identical campaigns; the CI parallel-scaling smoke compares it
// across 1/2/4 workers (--scaling mode, scripts/check_scaling.py).
//
// Usage: bench_extract [--quick] [--threads N] [--scaling]
//   --threads N   worker count for the campaign rows (default 8)
//   --scaling     emit only extract_campaign{,_fast} rows at the given
//                 worker count, without the comparison fields
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <string>

#include "alloc_count.hpp"
#include "extract/fit_campaign.hpp"
#include "models/vs_model.hpp"

namespace vsstat {
namespace {

using Clock = std::chrono::steady_clock;
using extract::FitCampaign;
using extract::FitCampaignResult;
using extract::FitDataset;
using extract::FitOutcome;

constexpr std::uint64_t kSeed = 2013;
constexpr double kVtSigma = 0.015;   ///< per-die truth vt0 spread [V]
constexpr double kNoiseRel = 0.004;  ///< multiplicative measurement noise

unsigned gThreads = 8;
bool gScalingOnly = false;

/// Per-lane dataset: vt0-perturbed truth card, synthesized on the campaign
/// grid with measurement noise.  The first normal draw of the lane's fork
/// is the truth perturbation, so truthVt0() can regenerate it exactly.
FitCampaign::DatasetFn population(const FitCampaign& campaign,
                                  const models::VsParams& seed) {
  return [&campaign, seed](std::size_t, stats::Rng& rng, FitDataset& d) {
    models::VsParams t = seed;
    t.vt0 += kVtSigma * rng.normal();
    const models::VsModel m(t);
    campaign.synthesizeDataset(m, kNoiseRel, rng, d);
  };
}

double truthVt0(const models::VsParams& seed, std::uint64_t campaignSeed,
                std::size_t lane) {
  stats::Rng rng = stats::Rng(campaignSeed).fork(lane);
  return seed.vt0 + kVtSigma * rng.normal();
}

struct FitTiming {
  FitCampaignResult result;
  double usPerFit = 0.0;
  double allocsPerFit = 0.0;
};

/// Times a fit batch with the same marginal-allocation differencing as
/// bench_campaign: a small warm batch is measured first and its fixed cost
/// (result arrays, per-worker engines) differenced out, leaving the
/// steady-state allocation cost of adding one more fit.
constexpr int kWarmFits = 8;

FitTiming timeFits(int fits,
                   const std::function<FitCampaignResult(int)>& run) {
  (void)run(kWarmFits);  // warmup: thread pool + allocator to steady state
  const std::uint64_t base0 = bench::allocCount();
  (void)run(kWarmFits);
  const std::uint64_t base1 = bench::allocCount();

  const std::uint64_t allocs0 = bench::allocCount();
  const auto t0 = Clock::now();
  FitTiming t;
  t.result = run(fits);
  const auto t1 = Clock::now();
  const std::uint64_t allocs1 = bench::allocCount();

  const double us = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
  t.usPerFit = us / fits;
  t.allocsPerFit = (static_cast<double>(allocs1 - allocs0) -
                    static_cast<double>(base1 - base0)) /
                   static_cast<double>(fits - kWarmFits);
  return t;
}

/// Mean/max relative error of every successful lane's fitted parameters vs
/// its known truth card (only vt0 varies per lane; the rest sit at the
/// seed values).
struct CardError {
  double mean = 0.0;
  double max = 0.0;
};

CardError cardError(const FitCampaignResult& r, const models::VsParams& seed,
                    std::uint64_t campaignSeed) {
  const double truthRest[7] = {0.0,     seed.delta0, seed.n0,  seed.vxo,
                               seed.mu, seed.beta,   seed.cinv};
  CardError e;
  double sum = 0.0;
  std::size_t terms = 0;
  for (std::size_t lane = 0; lane < r.laneCount; ++lane) {
    if (r.outcomes[lane] != FitOutcome::converged &&
        r.outcomes[lane] != FitOutcome::boundPinned)
      continue;
    const auto x = r.lane(lane);
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double truth =
          (j == 0) ? truthVt0(seed, campaignSeed, lane) : truthRest[j];
      const double rel = std::fabs(x[j] - truth) / std::fabs(truth);
      sum += rel;
      ++terms;
      e.max = std::max(e.max, rel);
    }
  }
  if (terms > 0) e.mean = sum / static_cast<double>(terms);
  return e;
}

/// One campaign row; `speedupVsBanked` < 0 omits the field (the reference
/// row is its own baseline).
void emitRow(const std::string& name, int fits, const FitTiming& t,
             double speedupVsBanked, const CardError& err) {
  char speedup[64] = "";
  if (speedupVsBanked >= 0.0)
    std::snprintf(speedup, sizeof speedup, "\"speedup_vs_banked\": %.2f, ",
                  speedupVsBanked);
  std::printf(
      "{\"name\": \"%s\", \"fits\": %d, \"threads\": %u, "
      "\"us_per_fit\": %.1f, \"fits_per_sec\": %.1f, %s"
      "\"mean_lm_iters_per_fit\": %.1f, "
      "\"allocs_per_fit\": %.2f, \"converged_fraction\": %.3f, "
      "\"mean_card_param_rel_error\": %.4f, "
      "\"max_card_param_rel_error\": %.4f, "
      "\"metrics_fnv1a\": \"0x%016llx\"}\n",
      name.c_str(), fits, gThreads, t.usPerFit, 1e6 / t.usPerFit, speedup,
      t.result.meanIterationsPerFit(), t.allocsPerFit,
      t.result.convergedFraction(), err.mean, err.max,
      static_cast<unsigned long long>(t.result.paramsFnv1a()));
}

/// --scaling row: the comparison fields are omitted -- cross-worker-count identity is what metrics_fnv1a carries.
/// "samples_per_sec" duplicates fits_per_sec under the key
/// scripts/check_scaling.py uses for its efficiency table.
void emitScaling(const std::string& name, int fits, const FitTiming& t) {
  std::printf(
      "{\"name\": \"%s\", \"fits\": %d, \"threads\": %u, "
      "\"us_per_fit\": %.1f, \"fits_per_sec\": %.1f, "
      "\"samples_per_sec\": %.1f, \"allocs_per_fit\": %.2f, "
      "\"converged_fraction\": %.3f, \"metrics_fnv1a\": \"0x%016llx\"}\n",
      name.c_str(), fits, gThreads, t.usPerFit, 1e6 / t.usPerFit,
      1e6 / t.usPerFit, t.allocsPerFit, t.result.convergedFraction(),
      static_cast<unsigned long long>(t.result.paramsFnv1a()));
}

int run(int fits) {
  const models::VsParams seed;
  const models::DeviceGeometry geom{80e-9, 40e-9};

  extract::FitCampaignOptions banked;
  banked.threads = gThreads;
  const FitCampaign campaignRef(seed, geom, extract::vsMeasurementGrid(),
                                banked);

  extract::FitCampaignOptions fast = banked;
  fast.numerics = models::NumericsMode::fast;
  const FitCampaign campaignFast(seed, geom, extract::vsMeasurementGrid(),
                                 fast);

  if (gScalingOnly) {
    const FitTiming ref = timeFits(fits, [&](int n) {
      return campaignRef.run(static_cast<std::size_t>(n), kSeed,
                             population(campaignRef, seed));
    });
    emitScaling("extract_campaign", fits, ref);
    const FitTiming fst = timeFits(fits, [&](int n) {
      return campaignFast.run(static_cast<std::size_t>(n), kSeed,
                              population(campaignFast, seed));
    });
    emitScaling("extract_campaign_fast", fits, fst);
    return 0;
  }

  const FitTiming ref = timeFits(fits, [&](int n) {
    return campaignRef.run(static_cast<std::size_t>(n), kSeed,
                           population(campaignRef, seed));
  });
  const FitTiming fst = timeFits(fits, [&](int n) {
    return campaignFast.run(static_cast<std::size_t>(n), kSeed,
                            population(campaignFast, seed));
  });
  emitRow("extract_campaign_banked", fits, ref, -1.0,
          cardError(ref.result, seed, kSeed));
  emitRow("extract_campaign_banked_fast", fits, fst,
          ref.usPerFit / fst.usPerFit, cardError(fst.result, seed, kSeed));
  return 0;
}

}  // namespace
}  // namespace vsstat

int main(int argc, char** argv) {
  int fits = 1000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      fits = 120;
    } else if (std::strcmp(argv[i], "--scaling") == 0) {
      vsstat::gScalingOnly = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const int t = std::atoi(argv[++i]);
      if (t < 1) {
        std::fprintf(stderr, "bench_extract: --threads wants >= 1\n");
        return 2;
      }
      vsstat::gThreads = static_cast<unsigned>(t);
    } else {
      std::fprintf(stderr,
                   "bench_extract: unknown argument '%s' (usage: "
                   "bench_extract [--quick] [--threads N] [--scaling])\n",
                   argv[i]);
      return 2;
    }
  }
  try {
    return vsstat::run(fits);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_extract: %s\n", e.what());
    return 1;
  }
}
