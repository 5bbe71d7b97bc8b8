// Campaign-engine benchmark: rebuild-per-sample vs build-once/rebind
// sessions (sim::CampaignSession) on the paper's two statistical
// workloads:
//
//   sram_snm -- READ SNM of the 6T butterfly via 45-point DC sweeps
//               (the Fig. 9 Monte Carlo inner loop);
//   inv_fo3  -- INV FO3 delay via transient analysis (the Fig. 5 inner
//               loop);
//   grid_ir  -- worst-case IR drop of a 10x10 power-grid mesh (101 MNA
//               unknowns, one statistically varied leakage FET per node)
//               via supply sweeps: the post-layout-scale workload where
//               per-solve LU costs rival device evaluation.  Session-only
//               (the rebuild path would measure fixture construction, not
//               the solver), so its rows carry the fresh-vs-reuse
//               comparison.
//   grid_ladder_{10,32,64} -- the grid-scale fixture ladder: one row per
//               mesh rung combining session-campaign throughput with a
//               direct factor probe (ordering us, fresh-factor us, fill
//               ratio, marginal allocs per factor, factor memory).  Rungs
//               up to 32x32 also time the retained dense-pivot baseline
//               (DensePivotLu) and carry the CI-gated "speedup_vs_dense_lu";
//               the 64x64 rung instead records its isolated peak RSS, the
//               near-linear-memory evidence at ~4k unknowns.
//   grid_ladder_{128,256} -- the factor probe alone (no campaign samples)
//               on the 16k- and 65k-unknown meshes; the 256 row also
//               carries "ordering_exponent", the log-log slope of ordering
//               time against unknowns over the 32..256 rungs.
//
// Both paths run the identical statistical VS sampling (same seed, same
// draws) single-threaded, so samples/sec compares per-sample cost and the
// metrics can be checked bit-identical.  "allocs" counts heap allocations
// per sample in steady state (rebuilding circuit + assembler per sample is
// hundreds; a session rebind pass is near zero for the VS provider).
//
// A third row per workload measures SolverMode::reusePivot on the session
// path (reference numerics): one canonical LU pivot order amortized across
// every solve instead of a dense re-pivot + symbolic pass per solve.
// Reuse rows carry "speedup_vs_fresh" (vs the fresh session row),
// "max_rel_delta" (largest per-sample metric deviation from the fresh run,
// same seeds) and "within_tolerance" (the campaign tolerance contract's
// 1e-8 per-sample bound) instead of rebuild bit-identity -- pivot reuse
// changes the Newton trajectory, statistically equivalently (the fast-
// numerics composition lives in bench_device_bank).
//
// Output is machine-readable JSON, one object per line on stdout:
//   {"name": ..., "samples": N, "threads": T, "us_per_sample": ...,
//    "samples_per_sec": ..., "allocs_per_sample": ...,
//    "speedup_vs_rebuild": ..., "bit_identical": true,
//    "metrics_fnv1a": "0x..."}
// BENCH_campaign.json records a reference run; CI gates regressions
// against it (scripts/check_bench_regression.py).
//
// "metrics_fnv1a" hashes every metric double's bit pattern plus the
// failure count, so two rows with equal hashes ran bit-identical
// campaigns -- the CI parallel-scaling smoke compares it across worker
// counts (scripts/check_scaling.py).
//
// Usage: bench_campaign [--quick] [--threads N] [--scaling]
//   --threads N   run the campaigns with N workers (default 1)
//   --scaling     emit only session rows, one per session-mode combination
//                 (NumericsMode x SolverMode: _session, _session_fast,
//                 _session_reuse, _session_fast_reuse), skipping the
//                 rebuild-path comparison: the mode the CI scaling smoke
//                 and the scaling-audit job run across worker counts,
//                 comparing metrics_fnv1a per row name across runs
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "circuits/benchmarks.hpp"
#include "common.hpp"
#include "linalg/dense_pivot_lu.hpp"
#include "linalg/ordering.hpp"
#include "linalg/sparse_lu.hpp"
#include "mc/circuit_campaign.hpp"
#include "mc/providers.hpp"
#include "mc/runner.hpp"
#include "measure/delay.hpp"
#include "measure/snm.hpp"
#include "models/vs_params.hpp"
#include "spice/assembler.hpp"
#include "stats/descriptive.hpp"
#include "util/fnv1a.hpp"
#include "util/rusage.hpp"

namespace vsstat {
namespace {

using Clock = std::chrono::steady_clock;

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

/// Times a whole campaign (after a small warmup campaign that brings the
/// thread pool and allocator to steady state).
///
/// allocs_per_sample is MARGINAL: every campaign run pays a fixed
/// construction cost (sessions, assembler pattern capture, device-bank
/// SoA state) that has nothing to do with per-sample work, so a small
/// reference campaign is measured first and differenced out -- what
/// remains is the steady-state allocation cost of adding one more sample,
/// which the campaign engine contract keeps at zero.
constexpr int kWarmSamples = 4;

CampaignTiming timeCampaign(int samples,
                            const std::function<mc::McResult(int)>& run) {
  (void)run(kWarmSamples);  // warmup
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

bool bitIdentical(const mc::McResult& a, const mc::McResult& b) {
  if (a.failures != b.failures || a.metrics.size() != b.metrics.size())
    return false;
  for (std::size_t m = 0; m < a.metrics.size(); ++m)
    if (a.metrics[m] != b.metrics[m]) return false;
  return true;
}

/// FNV-1a over every metric double's bit pattern plus the failure count:
/// equal hashes across runs mean bit-identical campaign results.  Uses the
/// shared util::Fnv1a accumulator (same byte order as before), so these
/// hashes stay comparable with historical BENCH_campaign.json rows.
std::uint64_t metricsHash(const mc::McResult& r) {
  util::Fnv1a h;
  h.mix(static_cast<std::uint64_t>(r.failures));
  for (const std::vector<double>& row : r.metrics) {
    h.mix(row.size());
    for (double v : row) h.mixDouble(v);
  }
  return h.value();
}

unsigned gThreads = 1;
bool gScalingOnly = false;

void emit(const std::string& name, int samples, const CampaignTiming& t,
          double rebuildUsPerSample, bool identical) {
  std::printf(
      "{\"name\": \"%s\", \"samples\": %d, \"threads\": %u, "
      "\"us_per_sample\": %.1f, \"samples_per_sec\": %.1f, "
      "\"allocs_per_sample\": %.1f, \"speedup_vs_rebuild\": %.2f, "
      "\"bit_identical\": %s, \"metrics_fnv1a\": \"0x%016llx\"}\n",
      name.c_str(), samples, gThreads, t.usPerSample, 1e6 / t.usPerSample,
      t.allocsPerSample, rebuildUsPerSample / t.usPerSample,
      identical ? "true" : "false",
      static_cast<unsigned long long>(metricsHash(t.result)));
}

/// Pivot-reuse row: compared against the fresh session run (same seeds)
/// through the tolerance contract, not bit-identity.
void emitReuse(const std::string& name, int samples, const CampaignTiming& t,
               double freshUsPerSample, double relDelta) {
  std::printf(
      "{\"name\": \"%s\", \"samples\": %d, \"threads\": %u, "
      "\"us_per_sample\": %.1f, \"samples_per_sec\": %.1f, "
      "\"allocs_per_sample\": %.1f, \"speedup_vs_fresh\": %.2f, "
      "\"max_rel_delta\": %.2e, \"within_tolerance\": %s, "
      "\"metrics_fnv1a\": \"0x%016llx\"}\n",
      name.c_str(), samples, gThreads, t.usPerSample, 1e6 / t.usPerSample,
      t.allocsPerSample, freshUsPerSample / t.usPerSample, relDelta,
      // Same per-sample bound the campaign tolerance tests assert
      // (tests/sim/test_reuse_pivot_campaign.cpp).
      relDelta <= 1e-8 ? "true" : "false",
      static_cast<unsigned long long>(metricsHash(t.result)));
}

/// --scaling row: no rebuild path ran, so the rebuild-comparison fields
/// (speedup_vs_rebuild, bit_identical) are OMITTED rather than fabricated
/// -- identity across thread counts is what metrics_fnv1a carries.
void emitScaling(const std::string& name, int samples,
                 const CampaignTiming& t) {
  std::printf(
      "{\"name\": \"%s\", \"samples\": %d, \"threads\": %u, "
      "\"us_per_sample\": %.1f, \"samples_per_sec\": %.1f, "
      "\"allocs_per_sample\": %.1f, \"metrics_fnv1a\": \"0x%016llx\"}\n",
      name.c_str(), samples, gThreads, t.usPerSample, 1e6 / t.usPerSample,
      t.allocsPerSample,
      static_cast<unsigned long long>(metricsHash(t.result)));
}

/// Rescue-overhead row: the same campaign with the rescue ladder disabled
/// vs enabled (the default).  A zero-failure campaign never enters the
/// ladder -- attempt 0 runs at baseline modes and identity effort -- so
/// the contract is ~0% overhead and bit-identical metrics; this row is the
/// committed evidence (speedup_vs_norescue ~= 1.0, gated by CI).
void emitRescueOverhead(const std::string& name, int samples,
                        const CampaignTiming& rescued,
                        double noRescueUsPerSample, bool identical) {
  std::printf(
      "{\"name\": \"%s\", \"samples\": %d, \"threads\": %u, "
      "\"us_per_sample\": %.1f, \"samples_per_sec\": %.1f, "
      "\"allocs_per_sample\": %.1f, \"speedup_vs_norescue\": %.2f, "
      "\"failures\": %d, \"rescued\": %d, "
      "\"bit_identical\": %s, \"metrics_fnv1a\": \"0x%016llx\"}\n",
      name.c_str(), samples, gThreads, rescued.usPerSample,
      1e6 / rescued.usPerSample, rescued.allocsPerSample,
      noRescueUsPerSample / rescued.usPerSample, rescued.result.failures,
      rescued.result.rescued, identical ? "true" : "false",
      static_cast<unsigned long long>(metricsHash(rescued.result)));
}

spice::SessionOptions reusePivotOptions() {
  spice::SessionOptions o;
  o.solver = linalg::SolverMode::reusePivot;
  return o;
}

/// The "current best" per-sample throughput configuration: SIMD device
/// kernels + amortized pivot order.  The statistical tier is benchmarked on
/// top of exactly this baseline.
spice::SessionOptions fastReuseOptions() {
  spice::SessionOptions o;
  o.numerics = models::NumericsMode::fast;
  o.solver = linalg::SolverMode::reusePivot;
  return o;
}

spice::SessionOptions statisticalOptions() {
  spice::SessionOptions o = fastReuseOptions();
  o.tier = spice::ToleranceTier::statistical;
  return o;
}

/// Largest estimator shift between the statistical-tier run and its
/// per-sample baseline, in units of the baseline's Monte Carlo standard
/// error: max over metrics of |mean_s - mean_b| / (sigma_b / sqrt(n)) and
/// |sigma_s - sigma_b| / (sigma_b / sqrt(2n)).  The tier's accuracy
/// contract is estimator-level, so this -- not per-sample deltas -- is the
/// number the CI gate holds.
double maxSigmaDelta(const mc::McResult& stat, const mc::McResult& base) {
  double worst = 0.0;
  for (std::size_t m = 0; m < base.metrics.size(); ++m) {
    const auto b = stats::summarize(base.metrics[m]);
    const auto s = stats::summarize(stat.metrics[m]);
    const double n = static_cast<double>(base.metrics[m].size());
    if (b.stddev <= 0.0 || n < 2.0) continue;
    const double meanSe = b.stddev / std::sqrt(n);
    const double sigmaSe = b.stddev / std::sqrt(2.0 * n);
    worst = std::max(worst, std::fabs(s.mean - b.mean) / meanSe);
    worst = std::max(worst, std::fabs(s.stddev - b.stddev) / sigmaSe);
  }
  return worst;
}

/// Statistical-tier row: fast+reuse+statistical vs the fast+reuse
/// per-sample baseline (same seeds).  speedup_vs_per_sample is the
/// issue's headline number; within_sigma_contract holds the estimator
/// agreement at 3 baseline standard errors.
void emitStatisticalTier(const std::string& name, int samples,
                         const CampaignTiming& stat,
                         const CampaignTiming& base) {
  const double sigmaDelta = maxSigmaDelta(stat.result, base.result);
  std::printf(
      "{\"name\": \"%s\", \"samples\": %d, \"threads\": %u, "
      "\"us_per_sample\": %.1f, \"samples_per_sec\": %.1f, "
      "\"allocs_per_sample\": %.1f, \"speedup_vs_per_sample\": %.2f, "
      "\"mean_iters_per_sample\": %.1f, \"warm_start_hit_rate\": %.2f, "
      "\"estimator_max_sigma_delta\": %.3f, \"within_sigma_contract\": %s, "
      "\"metrics_fnv1a\": \"0x%016llx\"}\n",
      name.c_str(), samples, gThreads, stat.usPerSample,
      1e6 / stat.usPerSample, stat.allocsPerSample,
      base.usPerSample / stat.usPerSample,
      stat.result.meanIterationsPerSample(), stat.result.warmStartHitRate(),
      sigmaDelta, sigmaDelta <= 3.0 ? "true" : "false",
      static_cast<unsigned long long>(metricsHash(stat.result)));
}

/// --scaling body shared by every workload: one row per session-mode
/// combination (NumericsMode x SolverMode), so the scaling smoke/audit
/// checks cross-thread-count bit-identity of every cell of the matrix.
void runScalingCombos(
    const std::string& name, int samples,
    const std::function<mc::McResult(int, spice::SessionOptions)>& session) {
  spice::SessionOptions fastOpt;
  fastOpt.numerics = models::NumericsMode::fast;
  spice::SessionOptions fastReuseOpt = fastOpt;
  fastReuseOpt.solver = linalg::SolverMode::reusePivot;
  const struct {
    const char* suffix;
    spice::SessionOptions options;
  } combos[] = {{"_session", spice::SessionOptions{}},
                {"_session_fast", fastOpt},
                {"_session_reuse", reusePivotOptions()},
                {"_session_fast_reuse", fastReuseOpt},
                // Statistical tier on the fast+reuse baseline: block
                // geometry depends only on McOptions::sampleBlock, so the
                // warm-chain results must hash identically across 1/2/4
                // workers like every other combo.
                {"_session_statistical", statisticalOptions()}};
  for (const auto& combo : combos) {
    const CampaignTiming s = timeCampaign(
        samples, [&](int n) { return session(n, combo.options); });
    emitScaling(name + combo.suffix, samples, s);
  }
}

/// One workload: measures the rebuild path, the fresh session path, and
/// the pivot-reuse session path; checks rebuild/session bit-identity and
/// the reuse tolerance contract; emits one JSONL line each.  In --scaling
/// mode every session-mode combination runs instead (cross-thread-count
/// identity is checked by comparing metrics_fnv1a across whole runs, not
/// in-process).
void benchWorkload(
    const std::string& name, int samples,
    const std::function<mc::McResult(int)>& rebuild,
    const std::function<mc::McResult(int, spice::SessionOptions)>& session) {
  if (gScalingOnly) {
    runScalingCombos(name, samples, session);
    return;
  }
  const CampaignTiming r = timeCampaign(samples, rebuild);
  const CampaignTiming s = timeCampaign(
      samples, [&](int n) { return session(n, spice::SessionOptions{}); });
  const CampaignTiming u = timeCampaign(
      samples, [&](int n) { return session(n, reusePivotOptions()); });
  const bool identical = bitIdentical(r.result, s.result);
  emit(name + "_rebuild", samples, r, r.usPerSample, identical);
  emit(name + "_session", samples, s, r.usPerSample, identical);
  emitReuse(name + "_session_reuse", samples, u, s.usPerSample,
            bench::maxRelMetricDelta(u.result, s.result));
  const CampaignTiming b = timeCampaign(
      samples, [&](int n) { return session(n, fastReuseOptions()); });
  const CampaignTiming st = timeCampaign(
      samples, [&](int n) { return session(n, statisticalOptions()); });
  emitStatisticalTier(name + "_statistical_tier", samples, st, b);
}

/// Session-only workload (grid_ir): fresh vs reuse-pivot sessions, no
/// rebuild baseline.  Scaling mode emits the same four combos as above.
void benchSessionWorkload(
    const std::string& name, int samples,
    const std::function<mc::McResult(int, spice::SessionOptions)>& session) {
  if (gScalingOnly) {
    runScalingCombos(name, samples, session);
    return;
  }
  const CampaignTiming s = timeCampaign(
      samples, [&](int n) { return session(n, spice::SessionOptions{}); });
  const CampaignTiming u = timeCampaign(
      samples, [&](int n) { return session(n, reusePivotOptions()); });
  emitScaling(name + "_session", samples, s);
  emitReuse(name + "_session_reuse", samples, u, s.usPerSample,
            bench::maxRelMetricDelta(u.result, s.result));
  const CampaignTiming b = timeCampaign(
      samples, [&](int n) { return session(n, fastReuseOptions()); });
  const CampaignTiming st = timeCampaign(
      samples, [&](int n) { return session(n, statisticalOptions()); });
  emitStatisticalTier(name + "_statistical_tier", samples, st, b);
}

constexpr int kSnmPoints = 45;
constexpr int kGridPoints = 45;
constexpr std::uint64_t kSeed = 901;

mc::McOptions options(int samples) {
  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = kSeed;
  // Default 1: per-sample cost comparison.  --threads N turns the same
  // campaigns into a parallel-scaling measurement (results bit-identical
  // by the runner's contract, asserted across runs via metrics_fnv1a).
  opt.threads = gThreads;
  return opt;
}

int run(int snmSamples, int invSamples) {
  benchWorkload(
      "sram_snm", snmSamples,
      [](int n) {
        return mc::runCampaign(
            options(n), 1,
            [](std::size_t, stats::Rng& rng, std::vector<double>& out) {
              auto provider = makeProvider(rng);
              circuits::SramButterflyBench bench =
                  circuits::buildSramButterfly(*provider, 0.9,
                                               circuits::SramMode::Read,
                                               circuits::SramSizing{});
              out[0] = measure::measureSnm(bench, kSnmPoints).cellSnm();
            });
      },
      [](int n, spice::SessionOptions sessionOptions) {
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
              out[0] = measure::measureSnm(session.fixture(), session.spice(),
                                           kSnmPoints)
                           .cellSnm();
            },
            sessionOptions);
      });

  if (!gScalingOnly) {
    const auto snmSession = [](int n, const sim::RescuePolicy& rescue) {
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
            out[0] = measure::measureSnm(session.fixture(), session.spice(),
                                         kSnmPoints)
                         .cellSnm();
          },
          spice::SessionOptions{}, rescue);
    };
    sim::RescuePolicy noRescue;
    noRescue.enabled = false;
    const CampaignTiming off = timeCampaign(
        snmSamples, [&](int n) { return snmSession(n, noRescue); });
    const CampaignTiming on = timeCampaign(
        snmSamples, [&](int n) { return snmSession(n, sim::RescuePolicy{}); });
    emitRescueOverhead("sram_snm_rescue_overhead", snmSamples, on,
                       off.usPerSample,
                       bitIdentical(on.result, off.result));
  }

  benchWorkload(
      "inv_fo3", invSamples,
      [](int n) {
        return mc::runCampaign(
            options(n), 1,
            [](std::size_t, stats::Rng& rng, std::vector<double>& out) {
              auto provider = makeProvider(rng);
              circuits::GateFo3Bench bench = circuits::buildInvFo3(
                  *provider, circuits::CellSizing{}, circuits::StimulusSpec{});
              out[0] = measure::measureGateDelays(bench).average();
            });
      },
      [](int n, spice::SessionOptions sessionOptions) {
        return mc::runCampaign<circuits::GateFo3Bench>(
            options(n), 1,
            [](circuits::DeviceProvider& provider) {
              return circuits::buildInvFo3(provider, circuits::CellSizing{},
                                           circuits::StimulusSpec{});
            },
            [] { return makeProvider(stats::Rng(0)); },
            [](std::size_t,
               sim::CampaignSession<circuits::GateFo3Bench>& session,
               stats::Rng&, std::vector<double>& out) {
              out[0] = measure::measureGateDelays(session.fixture(),
                                                  session.spice())
                           .average();
            },
            sessionOptions);
      });
  return 0;
}

/// Session campaign over an edge x edge mesh rung, sweeping `points`
/// supply levels per sample.  The 10x10 rung keeps the historical 45-point
/// sweep (the committed grid_ir rows); bigger rungs sweep fewer levels so
/// the ladder stays benchable -- per-solve factor cost is what the ladder
/// rows measure, and the factor probe times it exactly anyway.
std::function<mc::McResult(int, spice::SessionOptions)> gridSession(
    int edge, int points) {
  return [edge, points](int n, spice::SessionOptions sessionOptions) {
    return mc::runCampaign<circuits::PowerGridBench>(
        options(n), 1,
        [edge](circuits::DeviceProvider& provider) {
          return circuits::buildPowerGridIrDrop(provider, edge, edge, 0.9);
        },
        [] { return makeProvider(stats::Rng(0)); },
        [points](std::size_t,
                 sim::CampaignSession<circuits::PowerGridBench>& session,
                 stats::Rng&, std::vector<double>& out) {
          static thread_local std::vector<double> levels;
          static thread_local std::vector<double> farVolts;
          circuits::PowerGridBench& fx = session.fixture();
          if (levels.size() != static_cast<std::size_t>(points)) {
            levels.clear();
            for (int i = 0; i < points; ++i)
              levels.push_back(fx.supply * i / (points - 1));
          }
          session.spice().dcSweepNode(fx.feedSource, levels, fx.farNode,
                                      farVolts);
          out[0] = fx.supply - farVolts.back();  // worst-case IR drop [V]
        },
        sessionOptions);
  };
}

/// Direct factorization measurements on one ladder rung's assembled MNA
/// Jacobian -- the numbers the campaign rows can only show indirectly.
struct FactorProbe {
  std::size_t unknowns = 0;
  std::size_t patternNnz = 0;
  std::size_t factorNnz = 0;
  double fillRatio = 0.0;
  double orderingUs = 0.0;      ///< fill-reducing ordering, best of 5
  double freshFactorUs = 0.0;   ///< steady-state fresh full factor, best of 5
  double allocsPerFactor = 0.0; ///< marginal heap allocs per fresh factor
  double factorMemMiB = 0.0;    ///< factor storage (values + indices)
  double denseFactorUs = -1.0;  ///< DensePivotLu baseline, best of 5 (-1: not run)
};

/// Builds the rung's Jacobian the way the equivalence tests do: real
/// device stamps at a spread of node biases, homotopy-level gmin so every
/// node diagonal is present.
FactorProbe probeFactor(int edge, int factorReps, bool withDense) {
  auto provider = makeProvider(stats::Rng(0));
  circuits::PowerGridBench bench =
      circuits::buildPowerGridIrDrop(*provider, edge, edge, 0.9);
  spice::detail::Assembler assembler(bench.circuit);
  const std::size_t n = bench.circuit.unknownCount();
  linalg::Vector x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = 0.2 + 0.5 * static_cast<double>((i * 37u) % 101u) / 101.0;
  assembler.setGmin(1e-3);
  assembler.assemble(x);
  const linalg::SparseMatrix& m = assembler.jacobian();

  FactorProbe p;
  p.unknowns = n;
  p.orderingUs = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 5; ++i) {
    const auto o0 = Clock::now();
    (void)linalg::minDegreeOrder(m.pattern());
    const auto o1 = Clock::now();
    p.orderingUs = std::min(
        p.orderingUs,
        std::chrono::duration<double, std::micro>(o1 - o0).count());
  }

  // Factor timings are the best of kTimedBatches batches, like the
  // ordering above: tens-of-microsecond rungs are otherwise host noise.
  constexpr int kTimedBatches = 5;
  linalg::SparseLu lu;
  lu.refactor(m);  // pays the one-time ordering; cached across reset()
  lu.reset();
  lu.refactor(m);  // warm: every work array at capacity
  p.freshFactorUs = std::numeric_limits<double>::infinity();
  const std::uint64_t allocs0 = bench::allocCount();
  for (int b = 0; b < kTimedBatches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < factorReps; ++i) {
      lu.reset();
      lu.refactor(m);
    }
    const auto t1 = Clock::now();
    p.freshFactorUs = std::min(
        p.freshFactorUs,
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                .count()) /
            factorReps);
  }
  const std::uint64_t allocs1 = bench::allocCount();
  p.allocsPerFactor = static_cast<double>(allocs1 - allocs0) /
                      static_cast<double>(kTimedBatches * factorReps);
  p.patternNnz = lu.patternNonZeroCount();
  p.factorNnz = lu.factorNonZeroCount();
  p.fillRatio = lu.fillRatio();
  p.factorMemMiB =
      static_cast<double>(lu.factorMemoryBytes()) / (1024.0 * 1024.0);

  if (withDense) {
    linalg::DensePivotLu dense;
    dense.refactor(m);  // warm
    const int denseReps = std::max(2, factorReps / 16);
    p.denseFactorUs = std::numeric_limits<double>::infinity();
    for (int b = 0; b < kTimedBatches; ++b) {
      const auto d0 = Clock::now();
      for (int i = 0; i < denseReps; ++i) {
        dense.reset();
        dense.refactor(m);
      }
      const auto d1 = Clock::now();
      p.denseFactorUs = std::min(
          p.denseFactorUs,
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::microseconds>(d1 - d0)
                  .count()) /
              denseReps);
    }
  }
  return p;
}

/// The factor probe's JSON fields, without braces.
std::string probeFields(const FactorProbe& p) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "\"unknowns\": %zu, \"pattern_nnz\": %zu, "
                "\"factor_nnz\": %zu, \"fill_ratio\": %.2f, "
                "\"ordering_us\": %.0f, \"fresh_factor_us\": %.1f, "
                "\"allocs_per_factor\": %.1f, \"factor_mem_mib\": %.3f",
                p.unknowns, p.patternNnz, p.factorNnz, p.fillRatio,
                p.orderingUs, p.freshFactorUs, p.allocsPerFactor,
                p.factorMemMiB);
  return buf;
}

/// Ladder row: session-campaign throughput + the factor probe, one JSONL
/// object.  speedup_vs_dense_lu (CI-gated, higher-better) appears only
/// where the dense baseline actually ran -- at 64x64 it would be ~5e10
/// flops per factor, so that rung records the sparse side alone plus its
/// isolated peak RSS (the near-linear-memory evidence).
void emitLadder(const std::string& name, int samples, const CampaignTiming& t,
                const FactorProbe& p, double peakRssMiB) {
  std::string row;
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"name\": \"%s\", \"samples\": %d, \"threads\": %u, "
      "\"us_per_sample\": %.1f, \"samples_per_sec\": %.1f, "
      "\"allocs_per_sample\": %.1f, \"metrics_fnv1a\": \"0x%016llx\", ",
      name.c_str(), samples, gThreads, t.usPerSample, 1e6 / t.usPerSample,
      t.allocsPerSample,
      static_cast<unsigned long long>(metricsHash(t.result)));
  row += buf;
  row += probeFields(p);
  if (p.denseFactorUs >= 0.0) {
    std::snprintf(buf, sizeof buf,
                  ", \"dense_factor_us\": %.1f, "
                  "\"speedup_vs_dense_lu\": %.1f",
                  p.denseFactorUs, p.denseFactorUs / p.freshFactorUs);
    row += buf;
  }
  if (peakRssMiB >= 0.0) {
    std::snprintf(buf, sizeof buf, ", \"peak_rss_mib\": %.1f", peakRssMiB);
    row += buf;
  }
  row += "}\n";
  std::fputs(row.c_str(), stdout);
}

/// Least-squares slope of log(y) against log(x).
double logLogSlope(const std::vector<std::pair<double, double>>& points) {
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  for (const auto& [x, y] : points) {
    const double lx = std::log(x);
    const double ly = std::log(y);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double k = static_cast<double>(points.size());
  return (k * sxy - sx * sy) / (k * sxx - sx * sx);
}

int runGrid(int gridSamples, bool quick) {
  benchSessionWorkload("grid_ir", gridSamples, gridSession(10, kGridPoints));

  // Grid-scale fixture ladder.  Sweep points shrink as the rung grows (the
  // campaign row is a throughput smoke; the factor probe carries the
  // rung's precise factor cost), and the dense baseline runs only where
  // O(n^3) is affordable.
  struct Rung {
    int edge;
    int points;
    int samples;
    int factorReps;
    bool dense;
  };
  const Rung rungs[] = {{10, kGridPoints, gridSamples, 256, true},
                        {32, 21, quick ? 6 : 10, 48, true},
                        {64, 11, quick ? 5 : 8, 12, false}};
  if (gScalingOnly) {
    // The scaling smoke/audit covers one beyond-paper-scale rung across
    // every session-mode combination; the 10x10 grid_ir combos above
    // already cover the small rung.
    runScalingCombos("grid_ladder_32", quick ? 6 : 10, gridSession(32, 21));
    return 0;
  }
  // (unknowns, ordering us) of the 32..256 rungs for ordering_exponent.
  std::vector<std::pair<double, double>> orderingScale;
  for (const Rung& rung : rungs) {
    const auto session = gridSession(rung.edge, rung.points);
    const CampaignTiming t = timeCampaign(rung.samples, [&](int n) {
      return session(n, spice::SessionOptions{});
    });
    const FactorProbe p = probeFactor(rung.edge, rung.factorReps, rung.dense);
    double peakRssMiB = -1.0;
    if (rung.edge == 64) {
      // Isolated peak RSS of building + factoring the biggest rung: the
      // committed proof that factor memory stays near-linear (a dense
      // 4k x 4k scratch alone would be ~128 MiB on top of the baseline).
      const util::CampaignUsage usage = util::runIsolated([&] {
        const FactorProbe child = probeFactor(rung.edge, 2, false);
        if (child.factorNnz == 0) std::exit(9);
      });
      if (usage.exitCode == 0) peakRssMiB = usage.maxRssMiB;
    }
    emitLadder("grid_ladder_" + std::to_string(rung.edge), rung.samples, t, p,
               peakRssMiB);
    if (rung.edge >= 32)
      orderingScale.emplace_back(static_cast<double>(p.unknowns), p.orderingUs);
  }

  // Ordering-scale rungs: too big for campaign rows, so the factor probe
  // alone, with one timed fresh factor.  The 256 row closes the log-log
  // fit of ordering time over the 32..256 rungs.
  for (const int edge : {128, 256}) {
    const FactorProbe p = probeFactor(edge, 1, false);
    orderingScale.emplace_back(static_cast<double>(p.unknowns), p.orderingUs);
    std::string row = "{\"name\": \"grid_ladder_" + std::to_string(edge) +
                      "\", " + probeFields(p);
    if (edge == 256) {
      char buf[64];
      std::snprintf(buf, sizeof buf, ", \"ordering_exponent\": %.3f",
                    logLogSlope(orderingScale));
      row += buf;
    }
    row += "}\n";
    std::fputs(row.c_str(), stdout);
  }
  return 0;
}

}  // namespace
}  // namespace vsstat

int main(int argc, char** argv) {
  int snmSamples = 160;
  int invSamples = 48;
  int gridSamples = 24;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      snmSamples = 32;
      invSamples = 12;
      gridSamples = 8;
    } else if (std::strcmp(argv[i], "--scaling") == 0) {
      vsstat::gScalingOnly = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const int t = std::atoi(argv[++i]);
      if (t < 1) {
        std::fprintf(stderr, "bench_campaign: --threads wants >= 1\n");
        return 2;
      }
      vsstat::gThreads = static_cast<unsigned>(t);
    } else {
      std::fprintf(stderr, "bench_campaign: unknown argument '%s' (usage: "
                   "bench_campaign [--quick] [--threads N] [--scaling])\n",
                   argv[i]);
      return 2;
    }
  }
  try {
    const int rc = vsstat::run(snmSamples, invSamples);
    if (rc != 0) return rc;
    return vsstat::runGrid(gridSamples, quick);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_campaign: %s\n", e.what());
    return 1;
  }
}
