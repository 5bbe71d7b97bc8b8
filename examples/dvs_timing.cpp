// Dynamic-voltage-scaling timing analysis -- the paper's low-power result
// (Fig. 7): a single statistical VS model, extracted once at nominal Vdd,
// predicts the delay distribution at scaled supplies including the
// non-Gaussian skew that breaks Gaussian SSTA assumptions.
//
// The Monte Carlo runs through the build-once / rebind-per-sample campaign
// engine (mc::runCampaign circuit overload): one NAND2 FO3 fixture per
// worker, rebound per sample, instead of rebuilding circuit + solver state
// every sample.
//
// Usage: example_dvs_timing [samples] [--fast] [--reuse-pivot]
//                           [--statistical]
//   samples        default 500; CI smoke uses a few
//   --fast         NumericsMode::fast -- SIMD transcendental kernels in the
//                  device-bank lanes; delay metrics agree with the
//                  reference mode within solver tolerance (see README,
//                  session modes)
//   --reuse-pivot  SolverMode::reusePivot -- one canonical LU pivot order
//                  amortized across every solve of a worker session,
//                  breakdown-monitored; composes with --fast
//   --statistical  ToleranceTier::statistical -- warm-chain blocks seed
//                  each sample's transient DC + predictor steps from the
//                  previous sample; accuracy contract moves to the delay
//                  ESTIMATORS (mean/sigma within MC error), not the sample
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "circuits/benchmarks.hpp"
#include "core/statistical_vs.hpp"
#include "measure/delay.hpp"
#include "mc/circuit_campaign.hpp"
#include "sim/session.hpp"
#include "stats/descriptive.hpp"
#include "stats/normality.hpp"
#include "stats/qq.hpp"
#include "util/error.hpp"

using namespace vsstat;

int main(int argc, char** argv) {
  core::CharacterizeOptions opt;
  opt.analyticGoldenVariance = true;
  const core::StatisticalVsKit kit = core::StatisticalVsKit::characterize(
      extract::GoldenKit::default40nm(), opt);

  int kSamples = 500;
  spice::SessionOptions sessionOptions;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      sessionOptions.numerics = models::NumericsMode::fast;
    } else if (std::strcmp(argv[i], "--reuse-pivot") == 0) {
      sessionOptions.solver = linalg::SolverMode::reusePivot;
    } else if (std::strcmp(argv[i], "--statistical") == 0) {
      sessionOptions.tier = spice::ToleranceTier::statistical;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "example_dvs_timing: unknown flag '%s' "
                   "(usage: example_dvs_timing [samples] [--fast] "
                   "[--reuse-pivot] [--statistical])\n",
                   argv[i]);
      return 2;
    } else {
      kSamples = std::max(std::atoi(argv[i]), 10);
    }
  }
  std::printf("NAND2 FO3 delay under dynamic voltage scaling (%d MC runs, "
              "statistical VS model, %s numerics, %s solver, %s tier)\n\n",
              kSamples, models::toString(sessionOptions.numerics),
              linalg::toString(sessionOptions.solver),
              spice::toString(sessionOptions.tier));
  std::printf("%-8s %-12s %-14s %-10s %-12s %-10s\n", "Vdd [V]", "mean [ps]",
              "sigma/mean [%]", "skewness", "QQ r^2", "Gaussian?");

  int totalSamples = 0;
  int totalDropped = 0;
  int totalRescued = 0;
  std::uint64_t totalIters = 0;
  std::uint64_t totalHits = 0;
  std::uint64_t totalOpportunities = 0;
  std::size_t totalSucceeded = 0;
  for (const double vdd : {0.9, 0.7, 0.55}) {
    circuits::StimulusSpec stim;
    stim.vdd = vdd;
    stim.slew = vdd >= 0.9 ? 12e-12 : (vdd >= 0.7 ? 18e-12 : 30e-12);
    stim.width = vdd >= 0.9 ? 80e-12 : (vdd >= 0.7 ? 140e-12 : 280e-12);
    const double dt = vdd >= 0.7 ? 0.3e-12 : 0.6e-12;

    mc::McOptions mcOpt;
    mcOpt.samples = kSamples;
    mcOpt.seed = 4242;
    const mc::McResult r = mc::runCampaign<circuits::GateFo3Bench>(
        mcOpt, 1,
        [&](circuits::DeviceProvider& provider) {
          return circuits::buildNand2Fo3(provider, circuits::CellSizing{},
                                         stim);
        },
        [&] { return kit.makeProvider(stats::Rng(0)); },
        [&](std::size_t, sim::CampaignSession<circuits::GateFo3Bench>& session,
            stats::Rng&, std::vector<double>& out) {
          out[0] = measure::measureGateDelays(session.fixture(),
                                              session.spice(), dt)
                       .average();
        },
        sessionOptions);

    const auto s = stats::summarize(r.metrics[0]);
    const auto qq = stats::qqAgainstNormal(r.metrics[0]);
    const auto jb = stats::jarqueBera(r.metrics[0]);
    std::printf("%-8.2f %-12.2f %-14.2f %-10.3f %-12.4f %-10s\n", vdd,
                s.mean * 1e12, 100.0 * s.stddev / s.mean, s.skewness,
                qq.linearity, jb.rejectAt5Percent ? "no" : "yes");

    totalSamples += static_cast<int>(r.sampleCount()) + r.failures;
    totalDropped += r.failures;
    totalRescued += r.rescued;
    totalIters += r.newtonIterations;
    totalHits += r.warmStartHits;
    totalOpportunities += r.warmStartOpportunities;
    totalSucceeded += r.sampleCount();
    if (r.failures > 0 || r.rescued > 0) {
      std::printf("  [Vdd %.2f: %d dropped, %d rescued", vdd, r.failures,
                  r.rescued);
      for (int c = 0; c < kFailureClassCount; ++c) {
        const auto cls = static_cast<FailureClass>(c);
        if (r.failuresOf(cls) > 0)
          std::printf("; %s: %d", toString(cls), r.failuresOf(cls));
      }
      if (r.firstFailure.valid)
        std::printf("; first: sample %zu (%s)", r.firstFailure.sampleIndex,
                    toString(r.firstFailure.failureClass));
      std::printf("]\n");
    }
  }

  // Unattended smoke flow: a degraded campaign (mc::CampaignHealth: too
  // many corners dropped even after the rescue ladder) must exit non-zero,
  // not print a biased table.
  const mc::CampaignHealth health{static_cast<std::size_t>(totalDropped),
                                  static_cast<std::size_t>(totalSamples)};
  std::printf("\nfailure accounting: %d of %d samples dropped, %d rescued\n",
              totalDropped, totalSamples, totalRescued);
  std::printf("%s\n", health.line().c_str());
  if (!health.ok()) return 3;
  if (totalSucceeded > 0) {
    std::printf("newton: %.1f iterations/sample, warm-start hit rate %.0f %% "
                "(%s tier)\n",
                static_cast<double>(totalIters) /
                    static_cast<double>(totalSucceeded),
                totalOpportunities == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(totalHits) /
                          static_cast<double>(totalOpportunities),
                spice::toString(sessionOptions.tier));
  }

  // Factor-shape telemetry from a probe session on the same topology: the
  // sparse factor's structure is sample-independent, so one DC solve shows
  // what every campaign solve paid.
  {
    circuits::StimulusSpec stim;
    sim::CampaignSession<circuits::GateFo3Bench> probe(
        [&](circuits::DeviceProvider& provider) {
          return circuits::buildNand2Fo3(provider, circuits::CellSizing{},
                                         stim);
        },
        kit.makeProvider(stats::Rng(0)), sessionOptions);
    (void)probe.spice().dcOperatingPoint();
    const auto t = probe.spice().solverTelemetry();
    std::printf("solver factor: %zu pattern nnz -> %zu factor nnz "
                "(fill %.2fx), ordering %llu us, full factor %llu us\n",
                t.patternNnz, t.factorNnz, t.fillRatio,
                static_cast<unsigned long long>(t.orderingMicros),
                static_cast<unsigned long long>(t.fullFactorMicros));
  }

  std::printf("\nNo re-extraction was performed per supply: the BPV-extracted\n"
              "parameter statistics are bias-independent, so one statistical\n"
              "model covers the whole DVS range (unlike electrically-fitted\n"
              "approaches, cf. the paper's PSP comparison).\n");
  return 0;
}
