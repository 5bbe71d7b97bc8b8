// Power-grid IR-drop campaign on the grid-scale fixture ladder -- the
// beyond-paper-scale workload class (thousand-node meshes under per-device
// leakage variability) that motivated the graph-sparse LU.  Each sample
// draws every leakage FET of a rows x cols mesh, sweeps the feed supply,
// and reports the worst-case (far-corner) IR drop.
//
// The health footer prints the sparse-factor telemetry for the chosen
// rung: pattern nonzeros vs factor nonzeros (fill ratio), the one-time
// fill-reducing ordering cost, and the cumulative full-factor time -- the
// numbers that make "near-linear memory, >10x fresh factors" a printed
// fact instead of a claim.
//
// Usage: example_grid_ir [samples] [mesh_edge] [--fast] [--reuse-pivot]
//                        [--statistical]
//   samples        default 60; CI smoke uses a few
//   mesh_edge      mesh is edge x edge; default 32 (~1k MNA unknowns);
//                  10 and 64 are the other ladder rungs
//   --fast         NumericsMode::fast (SIMD device-bank kernels)
//   --reuse-pivot  SolverMode::reusePivot (canonical pivot order amortized
//                  across every solve of a worker session)
//   --statistical  ToleranceTier::statistical (warm-chain blocks: sweep
//                  levels extrapolate, sample k seeds from sample k-1;
//                  accuracy contract moves to the IR-drop estimators)
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "core/statistical_vs.hpp"
#include "mc/circuit_campaign.hpp"
#include "mc/runner.hpp"
#include "sim/session.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"

using namespace vsstat;

using GridSession = sim::CampaignSession<circuits::PowerGridBench>;

int main(int argc, char** argv) {
  int samples = 60;
  int edge = 32;
  spice::SessionOptions sessionOptions;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      sessionOptions.numerics = models::NumericsMode::fast;
    } else if (std::strcmp(argv[i], "--reuse-pivot") == 0) {
      sessionOptions.solver = linalg::SolverMode::reusePivot;
    } else if (std::strcmp(argv[i], "--statistical") == 0) {
      sessionOptions.tier = spice::ToleranceTier::statistical;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "example_grid_ir: unknown flag '%s' (usage: "
                   "example_grid_ir [samples] [mesh_edge] [--fast] "
                   "[--reuse-pivot] [--statistical])\n", argv[i]);
      return 2;
    } else if (positional == 0) {
      samples = std::max(std::atoi(argv[i]), 4);
      ++positional;
    } else {
      edge = std::atoi(argv[i]);
      ++positional;
    }
  }
  require(edge >= 2 && edge <= 128, "mesh_edge must be in [2, 128]");

  core::CharacterizeOptions copt;
  copt.analyticGoldenVariance = true;
  const core::StatisticalVsKit kit = core::StatisticalVsKit::characterize(
      extract::GoldenKit::default40nm(), copt);

  constexpr int kLevels = 21;
  sim::SessionPool<circuits::PowerGridBench> pool(
      [&kit, edge](circuits::DeviceProvider& provider) {
        return circuits::buildPowerGridIrDrop(provider, edge, edge,
                                              kit.vdd());
      },
      [&kit] { return kit.makeProvider(stats::Rng(0)); }, sessionOptions);

  mc::McOptions mcOpt;
  mcOpt.samples = samples;
  mcOpt.seed = 77;

  // Measurement body (session arrives rebound by the rescue wrapper): sweep
  // the feed supply, report the far-corner IR drop at full rail.
  const mc::CircuitSampleFn<circuits::PowerGridBench> measure =
      [&](std::size_t, GridSession& session, stats::Rng&,
          std::vector<double>& out) {
        circuits::PowerGridBench& fx = session.fixture();
        std::vector<double> levels;
        levels.reserve(kLevels);
        for (int i = 0; i < kLevels; ++i)
          levels.push_back(fx.supply * i / (kLevels - 1));
        std::vector<double> farVolts;
        session.spice().dcSweepNode(fx.feedSource, levels, fx.farNode,
                                    farVolts);
        out[0] = fx.supply - farVolts.back();
      };

  const mc::McResult r =
      mc::runCampaign<circuits::PowerGridBench>(mcOpt, 1, pool, measure);

  const auto s = stats::summarize(r.metrics[0]);
  std::printf("%dx%d power-grid IR drop (%d MC samples, %zu leakage FETs, "
              "%s numerics, %s solver, %s tier)\n\n", edge, edge, samples,
              static_cast<std::size_t>(edge) * static_cast<std::size_t>(edge),
              models::toString(sessionOptions.numerics),
              linalg::toString(sessionOptions.solver),
              spice::toString(sessionOptions.tier));
  std::printf("worst-case IR drop: mean = %.3f mV  sigma = %.3f mV  "
              "max = %.3f mV\n", s.mean * 1e3, s.stddev * 1e3, s.max * 1e3);

  // Same unattended-health contract as the other campaign examples: a
  // degraded campaign (mc::CampaignHealth) exits non-zero.
  const int total = static_cast<int>(r.sampleCount()) + r.failures;
  std::printf("\nfailure accounting: %d of %d samples dropped, %d rescued\n",
              r.failures, total, r.rescued);
  for (int c = 0; c < kFailureClassCount; ++c) {
    const auto cls = static_cast<FailureClass>(c);
    if (r.failuresOf(cls) > 0)
      std::printf("  %-15s %d\n", toString(cls), r.failuresOf(cls));
  }
  const mc::CampaignHealth health{static_cast<std::size_t>(r.failures),
                                  static_cast<std::size_t>(total)};
  std::printf("%s\n", health.line().c_str());
  if (!health.ok()) return 3;
  if (r.sampleCount() > 0) {
    std::printf("newton: %.1f iterations/sample, warm-start hit rate %.0f %% "
                "(%s tier)\n",
                r.meanIterationsPerSample(), 100.0 * r.warmStartHitRate(),
                spice::toString(sessionOptions.tier));
  }

  // Sparse-factor telemetry from one of the campaign's own workers.
  {
    auto lease = pool.acquire();
    const auto t = lease->spice().solverTelemetry();
    std::printf("solver factor: %zu pattern nnz -> %zu factor nnz "
                "(fill %.2fx), ordering %llu us, %llu full factors "
                "(%llu us), %llu fast refactors, %llu pivot fallbacks\n",
                t.patternNnz, t.factorNnz, t.fillRatio,
                static_cast<unsigned long long>(t.orderingMicros),
                static_cast<unsigned long long>(t.fullFactors),
                static_cast<unsigned long long>(t.fullFactorMicros),
                static_cast<unsigned long long>(t.fastRefactors),
                static_cast<unsigned long long>(t.pivotFallbacks));
  }
  return 0;
}
