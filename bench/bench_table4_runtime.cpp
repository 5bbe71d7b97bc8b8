// Table IV: runtime & memory of Monte Carlo campaigns, VS vs the golden
// BSIM-class model.  Each campaign runs in a forked child so peak RSS is
// attributable per campaign.
//
// Substitution note (DESIGN.md): the paper compares a Verilog-A VS against
// a C-coded BSIM4 inside Spectre and reports 4.2x runtime / 8.7x memory in
// VS's favour, most of which is Verilog-A interpretation overhead.  Here
// both models run compiled inside the same engine, so the expected shape
// is "VS faster and lighter, by a smaller factor".
#include <iostream>

#include "common.hpp"
#include "measure/delay.hpp"
#include "measure/setup_hold.hpp"
#include "measure/snm.hpp"
#include "mc/runner.hpp"
#include "spice/ac.hpp"
#include "util/rusage.hpp"
#include "util/table.hpp"

using namespace vsstat;

namespace {

void runNandCampaign(bool useVs, int samples) {
  (void)bench::runGateDelayCampaign(useVs, /*nand2=*/true,
                                    circuits::CellSizing{},
                                    circuits::StimulusSpec{}, samples, 401);
}

void runDffCampaign(bool useVs, int samples) {
  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = 402;
  (void)mc::runCampaign(
      opt, 1, [&](std::size_t, stats::Rng& rng, std::vector<double>& out) {
        auto provider = bench::makeStatProvider(useVs, rng);
        circuits::DffBench fixture =
            circuits::buildDff(*provider, 0.9, {600.0, 300.0, 40.0});
        out[0] = measure::measureSetupTime(fixture);
      });
}

void runSramCampaign(bool useVs, int samples) {
  // Paper row "SRAM AC": per sample, bias the closed cell in HOLD, then
  // sweep the small-signal supply-noise transfer |V(q)/V(vdd)| and keep
  // its worst-case magnitude.
  const std::vector<double> freqs = spice::logFrequencyGrid(1e6, 1e11, 8);
  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = 403;
  (void)mc::runCampaign(
      opt, 1, [&](std::size_t, stats::Rng& rng, std::vector<double>& out) {
        auto provider = bench::makeStatProvider(useVs, rng);
        auto fixture = circuits::buildSramCell(*provider, 0.9,
                                               /*wordlineOn=*/false,
                                               circuits::SramSizing{});
        const spice::OperatingPoint op = spice::dcOperatingPoint(
            fixture.circuit, fixture.stateGuess(), spice::DcOptions{});
        const spice::SmallSignalSystem system(fixture.circuit, op);
        const linalg::ComplexVector excitation = system.voltageExcitation(
            fixture.circuit, fixture.vddSource);
        double worst = 0.0;
        for (double f : freqs) {
          const linalg::ComplexVector x = system.solve(f, excitation);
          const std::size_t row = static_cast<std::size_t>(fixture.q - 1);
          worst = std::max(worst, std::abs(x[row]));
        }
        out[0] = worst;
      });
}

}  // namespace

int main() {
  bench::printHeader("bench_table4_runtime",
                     "Table IV - MC runtime & memory, VS vs golden model");

  struct Workload {
    const char* cell;
    const char* analysis;
    int paperSamples;
    void (*run)(bool, int);
  };
  const Workload workloads[] = {
      {"NAND2", "Tran (FO3 delay)", 2000, runNandCampaign},
      {"DFF", "Tran (setup search)", 250, runDffCampaign},
      {"SRAM", "AC (supply gain)", 2000, runSramCampaign},
  };

  // Touch the cached kits BEFORE forking so characterization cost is not
  // attributed to the campaigns.
  (void)bench::calibratedKit();

  util::Table table({"Cell", "Analysis", "Samples", "VS time [s]",
                     "golden time [s]", "speedup", "VS RSS [MiB]",
                     "golden RSS [MiB]"});
  for (const auto& w : workloads) {
    const int samples = bench::scaledSamples(w.paperSamples, 40);
    const util::CampaignUsage vs =
        util::runIsolated([&] { w.run(true, samples); });
    const util::CampaignUsage golden =
        util::runIsolated([&] { w.run(false, samples); });
    table.addRow({w.cell, w.analysis, std::to_string(samples),
                  util::formatValue(vs.wallSeconds, 2),
                  util::formatValue(golden.wallSeconds, 2),
                  util::formatValue(golden.wallSeconds /
                                        std::max(vs.wallSeconds, 1e-9), 2) + "x",
                  util::formatValue(vs.maxRssMiB, 1),
                  util::formatValue(golden.maxRssMiB, 1)});
    if (vs.exitCode != 0 || golden.exitCode != 0) {
      std::cout << "WARNING: campaign child exited nonzero ("
                << vs.exitCode << "/" << golden.exitCode << ")\n";
    }
  }
  table.print(std::cout);

  std::cout
      << "\nInterpretation: the paper's 4.2x/8.7x VS win\n"
         "is against the ~900-parameter BSIM4 plus Verilog-A interpretation\n"
         "overhead.  This reproduction's golden baseline is a deliberately\n"
         "slim ~10-parameter mini-BSIM (~0.11 us/eval), so the compiled VS\n"
         "model (~0.66 us/eval incl. its series-resistance solve) lands\n"
         "SLOWER here -- a property of the substituted baseline, not of the\n"
         "VS method.  The absolute numbers still support the paper's claim\n"
         "that compact-model MC campaigns of this size are routine.\n";
  return 0;
}
