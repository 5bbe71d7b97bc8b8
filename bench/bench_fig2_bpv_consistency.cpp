// Fig. 2: relative difference in sigma(VT0), sigma(Leff), sigma(Weff)
// between solving the BPV system per-geometry (individually) and jointly
// across all geometries, plotted against device width.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "common.hpp"
#include "extract/bpv.hpp"
#include "util/error.hpp"
#include "models/bsim_lite.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace vsstat;

int main() {
  bench::printHeader("bench_fig2_bpv_consistency",
                     "Fig. 2 - individual vs joint BPV solve across widths");

  const auto& kit = bench::calibratedKit();
  const models::VsParams card = kit.nominal(models::DeviceType::Nmos);

  // Measured variances from the golden kit over the full geometry set.
  extract::GoldenMeterOptions gm;
  gm.samples = bench::scaledSamples(1000, 300);
  const auto geoms = extract::extractionGeometries();
  const auto meas = extract::measureGoldenVariances(
      bench::goldenKit(), models::DeviceType::Nmos, geoms, gm);

  const extract::BpvOptions opt;
  const extract::BpvResult joint = extract::solveBpv(card, meas, opt);

  util::Table table({"width [nm]", "L [nm]", "dVT0 [%]", "dLeff [%]",
                     "dWeff [%]"});
  std::vector<double> widths, dVt0, dLeff, dWeff;
  for (const auto& m : meas) {
    extract::BpvResult single;
    try {
      single = extract::solveBpvIndividual(card, m, opt);
    } catch (const vsstat::Error&) {
      continue;  // under-constrained single geometry: skip, as in practice
    }
    const auto pct = [](double a, double b) {
      return b != 0.0 ? 100.0 * (a / b - 1.0) : 0.0;
    };
    const double dv = pct(single.alphas.aVt0, joint.alphas.aVt0);
    const double dl = pct(single.alphas.aLeff, joint.alphas.aLeff);
    const double dw = pct(single.alphas.aWeff, joint.alphas.aWeff);
    table.addRow({util::formatValue(m.geom.widthNm(), 0),
                  util::formatValue(m.geom.lengthNm(), 0),
                  util::formatValue(dv, 2), util::formatValue(dl, 2),
                  util::formatValue(dw, 2)});
    widths.push_back(m.geom.widthNm());
    dVt0.push_back(dv);
    dLeff.push_back(dl);
    dWeff.push_back(dw);
  }
  table.print(std::cout);

  double worst = 0.0;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    worst = std::max({worst, std::fabs(dVt0[i]), std::fabs(dLeff[i]),
                      std::fabs(dWeff[i])});
  }
  std::cout << "\nWorst |individual - joint| difference: "
            << util::formatValue(worst, 2)
            << " %  (paper Fig. 2 reports < 10 %)\n";

  util::writeCsv(bench::outPath("fig2_bpv_consistency.csv"),
                 {"width_nm", "dVt0_pct", "dLeff_pct", "dWeff_pct"},
                 {widths, dVt0, dLeff, dWeff});
  return 0;
}
