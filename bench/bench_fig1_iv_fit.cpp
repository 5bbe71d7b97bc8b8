// Fig. 1: VS model fitting for NMOS (and PMOS) against the golden 40-nm
// kit at W/L = 300/40 nm -- Id-Vg (log) and Id-Vd (linear) characteristics.
#include <cmath>
#include <iostream>
#include <utility>

#include "common.hpp"
#include "extract/fit_campaign.hpp"
#include "measure/device_metrics.hpp"
#include "models/bsim_lite.hpp"
#include "models/vs_model.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace vsstat;

namespace {

/// RMS of ln(Id_vs / Id_golden) over the Id-Vg scan (drain at 0.05 V and
/// 0.9 V, gate 0.10 -> 0.9 V) and of Id_vs / Id_golden - 1 over the Id-Vd
/// family (gate 0.5 / 0.7 / 0.9 V): the Fig. 1 curves, scored directly on
/// the two models.
std::pair<double, double> curveErrors(const models::MosfetModel& vs,
                                      const models::MosfetModel& golden,
                                      const models::DeviceGeometry& geom) {
  double sumLog = 0.0, sumRel = 0.0;
  int nLog = 0, nRel = 0;
  for (double vgs = 0.10; vgs <= 0.9 + 1e-9; vgs += 0.05) {
    for (const double vds : {0.05, 0.9}) {
      const double e = std::log(vs.drainCurrent(geom, vgs, vds) /
                                golden.drainCurrent(geom, vgs, vds));
      sumLog += e * e;
      ++nLog;
    }
  }
  for (const double vgs : {0.5, 0.7, 0.9}) {
    for (double vds = 0.05; vds <= 0.9 + 1e-9; vds += 0.05) {
      const double e = vs.drainCurrent(geom, vgs, vds) /
                           golden.drainCurrent(geom, vgs, vds) -
                       1.0;
      sumRel += e * e;
      ++nRel;
    }
  }
  return {std::sqrt(sumLog / nLog), std::sqrt(sumRel / nRel)};
}

void fitOne(models::DeviceType type) {
  const bool isN = type == models::DeviceType::Nmos;
  const models::BsimLite golden(isN ? bench::goldenKit().nmos
                                    : bench::goldenKit().pmos);
  const models::VsParams seed =
      isN ? models::defaultVsNmos() : models::defaultVsPmos();
  const models::DeviceGeometry geom = models::geometryNm(300, 40);

  // One-lane campaign on the golden kit's noiseless data.
  const extract::FitCampaign campaign(seed, geom, extract::goldenVsPlan());
  const extract::FitCampaignResult fit =
      campaign.run(1, 0, [&](std::size_t, stats::Rng& rng,
                             extract::FitDataset& d) {
        campaign.synthesizeDataset(golden, 0.0, rng, d);
      });
  const models::VsParams card = campaign.vsCard(fit, 0);
  const models::VsModel vs(card);
  const auto [rmsLog, rmsRel] = curveErrors(vs, golden, geom);
  const measure::ElectricalTargets tVs = measure::measureTargets(vs, geom, 0.9);
  const measure::ElectricalTargets tGold =
      measure::measureTargets(golden, geom, 0.9);

  std::cout << "\n--- " << models::toString(type) << " fit (W/L = 300/40 nm) ---\n";
  util::Table summary({"metric", "value"});
  summary.addRow({"RMS log-space error, Id-Vg", util::formatValue(rmsLog, 4)});
  summary.addRow({"RMS relative error, Id-Vd", util::formatValue(rmsRel, 4)});
  summary.addRow({"Cgg relative error", util::formatValue(tVs.cgg / tGold.cgg - 1.0, 4)});
  summary.addRow({"Idsat relative error",
                  util::formatValue(tVs.idsat / tGold.idsat - 1.0, 4)});
  summary.addRow({"log10 Ioff error [dec]",
                  util::formatValue(tVs.log10Ioff - tGold.log10Ioff, 4)});
  summary.addRow({"LM iterations", std::to_string(fit.iterations[0])});
  summary.addRow({"outcome", extract::toString(fit.outcomes[0])});
  summary.addRow({"bound mask", std::to_string(fit.boundMask[0])});
  summary.addRow({"fitted VT0 [V]", util::formatValue(card.vt0, 4)});
  summary.addRow({"fitted vxo [1e7 cm/s]", util::formatValue(card.vxo / 1e5, 3)});
  summary.addRow({"fitted mu [cm^2/Vs]", util::formatValue(card.mu * 1e4, 1)});
  summary.addRow({"fitted n0", util::formatValue(card.n0, 3)});
  summary.addRow({"fitted beta", util::formatValue(card.beta, 3)});
  summary.print(std::cout);

  // Id-Vg series (vds = 0.05 and 0.9 V), Id-Vd series (vgs = 0.5/0.7/0.9).
  const std::string tag = isN ? "nmos" : "pmos";
  std::vector<double> vg, idVsLin, idGoldLin, idVsSat, idGoldSat;
  for (double v = 0.0; v <= 0.9 + 1e-9; v += 0.025) {
    vg.push_back(v);
    idVsLin.push_back(vs.drainCurrent(geom, v, 0.05));
    idGoldLin.push_back(golden.drainCurrent(geom, v, 0.05));
    idVsSat.push_back(vs.drainCurrent(geom, v, 0.9));
    idGoldSat.push_back(golden.drainCurrent(geom, v, 0.9));
  }
  util::writeCsv(bench::outPath("fig1_idvg_" + tag + ".csv"),
                 {"vgs", "id_vs_lin", "id_golden_lin", "id_vs_sat",
                  "id_golden_sat"},
                 {vg, idVsLin, idGoldLin, idVsSat, idGoldSat});

  std::vector<double> vd, id05, id05g, id07, id07g, id09, id09g;
  for (double v = 0.0; v <= 0.9 + 1e-9; v += 0.025) {
    vd.push_back(v);
    id05.push_back(vs.drainCurrent(geom, 0.5, v));
    id05g.push_back(golden.drainCurrent(geom, 0.5, v));
    id07.push_back(vs.drainCurrent(geom, 0.7, v));
    id07g.push_back(golden.drainCurrent(geom, 0.7, v));
    id09.push_back(vs.drainCurrent(geom, 0.9, v));
    id09g.push_back(golden.drainCurrent(geom, 0.9, v));
  }
  util::writeCsv(bench::outPath("fig1_idvd_" + tag + ".csv"),
                 {"vds", "vs_vg0.5", "golden_vg0.5", "vs_vg0.7",
                  "golden_vg0.7", "vs_vg0.9", "golden_vg0.9"},
                 {vd, id05, id05g, id07, id07g, id09, id09g});

  // ASCII view of the output characteristics (VS = '*', golden = 'o').
  util::Series sVs{vd, id09, '*'};
  util::Series sGold{vd, id09g, 'o'};
  std::cout << "Id-Vd at Vgs=0.9 V (VS '*', golden 'o'):\n"
            << util::asciiScatter({sVs, sGold}, 64, 16, "Vds [V]", "Id [A]");
}

}  // namespace

int main() {
  bench::printHeader("bench_fig1_iv_fit",
                     "Fig. 1 - VS model fitted to the 40-nm golden kit");
  fitOne(models::DeviceType::Nmos);
  fitOne(models::DeviceType::Pmos);
  std::cout << "\nCSV series written under out/fig1_*.csv\n";
  return 0;
}
