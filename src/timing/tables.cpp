#include "timing/tables.hpp"

#include <algorithm>
#include <cmath>

#include "circuits/cells.hpp"
#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/elements.hpp"
#include "util/error.hpp"

namespace vsstat::timing {

namespace {

/// Clamped 1-D bracket: returns (index, fraction) for linear interpolation.
std::pair<std::size_t, double> bracket(const std::vector<double>& grid,
                                       double x) {
  if (x <= grid.front()) return {0, 0.0};
  if (x >= grid.back()) return {grid.size() - 2, 1.0};
  std::size_t i = 0;
  while (x > grid[i + 1]) ++i;
  return {i, (x - grid[i]) / (grid[i + 1] - grid[i])};
}

double bilinear(const std::vector<double>& rows,
                const std::vector<double>& cols, const linalg::Matrix& table,
                double r, double c) {
  require(rows.size() >= 2 && cols.size() >= 2,
          "TimingTable: need at least a 2x2 grid");
  const auto [i, fr] = bracket(rows, r);
  const auto [j, fc] = bracket(cols, c);
  const double v00 = table(i, j);
  const double v01 = table(i, j + 1);
  const double v10 = table(i + 1, j);
  const double v11 = table(i + 1, j + 1);
  return (1.0 - fr) * ((1.0 - fc) * v00 + fc * v01) +
         fr * ((1.0 - fc) * v10 + fc * v11);
}

}  // namespace

double TimingTable::delayAt(double slew, double load) const {
  return bilinear(inputSlews, loadsFarads, delay, slew, load);
}

CellTiming characterizeInverter(circuits::DeviceProvider& provider,
                                const circuits::CellSizing& sizing,
                                const CharacterizationOptions& options) {
  require(options.inputSlews.size() >= 2 && options.loadsFarads.size() >= 2,
          "characterizeInverter: need at least a 2x2 grid");
  require(std::is_sorted(options.inputSlews.begin(),
                         options.inputSlews.end()) &&
              std::is_sorted(options.loadsFarads.begin(),
                             options.loadsFarads.end()),
          "characterizeInverter: grids must be ascending");
  require(options.vdd > 0.0, "characterizeInverter: vdd must be positive");

  const std::size_t nSlew = options.inputSlews.size();
  const std::size_t nLoad = options.loadsFarads.size();

  CellTiming cell;
  for (TimingTable* t : {&cell.fall, &cell.rise}) {
    t->inputSlews = options.inputSlews;
    t->loadsFarads = options.loadsFarads;
    t->delay = linalg::Matrix(nSlew, nLoad);
    t->outputSlew = linalg::Matrix(nSlew, nLoad);
  }

  // The device instances are drawn from the provider ONCE: a statistical
  // provider contributes a single mismatch realization shared by all grid
  // points (grid points are operating conditions, not new devices).
  const circuits::DeviceInstance pmos = provider.make(
      models::DeviceType::Pmos, "XDUT.MP",
      models::geometryNm(sizing.wPmosNm, sizing.lengthNm));
  const circuits::DeviceInstance nmos = provider.make(
      models::DeviceType::Nmos, "XDUT.MN",
      models::geometryNm(sizing.wNmosNm, sizing.lengthNm));

  for (std::size_t si = 0; si < nSlew; ++si) {
    for (std::size_t li = 0; li < nLoad; ++li) {
      const DelayPoint p = measureInverterPoint(
          *pmos.model, pmos.geometry, *nmos.model, nmos.geometry,
          options.vdd, options.inputSlews[si], options.loadsFarads[li],
          options.dt);
      cell.fall.delay(si, li) = p.fallDelay;
      cell.fall.outputSlew(si, li) = p.fallSlew;
      cell.rise.delay(si, li) = p.riseDelay;
      cell.rise.outputSlew(si, li) = p.riseSlew;
    }
  }
  return cell;
}

DelayPoint measureInverterPoint(const models::MosfetModel& pmosModel,
                                const models::DeviceGeometry& pmosGeom,
                                const models::MosfetModel& nmosModel,
                                const models::DeviceGeometry& nmosGeom,
                                double vdd, double inputSlew,
                                double loadFarads, double dt) {
  require(vdd > 0.0 && inputSlew > 0.0 && loadFarads > 0.0 && dt > 0.0,
          "measureInverterPoint: all parameters must be positive");

  // PULSE edge time for the requested 10-90% slew: the source ramps
  // linearly over tEdge, of which the 10-90% window is 0.8.
  const double tEdge = inputSlew / 0.8;
  const double tHigh = 12.0 * inputSlew + 60e-12;

  spice::Circuit run;
  const spice::NodeId rin = run.node("in");
  const spice::NodeId rout = run.node("out");
  const spice::NodeId rvdd = run.node("vdd");
  run.addMosfet("MP", rout, rin, rvdd, pmosModel.clone(), pmosGeom);
  run.addMosfet("MN", rout, rin, run.ground(), nmosModel.clone(), nmosGeom);
  run.addVoltageSource("VDD", rvdd, run.ground(),
                       spice::SourceWaveform::dc(vdd));
  run.addVoltageSource(
      "VIN", rin, run.ground(),
      spice::SourceWaveform::pulse(0.0, vdd, 10e-12, tEdge, tEdge, tHigh));
  run.addCapacitor("CL", rout, run.ground(), loadFarads);

  spice::TransientOptions tran;
  tran.dt = dt;
  tran.tStop = 10e-12 + 2.0 * tEdge + tHigh + 12.0 * inputSlew + 100e-12;
  const spice::Waveform wave = spice::transient(run, tran);

  const auto cross = [&](spice::NodeId node, double level, bool rising,
                         double after) {
    const auto t = wave.crossing(node, level, rising, after);
    if (!t) {
      throw ConvergenceError("measureInverterPoint: missing output edge", 0);
    }
    return *t;
  };

  DelayPoint p;
  // Input rise -> output fall.
  const double inRise50 = cross(rin, 0.5 * vdd, true, 0.0);
  const double outFall50 = cross(rout, 0.5 * vdd, false, inRise50);
  const double outFall90 = cross(rout, 0.9 * vdd, false, inRise50 - 5e-12);
  const double outFall10 = cross(rout, 0.1 * vdd, false, outFall90);
  p.fallDelay = outFall50 - inRise50;
  p.fallSlew = outFall10 - outFall90;

  // Input fall -> output rise.
  const double inFall50 = cross(rin, 0.5 * vdd, false, outFall50);
  const double outRise50 = cross(rout, 0.5 * vdd, true, inFall50);
  const double outRise10 = cross(rout, 0.1 * vdd, true, inFall50 - 5e-12);
  const double outRise90 = cross(rout, 0.9 * vdd, true, outRise10);
  p.riseDelay = outRise50 - inFall50;
  p.riseSlew = outRise90 - outRise10;
  return p;
}

}  // namespace vsstat::timing
