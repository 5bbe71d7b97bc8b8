// NLDM-style cell timing characterization: delay and output-slew lookup
// tables over an (input slew, load capacitance) grid, built by transient
// simulation of the cell.
//
// This is the substrate the paper's SSTA discussion (Sec. IV-B, ref [14])
// presumes: statistical timing operates on characterized cells, not on
// transistor-level simulations of whole paths.  The statistical layer
// lives in timing/ssta.hpp; these tables carry the nominal behaviour.
#ifndef VSSTAT_TIMING_TABLES_HPP
#define VSSTAT_TIMING_TABLES_HPP

#include <vector>

#include "circuits/cells.hpp"
#include "circuits/provider.hpp"
#include "linalg/matrix.hpp"

namespace vsstat::timing {

/// One timing arc's tables: rows follow inputSlews, columns follow
/// loadsFarads.
struct TimingTable {
  std::vector<double> inputSlews;   ///< 10-90% input transition times [s]
  std::vector<double> loadsFarads;  ///< load capacitance grid [F]
  linalg::Matrix delay;             ///< 50%-to-50% propagation delay [s]
  linalg::Matrix outputSlew;        ///< 10-90% output transition [s]

  /// Bilinear interpolation (clamped at the grid edges).
  [[nodiscard]] double delayAt(double slew, double load) const;
};

/// Both arcs of an inverting cell.
struct CellTiming {
  TimingTable fall;  ///< input rise -> output fall (tpHL)
  TimingTable rise;  ///< input fall -> output rise (tpLH)
};

struct CharacterizationOptions {
  double vdd = 0.9;
  std::vector<double> inputSlews = {6e-12, 15e-12, 35e-12};
  std::vector<double> loadsFarads = {0.5e-15, 2e-15, 6e-15};
  double dt = 0.25e-12;
};

/// One operating point of one concrete inverter (fixed device cards).
struct DelayPoint {
  double fallDelay = 0.0;  ///< tpHL [s]
  double riseDelay = 0.0;  ///< tpLH [s]
  double fallSlew = 0.0;   ///< output 90-10% [s]
  double riseSlew = 0.0;   ///< output 10-90% [s]

  [[nodiscard]] double averageDelay() const noexcept {
    return 0.5 * (fallDelay + riseDelay);
  }
};

/// Measures one (slew, load) point of the given device pair; the models
/// are cloned, so repeated calls see identical devices.  This is the
/// primitive behind characterizeInverter() and the statistical stage
/// characterization.
[[nodiscard]] DelayPoint measureInverterPoint(
    const models::MosfetModel& pmosModel,
    const models::DeviceGeometry& pmosGeom,
    const models::MosfetModel& nmosModel,
    const models::DeviceGeometry& nmosGeom, double vdd, double inputSlew,
    double loadFarads, double dt = 0.25e-12);

/// Characterizes a static CMOS inverter built from `provider`.  Each grid
/// point runs one transient with a PULSE input shaped to the requested
/// slew and a pure capacitive load.
[[nodiscard]] CellTiming characterizeInverter(
    circuits::DeviceProvider& provider, const circuits::CellSizing& sizing,
    const CharacterizationOptions& options = {});

}  // namespace vsstat::timing

#endif  // VSSTAT_TIMING_TABLES_HPP
