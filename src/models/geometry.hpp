// Per-instance device geometry.  Stored in SI metres; the paper quotes all
// sizes in nanometres, so helpers convert explicitly at the boundaries.
#ifndef VSSTAT_MODELS_GEOMETRY_HPP
#define VSSTAT_MODELS_GEOMETRY_HPP

#include "util/units.hpp"

namespace vsstat::models {

/// Effective channel geometry of one transistor instance.
struct DeviceGeometry {
  double width = 0.0;   ///< effective channel width Weff [m]
  double length = 0.0;  ///< effective channel length Leff [m]

  [[nodiscard]] double widthNm() const noexcept { return units::mToNm(width); }
  [[nodiscard]] double lengthNm() const noexcept { return units::mToNm(length); }
};

/// Convenience constructor from nanometre sizes (the paper's W/L notation).
[[nodiscard]] inline DeviceGeometry geometryNm(double widthNm,
                                               double lengthNm) noexcept {
  return DeviceGeometry{units::nmToM(widthNm), units::nmToM(lengthNm)};
}

}  // namespace vsstat::models

#endif  // VSSTAT_MODELS_GEOMETRY_HPP
