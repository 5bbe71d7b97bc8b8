// Physical constants and unit conversions.
//
// The library works in SI internally (V, A, s, F, m).  Device geometry is
// therefore stored in metres even though the paper (and all printed output)
// speaks in nanometres; the helpers here keep those conversions explicit.
// The Pelgrom alpha coefficients of the paper are carried in the paper's
// own mixed units (V*nm, nm, nm*cm^2/Vs, nm*uF/cm^2) -- see
// extract/pelgrom.hpp for the conversion points.
#ifndef VSSTAT_UTIL_UNITS_HPP
#define VSSTAT_UTIL_UNITS_HPP

namespace vsstat::units {

/// Boltzmann constant [J/K].
inline constexpr double kBoltzmann = 1.380649e-23;

/// Elementary charge [C].
inline constexpr double kElementaryCharge = 1.602176634e-19;

/// Default simulation temperature [K].
inline constexpr double kRoomTemperatureK = 300.0;

/// Thermal voltage kT/q [V] at the given temperature.
[[nodiscard]] inline constexpr double thermalVoltage(
    double temperatureK = kRoomTemperatureK) noexcept {
  return kBoltzmann * temperatureK / kElementaryCharge;
}

// --- length ---------------------------------------------------------------
inline constexpr double kNm = 1e-9;   ///< nanometre in metres
inline constexpr double kUm = 1e-6;   ///< micrometre in metres
inline constexpr double kCm = 1e-2;   ///< centimetre in metres

[[nodiscard]] inline constexpr double nmToM(double nm) noexcept { return nm * kNm; }
[[nodiscard]] inline constexpr double mToNm(double m) noexcept { return m / kNm; }
[[nodiscard]] inline constexpr double umToM(double um) noexcept { return um * kUm; }
[[nodiscard]] inline constexpr double mToUm(double m) noexcept { return m / kUm; }

// --- areal capacitance ----------------------------------------------------
/// uF/cm^2 expressed in F/m^2 (1 uF/cm^2 = 1e-6 F / 1e-4 m^2 = 1e-2 F/m^2).
inline constexpr double kUFPerCm2 = 1e-2;

[[nodiscard]] inline constexpr double uFPerCm2ToSI(double v) noexcept {
  return v * kUFPerCm2;
}
[[nodiscard]] inline constexpr double siToUFPerCm2(double v) noexcept {
  return v / kUFPerCm2;
}

// --- mobility ---------------------------------------------------------------
/// cm^2/(V*s) expressed in m^2/(V*s).
inline constexpr double kCm2PerVs = 1e-4;

[[nodiscard]] inline constexpr double cm2PerVsToSI(double v) noexcept {
  return v * kCm2PerVs;
}
[[nodiscard]] inline constexpr double siToCm2PerVs(double v) noexcept {
  return v / kCm2PerVs;
}

// --- velocity ---------------------------------------------------------------
/// cm/s expressed in m/s.
inline constexpr double kCmPerS = 1e-2;

[[nodiscard]] inline constexpr double cmPerSToSI(double v) noexcept {
  return v * kCmPerS;
}

// --- time -------------------------------------------------------------------
inline constexpr double kPs = 1e-12;  ///< picosecond in seconds
inline constexpr double kNs = 1e-9;   ///< nanosecond in seconds

[[nodiscard]] inline constexpr double psToS(double ps) noexcept { return ps * kPs; }
[[nodiscard]] inline constexpr double sToPs(double s) noexcept { return s / kPs; }

}  // namespace vsstat::units

#endif  // VSSTAT_UTIL_UNITS_HPP
