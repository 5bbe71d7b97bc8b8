// Parameter card for the Virtual Source (MVS-style) compact model.
//
// The DC card follows Khakifirooz et al., TED 2009 (11 DC parameters) plus
// the charge/parasitic parameters needed for transient simulation, and the
// ballistic-coupling constants of the paper's Eq. (5)/(6) used by the
// statistical extension.  All values SI.
#ifndef VSSTAT_MODELS_VS_PARAMS_HPP
#define VSSTAT_MODELS_VS_PARAMS_HPP

#include "models/device.hpp"

namespace vsstat::models {

struct VsParams {
  DeviceType type = DeviceType::Nmos;

  // --- transport / electrostatics (DC) -------------------------------------
  double vt0 = 0.42;          ///< zero-bias threshold voltage VT0 [V]
  double delta0 = 0.12;       ///< DIBL coefficient at lNom [V/V]
  double lDibl = 30e-9;       ///< DIBL roll-off length in delta(Leff) [m]
  double lNom = 40e-9;        ///< Leff at which delta0/vxo are quoted [m]
  double n0 = 1.45;           ///< subthreshold ideality factor
  double cinv = 1.8e-2;       ///< effective gate-channel capacitance [F/m^2]
  double vxo = 1.2e5;         ///< virtual source velocity at lNom [m/s]
  double mu = 2.0e-2;         ///< apparent channel mobility [m^2/(V s)]
  double beta = 1.8;          ///< Fsat transition sharpness
  double alpha = 3.5;         ///< Vt-shift blending constant (weak inversion)
  double rs = 80e-6;          ///< source series resistance [Ohm m] (R*W)
  double rd = 80e-6;          ///< drain series resistance [Ohm m]

  // --- parasitics (C-V) -----------------------------------------------------
  double cof = 1.5e-10;       ///< gate overlap+fringe cap per edge [F/m]

  // --- environment ----------------------------------------------------------
  double temperatureK = 300.0;

  // --- statistical coupling, paper Eq. (5)/(6) ------------------------------
  double lambdaMfp = 9e-9;    ///< carrier mean free path lambda [m]
  double lCritical = 5e-9;    ///< critical backscattering length l [m]
  double alphaFit = 0.5;      ///< power-law index alpha (~0.5)
  double gammaFit = 0.45;     ///< power-law index gamma (~0.45)
  double dVxoDDelta = 2.0;    ///< d(vxo)/vxo per unit d(delta) (~2)

  /// DIBL coefficient at an arbitrary effective length:
  /// delta(L) = delta0 * exp(-(L - lNom)/lDibl).
  [[nodiscard]] double diblAt(double leff) const noexcept;

  /// d delta / d Leff at the given length [V/V per m].
  [[nodiscard]] double diblSlopeAt(double leff) const noexcept;

  /// Ballistic efficiency B = lambda / (lambda + 2 l), Eq. (6).
  [[nodiscard]] double ballisticEfficiency() const noexcept;

  /// Sensitivity of vxo to relative mobility change,
  /// alpha + (1 - B)(1 - alpha + gamma), Eq. (5).
  [[nodiscard]] double vxoMobilitySensitivity() const noexcept;

  /// vxo at an arbitrary effective length: shorter channels have higher
  /// DIBL and therefore (Eq. 5, second term) higher vxo.
  [[nodiscard]] double vxoAt(double leff) const noexcept;
};

/// Nominal 40-nm-class cards.  These are the *seed* values; the cards used
/// by the reproduction benches are re-fitted against the golden BsimLite
/// kit (extract::goldenVsPlan, paper Fig. 1) before statistical work.
[[nodiscard]] VsParams defaultVsNmos();
[[nodiscard]] VsParams defaultVsPmos();

}  // namespace vsstat::models

#endif  // VSSTAT_MODELS_VS_PARAMS_HPP
