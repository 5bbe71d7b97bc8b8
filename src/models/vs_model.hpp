// The Virtual Source (VS / MVS) ultra-compact MOSFET model.
//
// DC transport per Khakifirooz/Antoniadis (TED 2009): the saturation drain
// current is Qixo * vxo, where Qixo is the virtual-source inversion charge
// from a unified softplus expression and vxo the ballistic injection
// velocity; the Fsat function blends linear and saturation regions
// (paper Eq. 2/3).  Threshold shifts with DIBL, delta(Leff)*Vds (Eq. 4).
//
// C-V: the same inversion-charge expression evaluated at both channel ends
// (drain end at the smoothed Vdseff) with a trapezoidal Ward-Dutton
// partition plus overlap/fringe capacitance.  This is a documented
// simplification of the MVS 1.0.1 ballistic charge partition -- see
// DESIGN.md, system S1.
//
// Series resistance: Rs/Rd produce internal-node IR drop, resolved by a
// damped fixed-point loop inside evaluate() so the external terminal
// behaviour stays smooth for the Newton solver.
//
// The model equations themselves live in vs_model.cpp as free functions of
// (params, geometry, bias); the class is a thin card-owning adapter.  That
// lets the scalar Newton-load entry point (evaluateLoad) and the batched
// device-bank lane loop (makeLoadBank) share one arithmetic chain, which
// is what makes banked evaluation bit-identical to the scalar path.
#ifndef VSSTAT_MODELS_VS_MODEL_HPP
#define VSSTAT_MODELS_VS_MODEL_HPP

#include "models/device.hpp"
#include "models/vs_params.hpp"

namespace vsstat::models {

class VsModel final : public MosfetModel {
 public:
  explicit VsModel(VsParams params);

  [[nodiscard]] DeviceType deviceType() const noexcept override {
    return params_.type;
  }
  [[nodiscard]] std::string name() const override { return "VS"; }

  [[nodiscard]] MosfetEvaluation evaluate(const DeviceGeometry& geom,
                                          double vgs,
                                          double vds) const override;

  [[nodiscard]] double drainCurrent(const DeviceGeometry& geom, double vgs,
                                    double vds) const override;

  /// Analytic Newton-load evaluation: the full derivative chain of the VS
  /// equations closes in a handful of multiplies with no extra
  /// transcendentals, and the series-resistance fixed point is solved with
  /// a derivative-aware Newton instead of finite-difference re-solves.
  /// One load costs ~3 intrinsic evaluations instead of ~12.
  [[nodiscard]] MosfetLoadEvaluation evaluateLoad(const DeviceGeometry& geom,
                                                  double vgs, double vds,
                                                  double fdStep) const override;

  /// Struct-of-arrays device bank: per-lane bias-independent evaluation
  /// cards (derived parameters, pre-divided series resistances, charge
  /// prefactors) cached once per rebind, then one flat lane loop through
  /// the same analytic chain evaluateLoad runs.  In NumericsMode::reference
  /// (default) it is bit-identical to the scalar path by construction --
  /// both call the same chain function.  NumericsMode::fast batches the
  /// chain's exp/log1p/pow across all lanes through the vectorized kernels
  /// of util/simd_math.hpp: tolerance-checked against reference
  /// (tests/models/test_fast_numerics.cpp), still deterministic.
  /// (Default for `mode` lives on the base declaration only: defaults on
  /// virtuals bind statically, so repeating it here could drift.)
  [[nodiscard]] std::unique_ptr<MosfetLoadBank> makeLoadBank(
      std::vector<BankLane> lanes, NumericsMode mode) const override;

  [[nodiscard]] std::unique_ptr<MosfetModel> clone() const override;
  [[nodiscard]] bool assignFrom(const MosfetModel& other) override;

  [[nodiscard]] const VsParams& params() const noexcept { return params_; }
  [[nodiscard]] VsParams& mutableParams() noexcept { return params_; }

 private:
  VsParams params_;
};

}  // namespace vsstat::models

#endif  // VSSTAT_MODELS_VS_MODEL_HPP
