// Alpha-power-law MOSFET model (Sakurai-Newton), the empirical
// ultra-compact baseline the paper's introduction contrasts the VS model
// against (reference [5], Consoli et al.): a handful of parameters chosen
// to maximize inverter timing accuracy, with no physical transport content
// and no subthreshold conduction.
//
//   Idsat/W = kSat * (Vgs - VT)^alphaSat,   VT = vth0 - delta0 * Vds
//   Vdsat   = kV   * (Vgs - VT)^(alphaSat/2)
//   Id      = Idsat * (2 - v) * v  for v = Vds/Vdsat < 1, else Idsat
//
// The overdrive is softplus-smoothed with width vSmooth so the model stays
// C1 through VT for the Newton engine; this is a numerical aid, not a
// subthreshold model -- off-state current is orders of magnitude below any
// physical leakage, which is exactly the baseline's documented limitation
// (it cannot model Ioff, so it cannot participate in the paper's BPV
// leakage targets).
//
// Charges: Meyer-style.  Channel charge cg*W*L*overdrive partitioned
// 50/50 in the linear region sliding to 40(drain)/60(source) in
// saturation, plus per-edge overlap capacitance -- enough C-V fidelity
// for delay comparisons, which is the regime this baseline targets.
#ifndef VSSTAT_MODELS_ALPHA_POWER_HPP
#define VSSTAT_MODELS_ALPHA_POWER_HPP

#include "models/device.hpp"

namespace vsstat::models {

struct AlphaPowerParams {
  DeviceType type = DeviceType::Nmos;

  double vth0 = 0.35;      ///< zero-Vds threshold [V]
  double delta0 = 0.10;    ///< DIBL coefficient [V/V]
  double alphaSat = 1.3;   ///< velocity-saturation power index (1..2)
  double kSat = 1.2e3;     ///< saturation transconductance [A/m / V^alpha]
  double kV = 0.9;         ///< Vdsat coefficient [V^(1 - alpha/2)]
  double cg = 1.8e-2;      ///< effective gate capacitance [F/m^2]
  double cof = 1.5e-10;    ///< overlap+fringe capacitance per edge [F/m]
  double vSmooth = 0.012;  ///< overdrive smoothing width [V]
};

/// Seed cards in the same 40-nm-class ballpark as the VS/golden cards;
/// intended as LM starting points for the golden alpha-power fit
/// (extract::goldenAlphaPowerPlan).
[[nodiscard]] AlphaPowerParams defaultAlphaNmos();
[[nodiscard]] AlphaPowerParams defaultAlphaPmos();

class AlphaPowerModel final : public MosfetModel {
 public:
  explicit AlphaPowerModel(AlphaPowerParams params);

  [[nodiscard]] DeviceType deviceType() const noexcept override {
    return params_.type;
  }
  [[nodiscard]] std::string name() const override { return "AlphaPower"; }

  [[nodiscard]] MosfetEvaluation evaluate(const DeviceGeometry& geom,
                                          double vgs,
                                          double vds) const override;

  [[nodiscard]] double drainCurrent(const DeviceGeometry& geom, double vgs,
                                    double vds) const override;

  [[nodiscard]] std::unique_ptr<MosfetModel> clone() const override;
  [[nodiscard]] bool assignFrom(const MosfetModel& other) override;

  [[nodiscard]] const AlphaPowerParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] AlphaPowerParams& mutableParams() noexcept { return params_; }

 private:
  /// Canonical-polarity current per width at vds >= 0.
  [[nodiscard]] double idPerWidth(double vgs, double vds) const;

  AlphaPowerParams params_;
};

}  // namespace vsstat::models

#endif  // VSSTAT_MODELS_ALPHA_POWER_HPP
