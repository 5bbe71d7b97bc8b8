#include "models/device.hpp"

#include <cmath>

namespace vsstat::models {

bool MosfetLoadBank::rebindLane(std::size_t laneIndex, const MosfetModel& card,
                                const DeviceGeometry& geometry) {
  lanes()[laneIndex] = BankLane{&card, &geometry};
  return true;
}

bool MosfetLoadBank::rebindUniform(const MosfetModel& card,
                                   const DeviceGeometry& geometry) {
  for (std::size_t i = 0; i < laneCount(); ++i) {
    if (!rebindLane(i, card, geometry)) return false;
  }
  return true;
}

namespace {

/// Default bank: one scalar evaluateLoad per lane.  No per-lane cached
/// state, so the base rebindLane (pointer swap) is already complete, and
/// the batch trivially matches the scalar path bit-for-bit.  Models whose
/// Newton load is not on any campaign hot path (BsimLite, AlphaPower) stay
/// on this and are still correct lanes of a banked circuit.  NumericsMode
/// is accepted and ignored: the generic bank always evaluates reference
/// numerics, which trivially satisfies the fast-mode tolerance contract.
class GenericLoadBank final : public MosfetLoadBank {
 public:
  explicit GenericLoadBank(std::vector<BankLane> lanes)
      : MosfetLoadBank(std::move(lanes)) {}

  void evaluateLoadBatch(std::span<const double> vgs,
                         std::span<const double> vds, double fdStep,
                         std::span<MosfetLoadEvaluation> out) const override {
    for (std::size_t i = 0; i < laneCount(); ++i) {
      const BankLane& l = lane(i);
      out[i] = l.card->evaluateLoad(*l.geometry, vgs[i], vds[i], fdStep);
    }
  }
};

}  // namespace

std::unique_ptr<MosfetLoadBank> MosfetModel::makeLoadBank(
    std::vector<BankLane> lanes, NumericsMode /*mode*/) const {
  return std::make_unique<GenericLoadBank>(std::move(lanes));
}

std::unique_ptr<MosfetLoadBank> makeUniformLoadBank(
    const MosfetModel& card, const DeviceGeometry& geometry,
    std::size_t laneCount, NumericsMode mode) {
  std::vector<BankLane> lanes(laneCount, BankLane{&card, &geometry});
  return card.makeLoadBank(std::move(lanes), mode);
}

double MosfetModel::drainCurrent(const DeviceGeometry& geom, double vgs,
                                 double vds) const {
  return evaluate(geom, vgs, vds).id;
}

MosfetLoadEvaluation MosfetModel::evaluateLoad(const DeviceGeometry& geom,
                                               double vgs, double vds,
                                               double fdStep) const {
  const MosfetEvaluation base = evaluate(geom, vgs, vds);
  const MosfetEvaluation gate = evaluate(geom, vgs + fdStep, vds);
  const MosfetEvaluation drain = evaluate(geom, vgs, vds + fdStep);
  MosfetLoadEvaluation out;
  out.at = base;
  out.didVgs = (gate.id - base.id) / fdStep;
  out.didVds = (drain.id - base.id) / fdStep;
  out.dqgVgs = (gate.qg - base.qg) / fdStep;
  out.dqgVds = (drain.qg - base.qg) / fdStep;
  out.dqdVgs = (gate.qd - base.qd) / fdStep;
  out.dqdVds = (drain.qd - base.qd) / fdStep;
  out.dqsVgs = (gate.qs - base.qs) / fdStep;
  out.dqsVds = (drain.qs - base.qs) / fdStep;
  return out;
}

double gateCapacitance(const MosfetModel& model, const DeviceGeometry& geom,
                       double vgs, double vds, double step) {
  const MosfetEvaluation hi = model.evaluate(geom, vgs + step, vds);
  const MosfetEvaluation lo = model.evaluate(geom, vgs - step, vds);
  return (hi.qg - lo.qg) / (2.0 * step);
}

double softplus(double x) noexcept {
  if (x > 34.0) return x;           // exp(-x) below double epsilon
  if (x < -34.0) return std::exp(x);
  return std::log1p(std::exp(x));
}

double logistic(double x) noexcept {
  if (x > 34.0) return 0.0;
  if (x < -34.0) return 1.0;
  return 1.0 / (1.0 + std::exp(x));
}

}  // namespace vsstat::models
