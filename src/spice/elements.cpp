#include "spice/elements.hpp"

#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace vsstat::spice {

// --- Resistor -----------------------------------------------------------------

ResistorElement::ResistorElement(std::string name, NodeId a, NodeId b,
                                 double ohms)
    : Element(std::move(name)), a_(a), b_(b), conductance_(1.0 / ohms) {
  require(ohms > 0.0, "Resistor requires positive resistance");
}

void ResistorElement::load(LoadContext& ctx) const {
  const double g = conductance_;
  const double i = g * (ctx.v(a_) - ctx.v(b_));
  ctx.addCurrent(a_, i);
  ctx.addCurrent(b_, -i);
  ctx.addJacobian(a_, a_, g);
  ctx.addJacobian(a_, b_, -g);
  ctx.addJacobian(b_, a_, -g);
  ctx.addJacobian(b_, b_, g);
}

// --- Capacitor -----------------------------------------------------------------

CapacitorElement::CapacitorElement(std::string name, NodeId a, NodeId b,
                                   double farads)
    : Element(std::move(name)), a_(a), b_(b), capacitance_(farads) {
  require(farads >= 0.0, "Capacitor requires non-negative capacitance");
}

void CapacitorElement::load(LoadContext& ctx) const {
  const double q = capacitance_ * (ctx.v(a_) - ctx.v(b_));
  ctx.setCharge(0, q);
  const double i = ctx.chargeCurrent(0, q);
  const double g = ctx.chargeGain() * capacitance_;
  ctx.addCurrent(a_, i);
  ctx.addCurrent(b_, -i);
  ctx.addJacobian(a_, a_, g);
  ctx.addJacobian(a_, b_, -g);
  ctx.addJacobian(b_, a_, -g);
  ctx.addJacobian(b_, b_, g);
}

// --- Current source ---------------------------------------------------------------

CurrentSourceElement::CurrentSourceElement(std::string name, NodeId from,
                                           NodeId to, SourceWaveform waveform)
    : Element(std::move(name)), from_(from), to_(to),
      waveform_(std::move(waveform)) {}

void CurrentSourceElement::load(LoadContext& ctx) const {
  const double i = ctx.sourceScale() * waveform_.valueAt(ctx.time());
  ctx.addCurrent(from_, i);
  ctx.addCurrent(to_, -i);
}

// --- Voltage source ---------------------------------------------------------------

VoltageSourceElement::VoltageSourceElement(std::string name, NodeId pos,
                                           NodeId neg, SourceWaveform waveform)
    : Element(std::move(name)), pos_(pos), neg_(neg),
      waveform_(std::move(waveform)) {}

void VoltageSourceElement::load(LoadContext& ctx) const {
  const double i = ctx.branchCurrent(0);
  // Branch current flows from pos through the source to neg.
  ctx.addCurrent(pos_, i);
  ctx.addCurrent(neg_, -i);
  ctx.addJacobianBranch(pos_, 0, 1.0);
  ctx.addJacobianBranch(neg_, 0, -1.0);

  const double target = ctx.sourceScale() * waveform_.valueAt(ctx.time());
  ctx.addBranchResidual(0, ctx.v(pos_) - ctx.v(neg_) - target);
  ctx.addBranchJacobianV(0, pos_, 1.0);
  ctx.addBranchJacobianV(0, neg_, -1.0);
}

// --- MOSFET -----------------------------------------------------------------------

MosfetElement::MosfetElement(std::string name, NodeId drain, NodeId gate,
                             NodeId source,
                             std::unique_ptr<models::MosfetModel> model,
                             const models::DeviceGeometry& geometry)
    : Element(std::move(name)), drain_(drain), gate_(gate), source_(source),
      model_(std::move(model)), geometry_(geometry) {
  require(model_ != nullptr, "MosfetElement requires a model");
  require(geometry_.width > 0.0 && geometry_.length > 0.0,
          "MosfetElement requires positive geometry");
}

void MosfetElement::setInstance(std::unique_ptr<models::MosfetModel> model,
                                const models::DeviceGeometry& geometry) {
  require(model != nullptr, "setInstance requires a model");
  model_ = std::move(model);
  geometry_ = geometry;
  ++cardVersion_;
}

void MosfetElement::rebind(const models::MosfetModel& model,
                           const models::DeviceGeometry& geometry) {
  require(geometry.width > 0.0 && geometry.length > 0.0,
          "rebind requires positive geometry");
  require(model.deviceType() == model_->deviceType(),
          "rebind must not change device polarity");
  if (!model_->assignFrom(model)) model_ = model.clone();
  geometry_ = geometry;
  ++cardVersion_;
}

double MosfetElement::terminalDrainCurrent(double vd, double vg,
                                           double vs) const {
  const double sign =
      model_->deviceType() == models::DeviceType::Nmos ? 1.0 : -1.0;
  const double vgs = sign * (vg - vs);
  const double vds = sign * (vd - vs);
  return sign * model_->drainCurrent(geometry_, vgs, vds);
}

void MosfetElement::load(LoadContext& ctx) const {
  require(ctx.capturing(),
          "MosfetElement::load: MOSFETs are evaluated and stamped by the "
          "device bank, not the element loop");
  for (const NodeId row : {drain_, gate_, source_})
    for (const NodeId col : {drain_, gate_, source_})
      ctx.addJacobian(row, col, 0.0);
}

}  // namespace vsstat::spice
