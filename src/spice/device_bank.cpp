#include "spice/device_bank.hpp"

#include <span>
#include <typeinfo>

#include "util/error.hpp"

namespace vsstat::spice::detail {

namespace {

/// Residual row of a node: unknown index, or -1 for ground (the same
/// mapping LoadContext::v / Assembler::stampCurrent apply per stamp).
inline std::int32_t rowOf(NodeId node) noexcept {
  return node == kGround ? -1 : static_cast<std::int32_t>(node - 1);
}

}  // namespace

DeviceBankSet::DeviceBankSet(const Circuit& circuit,
                             const linalg::SparsePattern& pattern,
                             models::NumericsMode numerics)
    : circuit_(&circuit), pattern_(&pattern), numerics_(numerics) {
  rebuild();
}

void DeviceBankSet::rebuild() {
  groups_.clear();
  laneCount_ = 0;
  const auto& elements = circuit_->elements();
  elementLanes_.assign(elements.size(), BankLaneRef{});

  // Reserve each group's lane records at the full MOSFET count up front:
  // the usual case is one homogeneous group holding every device, where
  // the bound is exact and a rebuild costs one allocation per vector.
  std::size_t mosfetCount = 0;
  for (const auto& e : elements)
    if (dynamic_cast<const MosfetElement*>(e.get()) != nullptr) ++mosfetCount;

  for (std::size_t idx = 0; idx < elements.size(); ++idx) {
    const auto* m = dynamic_cast<const MosfetElement*>(elements[idx].get());
    if (m == nullptr) continue;

    const std::type_index type(typeid(m->model()));
    std::int32_t g = -1;
    for (std::size_t k = 0; k < groups_.size(); ++k) {
      if (groups_[k].cardType == type) {
        g = static_cast<std::int32_t>(k);
        break;
      }
    }
    if (g < 0) {
      g = static_cast<std::int32_t>(groups_.size());
      groups_.emplace_back(type);
      groups_.back().lanes.reserve(mosfetCount);
    }
    DeviceBankGroup& grp = groups_[static_cast<std::size_t>(g)];

    BankLaneState lane;
    lane.element = m;
    lane.version = m->cardVersion();
    lane.sign =
        m->model().deviceType() == models::DeviceType::Nmos ? 1.0 : -1.0;
    lane.rowD = rowOf(m->drain());
    lane.rowG = rowOf(m->gate());
    lane.rowS = rowOf(m->source());
    lane.chargeBase = m->chargeBase();

    // The element's 3x3 terminal Jacobian block was captured by the
    // assembler's symbolic pass (MosfetElement::load declares it), so every
    // non-ground pair must resolve to a slot.
    const auto slotOf = [&](std::int32_t row, std::int32_t col) {
      if (row < 0 || col < 0) return std::int32_t{-1};
      const std::int32_t s = pattern_->slot(static_cast<std::size_t>(row),
                                            static_cast<std::size_t>(col));
      require(s >= 0,
              "DeviceBankSet: MOSFET stamp position missing from the "
              "captured sparsity pattern");
      return s;
    };
    lane.sDG = slotOf(lane.rowD, lane.rowG);
    lane.sDD = slotOf(lane.rowD, lane.rowD);
    lane.sDS = slotOf(lane.rowD, lane.rowS);
    lane.sSG = slotOf(lane.rowS, lane.rowG);
    lane.sSD = slotOf(lane.rowS, lane.rowD);
    lane.sSS = slotOf(lane.rowS, lane.rowS);
    lane.sGG = slotOf(lane.rowG, lane.rowG);
    lane.sGD = slotOf(lane.rowG, lane.rowD);
    lane.sGS = slotOf(lane.rowG, lane.rowS);

    elementLanes_[idx] =
        BankLaneRef{g, static_cast<std::int32_t>(grp.lanes.size())};
    grp.lanes.push_back(lane);
    ++laneCount_;
  }

  for (DeviceBankGroup& grp : groups_) {
    std::vector<models::BankLane> bankLanes;
    bankLanes.reserve(grp.lanes.size());
    for (const BankLaneState& lane : grp.lanes)
      bankLanes.push_back(
          models::BankLane{&lane.element->model(), &lane.element->geometry()});
    grp.bank = grp.lanes.front().element->model().makeLoadBank(
        std::move(bankLanes), numerics_);
    grp.vgs.resize(grp.lanes.size());
    grp.vds.resize(grp.lanes.size());
    grp.out.resize(grp.lanes.size());
  }
}

bool DeviceBankSet::sync() {
  for (DeviceBankGroup& grp : groups_) {
    for (std::size_t i = 0; i < grp.lanes.size(); ++i) {
      BankLaneState& lane = grp.lanes[i];
      const MosfetElement* e = lane.element;
      if (e->cardVersion() == lane.version) continue;
      if (!grp.bank->rebindLane(i, e->model(), e->geometry()))
        return false;  // dynamic type changed: regroup from scratch
      // Polarity may only change through setInstance (rebind forbids it);
      // either way the sign is re-derived with the lane.
      lane.sign =
          e->model().deviceType() == models::DeviceType::Nmos ? 1.0 : -1.0;
      lane.version = e->cardVersion();
    }
  }
  return true;
}

void DeviceBankSet::evaluate(const linalg::Vector& x) {
  const auto voltage = [&x](std::int32_t row) {
    return row < 0 ? 0.0 : x[static_cast<std::size_t>(row)];
  };
  for (DeviceBankGroup& grp : groups_) {
    for (std::size_t i = 0; i < grp.lanes.size(); ++i) {
      const BankLaneState& lane = grp.lanes[i];
      const double vs = voltage(lane.rowS);
      grp.vgs[i] = lane.sign * (voltage(lane.rowG) - vs);
      grp.vds[i] = lane.sign * (voltage(lane.rowD) - vs);
    }
    grp.bank->evaluateLoadBatch(std::span<const double>(grp.vgs),
                                std::span<const double>(grp.vds),
                                kMosfetFdStep,
                                std::span<models::MosfetLoadEvaluation>(
                                    grp.out));
  }
}

}  // namespace vsstat::spice::detail
