#include "spice/assembler.hpp"

#include <cmath>
#include <string>

#include "spice/element.hpp"
#include "spice/elements.hpp"
#include "util/error.hpp"

namespace vsstat::spice::detail {

Assembler::Assembler(const Circuit& circuit, models::NumericsMode numerics,
                     linalg::SolverMode solver)
    : circuit_(circuit),
      numNodes_(circuit.nodeCount() - 1),
      numUnknowns_(circuit.unknownCount()),
      residual_(numUnknowns_, 0.0),
      chargeNow_(static_cast<std::size_t>(circuit.chargeSlotTotal()), 0.0),
      chargePrev_(chargeNow_.size(), 0.0),
      histTerm_(chargeNow_.size(), 0.0) {
  capturePattern();
  workspace_.dx.assign(numUnknowns_, 0.0);
  workspace_.lu.setSolverMode(solver);
  auto bank = std::make_unique<DeviceBankSet>(circuit_, pattern_, numerics);
  if (bank->laneCount() > 0) bankSet_ = std::move(bank);
}

void Assembler::syncDeviceBank() {
  if (bankSet_ != nullptr && !bankSet_->sync()) bankSet_->rebuild();
}

void Assembler::setNumericsMode(models::NumericsMode numerics) {
  if (bankSet_ != nullptr) bankSet_->setNumerics(numerics);
}

void Assembler::checkBankLanesFinite() const {
  for (std::size_t g = 0; g < bankSet_->groupCount(); ++g) {
    const DeviceBankGroup& grp = bankSet_->group(static_cast<std::int32_t>(g));
    for (std::size_t lane = 0; lane < grp.out.size(); ++lane) {
      const models::MosfetLoadEvaluation& ev = grp.out[lane];
      if (std::isfinite(ev.at.id) && std::isfinite(ev.at.qg) &&
          std::isfinite(ev.at.qd) && std::isfinite(ev.at.qs) &&
          std::isfinite(ev.didVgs) && std::isfinite(ev.didVds)) {
        continue;
      }
      throw NonFiniteError(
          "device bank: non-finite evaluation in " +
          std::string(bankSet_->numerics() == models::NumericsMode::fast
                          ? "fast"
                          : "reference") +
          "-numerics group " + std::to_string(g) + ", lane " +
          std::to_string(lane));
    }
  }
}

void Assembler::capturePattern() {
  // Symbolic pass: run every element's load() once in capture mode, where
  // Jacobian stamps record coordinates instead of accumulating values.
  // Element sparsity structure is bias-independent by contract, so one pass
  // at the zero iterate sees every position.  Transient mode (c0 != 0) is
  // forced so charge-derivative stamps are captured too; node diagonals are
  // added explicitly for the gmin homotopy shunts.
  capturing_ = true;
  // Nine positions bound any element's stamp (a MOSFET's 3x3 block), so
  // one reservation covers the whole pass.
  coords_.reserve(9 * circuit_.elements().size() + numNodes_);
  const linalg::Vector zero(numUnknowns_, 0.0);
  x_ = &zero;
  setBackwardEuler(1.0);

  LoadContext ctx;
  ctx.assembler_ = this;
  for (const auto& element : circuit_.elements()) {
    ctx.branchBase_ = element->branchBase();
    ctx.chargeBase_ = element->chargeBase();
    element->load(ctx);
  }
  for (std::size_t n = 0; n < numNodes_; ++n) coords_.emplace_back(n, n);

  pattern_ = linalg::SparsePattern(numUnknowns_, coords_);
  values_ = linalg::SparseMatrix(pattern_);
  gminSlots_.resize(numNodes_);
  for (std::size_t n = 0; n < numNodes_; ++n)
    gminSlots_[n] = pattern_.slot(n, n);

  coords_.clear();
  coords_.shrink_to_fit();
  std::fill(chargeNow_.begin(), chargeNow_.end(), 0.0);
  setDcMode();
  x_ = nullptr;
  capturing_ = false;
}

void Assembler::assemble(const linalg::Vector& x) {
  x_ = &x;
  values_.clear();
  std::fill(residual_.begin(), residual_.end(), 0.0);
  std::fill(chargeNow_.begin(), chargeNow_.end(), 0.0);

  // Refresh any lanes invalidated by a rebind, then gather every device's
  // canonical bias and batch-evaluate all model groups up front.  The
  // element loop below scatters the precomputed lane results in circuit
  // element order, so the residual/Jacobian accumulation order -- and
  // therefore every floating-point sum -- is fixed by the netlist alone.
  if (bankSet_ != nullptr) {
    if (!bankSet_->sync()) bankSet_->rebuild();
    bankSet_->evaluate(x);
    // The NaN-lane fault models a FAST kernel lane gone bad, so it only
    // fires while the bank runs fast numerics: the rescue ladder's
    // reference-numerics rung then genuinely heals it (and the rescued
    // metric is bit-identical to a reference-mode campaign's).
    if (faultArmed_ &&
        bankSet_->numerics() == models::NumericsMode::fast &&
        injector_->nanLaneAt(faultSample_, faultAttempt_))
      bankSet_->poisonLaneForTest(0, 0);
    // Seam guard: garbage must not scatter into the matrix silently.  A
    // bad lane (fast-chain overflow, injected fault) becomes a classified
    // NonFiniteError that the Newton driver and rescue ladder understand.
    checkBankLanesFinite();
  }

  LoadContext ctx;
  ctx.assembler_ = this;
  const auto& elements = circuit_.elements();
  for (std::size_t idx = 0; idx < elements.size(); ++idx) {
    if (bankSet_ != nullptr) {
      const BankLaneRef ref = bankSet_->elementLanes()[idx];
      if (ref.group >= 0) {
        scatterBankedLane(bankSet_->group(ref.group),
                          static_cast<std::size_t>(ref.lane));
        continue;
      }
    }
    const auto& element = elements[idx];
    ctx.branchBase_ = element->branchBase();
    ctx.chargeBase_ = element->chargeBase();
    element->load(ctx);
  }

  if (gmin_ > 0.0) {
    for (std::size_t n = 0; n < numNodes_; ++n) {
      residual_[n] += gmin_ * x[n];
      values_.addAt(gminSlots_[n], gmin_);
    }
  }

  require(!patternMiss_,
          "Assembler: element stamped outside the captured sparsity pattern "
          "(element structure must be bias-independent)");

  if (faultArmed_ && injector_->singularAt(faultSample_, faultAttempt_)) {
    // Zero the first matrix row AFTER the gmin shunts were added, so the
    // injected breakdown survives every homotopy rung and the factorization
    // hits a hard singular pivot.
    const auto& rowStart = pattern_.rowStart();
    for (std::size_t s = rowStart[0]; s < rowStart[1]; ++s)
      values_.setAt(static_cast<std::int32_t>(s), 0.0);
  }
}

void Assembler::scatterBankedLane(const DeviceBankGroup& grp,
                                  std::size_t lane) noexcept {
  // The MOSFET stamp, written straight into the lane's captured rows and
  // CSR slots (ground terminals carry -1 and are skipped).  Canonical id
  // flows into the canonical drain; the polarity sign maps it back to the
  // terminal orientation, and cancels in every derivative stamp
  // (d(current leaving drain)/dVg = sign*did/dvgs*sign = did/dvgs).
  // tests/spice/test_device_bank.cpp pins every stamp against a central
  // difference of the assembled residual and against KCL.
  const models::MosfetLoadEvaluation& ev = grp.out[lane];
  const BankLaneState& l = grp.lanes[lane];

  const auto addResidual = [&](std::int32_t row, double v) {
    if (row >= 0) residual_[static_cast<std::size_t>(row)] += v;
  };
  const auto addJ = [&](std::int32_t slot, double v) {
    if (slot >= 0) values_.addAt(slot, v);
  };

  const double didvgs = ev.didVgs;
  const double didvds = ev.didVds;

  const double idTerm = l.sign * ev.at.id;
  addResidual(l.rowD, idTerm);
  addResidual(l.rowS, -idTerm);
  addJ(l.sDG, didvgs);
  addJ(l.sDD, didvds);
  addJ(l.sDS, -(didvgs + didvds));
  addJ(l.sSG, -didvgs);
  addJ(l.sSD, -didvds);
  addJ(l.sSS, didvgs + didvds);

  const double qg = l.sign * ev.at.qg;
  const double qd = l.sign * ev.at.qd;
  const double qs = l.sign * ev.at.qs;
  const std::int32_t cb = l.chargeBase;
  chargeNow_[static_cast<std::size_t>(cb)] = qg;
  chargeNow_[static_cast<std::size_t>(cb) + 1] = qd;
  chargeNow_[static_cast<std::size_t>(cb) + 2] = qs;

  const double c0 = c0_;
  const double ig = companionCurrent(cb, qg);
  const double idq = companionCurrent(cb + 1, qd);
  const double isq = companionCurrent(cb + 2, qs);
  addResidual(l.rowG, ig);
  addResidual(l.rowD, idq);
  addResidual(l.rowS, isq);

  if (c0 != 0.0) {
    addJ(l.sGG, c0 * ev.dqgVgs);
    addJ(l.sGD, c0 * ev.dqgVds);
    addJ(l.sGS, -c0 * (ev.dqgVgs + ev.dqgVds));
    addJ(l.sDG, c0 * ev.dqdVgs);
    addJ(l.sDD, c0 * ev.dqdVds);
    addJ(l.sDS, -c0 * (ev.dqdVgs + ev.dqdVds));
    addJ(l.sSG, c0 * ev.dqsVgs);
    addJ(l.sSD, c0 * ev.dqsVds);
    addJ(l.sSS, -c0 * (ev.dqsVgs + ev.dqsVds));
  }
}

}  // namespace vsstat::spice::detail
