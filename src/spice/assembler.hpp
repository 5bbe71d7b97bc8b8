// Internal: Newton assembly state backing LoadContext.
//
// Shared by the DC/transient driver (analysis.cpp) and the small-signal AC
// driver (ac.cpp).  Not part of the public API: element authors only ever
// see LoadContext, and analysis users only see the free functions in
// analysis.hpp / ac.hpp.
//
// Construction runs a one-time symbolic capture pass that records every
// Jacobian position the circuit's elements can ever stamp (element sparsity
// structure is bias-independent by contract).  Each assemble() then writes
// straight into the captured CSR slots -- an O(nnz) clear instead of an
// O(n^2) dense fill -- and the owned NewtonWorkspace gives the Newton driver
// a pattern-reusing factorization plus preallocated step buffers, so one
// Newton iteration performs zero heap allocations in steady state.
//
// MOSFETs are evaluated only through the device bank (see
// spice/device_bank.hpp): the assembler batch-evaluates every device group
// before the element loop and scatters each lane's result into precaptured
// CSR slots in circuit element order (scatterBankedLane).
#ifndef VSSTAT_SPICE_ASSEMBLER_HPP
#define VSSTAT_SPICE_ASSEMBLER_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_lu.hpp"
#include "spice/circuit.hpp"
#include "spice/device_bank.hpp"
#include "spice/fault_injection.hpp"
#include "spice/solve_report.hpp"

namespace vsstat::spice::detail {

/// Per-Assembler scratch for the Newton iteration: the factorization (which
/// owns the LU scratch matrix and pivot order) plus the step vector.  All
/// buffers reach steady-state size after the first iteration and are reused
/// across iterations, transient steps, and homotopy stages.
struct NewtonWorkspace {
  linalg::SparseLu lu;
  linalg::Vector dx;
  // Transient-driver scratch (detail::runTransient): the iterate, the
  // trial step, the per-slot companion currents, and the recorded sample
  // row.  Hoisted into the workspace so a persistent session's transients
  // reuse capacity across Monte Carlo samples instead of reallocating.
  linalg::Vector xTransient;
  linalg::Vector xTrial;
  /// Previous accepted transient state (statistical-tier step predictor).
  linalg::Vector xPrevStep;
  std::vector<double> slotCurrents;
  std::vector<double> sampleBuf;
  /// Homotopy trial iterate (detail::dcSolveLadder gmin/source stepping).
  linalg::Vector xHomotopy;
  /// Diagnostics of the most recent solve (filled by dcSolveLadder /
  /// runTransient, reset at each solve entry).
  SolveReport report;
};

/// Owns the Newton assembly state and backs LoadContext.
class Assembler {
 public:
  /// `numerics` is handed to the bank's model groups: reference (default)
  /// keeps bit-identity with MosfetModel::evaluateLoad, fast swaps in the
  /// vectorized kernel pipeline.  `solver` is installed on the workspace
  /// factorization: fresh (default) keeps the per-solve re-pivot
  /// semantics, reusePivot makes every refactor() reuse the analyzed pivot
  /// order under the growth monitor (SimSession additionally primes and
  /// restores the canonical snapshot).
  explicit Assembler(
      const Circuit& circuit,
      models::NumericsMode numerics = models::NumericsMode::reference,
      linalg::SolverMode solver = linalg::SolverMode::fresh);

  // Not copyable/movable: values_ and the workspace factorization hold
  // pointers into this object's pattern_.
  Assembler(const Assembler&) = delete;
  Assembler& operator=(const Assembler&) = delete;

  // --- integration control ---------------------------------------------------
  void setDcMode() noexcept {
    c0_ = 0.0;
    std::fill(histTerm_.begin(), histTerm_.end(), 0.0);
  }
  /// Backward Euler: i = (q - qPrev)/h.
  void setBackwardEuler(double h) noexcept {
    c0_ = 1.0 / h;
    for (std::size_t s = 0; s < histTerm_.size(); ++s)
      histTerm_[s] = -c0_ * chargePrev_[s];
  }
  /// Trapezoidal: i = (2/h)(q - qPrev) - iPrev.
  void setTrapezoidal(double h, const std::vector<double>& currentPrev) noexcept {
    c0_ = 2.0 / h;
    for (std::size_t s = 0; s < histTerm_.size(); ++s)
      histTerm_[s] = -c0_ * chargePrev_[s] - currentPrev[s];
  }
  /// After a converged step: per-slot companion currents at the solution,
  /// written into the caller's buffer (resized once, then reused).
  void slotCurrents(std::vector<double>& out) const {
    out.resize(chargeNow_.size());
    for (std::size_t s = 0; s < out.size(); ++s)
      out[s] = c0_ * chargeNow_[s] + histTerm_[s];
  }
  void commitCharges() noexcept {
    std::copy(chargeNow_.begin(), chargeNow_.end(), chargePrev_.begin());
  }
  [[nodiscard]] const std::vector<double>& charges() const noexcept {
    return chargeNow_;
  }

  void setTime(double t) noexcept { time_ = t; }
  void setSourceScale(double s) noexcept { sourceScale_ = s; }
  void setGmin(double g) noexcept { gmin_ = g; }

  /// Rebuilds the Jacobian values and residual at iterate x.  Allocation-free.
  void assemble(const linalg::Vector& x);

  /// Jacobian of the last assemble(), laid out on pattern().
  [[nodiscard]] const linalg::SparseMatrix& jacobian() const noexcept {
    return values_;
  }
  /// MNA stamp sparsity of the circuit, captured once at construction.
  [[nodiscard]] const linalg::SparsePattern& pattern() const noexcept {
    return pattern_;
  }
  /// Dense copy of the last assembled Jacobian (AC / diagnostics path).
  void scatterJacobian(linalg::Matrix& dense) const { values_.scatterTo(dense); }

  [[nodiscard]] const linalg::Vector& residual() const noexcept {
    return residual_;
  }
  [[nodiscard]] NewtonWorkspace& workspace() noexcept { return workspace_; }
  [[nodiscard]] std::size_t numNodes() const noexcept { return numNodes_; }
  [[nodiscard]] std::size_t numUnknowns() const noexcept { return numUnknowns_; }
  [[nodiscard]] const Circuit& circuit() const noexcept { return circuit_; }

  /// Eagerly re-derives device-bank lanes after a rebind pass (campaign
  /// sessions call this per sample so the refresh runs once, outside the
  /// Newton loop).  assemble() also syncs lazily, so calling this is an
  /// optimization, never a correctness requirement.  No-op on a circuit
  /// without MOSFETs.
  void syncDeviceBank();
  /// Number of banked MOSFET lanes (0 on a circuit without MOSFETs).
  [[nodiscard]] std::size_t deviceBankLaneCount() const noexcept {
    return bankSet_ != nullptr ? bankSet_->laneCount() : 0;
  }

  /// Switches the device-bank evaluation contract in place (rescue ladder's
  /// fast -> reference fallback).  A no-op when the mode is unchanged or
  /// the circuit has no MOSFETs.
  void setNumericsMode(models::NumericsMode numerics);
  [[nodiscard]] models::NumericsMode numericsMode() const noexcept {
    return bankSet_ != nullptr ? bankSet_->numerics()
                               : models::NumericsMode::reference;
  }

  // --- fault-injection seam (test-only, deterministic) -----------------------
  /// Installs the campaign's fault schedule; null disarms injection.
  void setFaultInjector(std::shared_ptr<const FaultInjector> injector) noexcept {
    injector_ = std::move(injector);
    faultArmed_ = false;
  }
  /// Arms scheduled faults for (sampleIndex, rescue attempt).  Campaign
  /// sessions call this per bind; outside a campaign no context is armed
  /// and assembly behaves exactly as before.
  void setSampleContext(std::size_t sampleIndex, int attempt) noexcept {
    faultSample_ = sampleIndex;
    faultAttempt_ = attempt;
    faultArmed_ = injector_ != nullptr && !injector_->empty();
  }
  void clearSampleContext() noexcept {
    faultArmed_ = false;
    faultSample_ = 0;
    faultAttempt_ = 0;
  }
  /// Rescue attempt of the armed sample context (0 outside a campaign):
  /// lets metric code consult FaultInjector::metricThrowAt correctly.
  [[nodiscard]] int sampleAttempt() const noexcept { return faultAttempt_; }

  // --- LoadContext backends ---------------------------------------------------
  [[nodiscard]] double nodeVoltage(NodeId node) const noexcept {
    return node == kGround ? 0.0
                           : (*x_)[static_cast<std::size_t>(node - 1)];
  }
  [[nodiscard]] double branchValue(int globalBranch) const noexcept {
    return (*x_)[numNodes_ + static_cast<std::size_t>(globalBranch)];
  }
  void stampCurrent(NodeId node, double i) noexcept {
    if (capturing_) return;
    if (node != kGround) residual_[static_cast<std::size_t>(node - 1)] += i;
  }
  void stampJacobian(NodeId node, NodeId other, double d) noexcept {
    if (node != kGround && other != kGround)
      addEntry(static_cast<std::size_t>(node - 1),
               static_cast<std::size_t>(other - 1), d);
  }
  void stampJacobianBranch(NodeId node, int globalBranch, double d) noexcept {
    if (node != kGround)
      addEntry(static_cast<std::size_t>(node - 1),
               numNodes_ + static_cast<std::size_t>(globalBranch), d);
  }
  void stampBranchResidual(int globalBranch, double f) noexcept {
    if (capturing_) return;
    residual_[numNodes_ + static_cast<std::size_t>(globalBranch)] += f;
  }
  void stampBranchJacobianV(int globalBranch, NodeId node, double d) noexcept {
    if (node != kGround)
      addEntry(numNodes_ + static_cast<std::size_t>(globalBranch),
               static_cast<std::size_t>(node - 1), d);
  }
  void stampBranchJacobianI(int globalBranch, int otherGlobalBranch,
                            double d) noexcept {
    addEntry(numNodes_ + static_cast<std::size_t>(globalBranch),
             numNodes_ + static_cast<std::size_t>(otherGlobalBranch), d);
  }
  void recordCharge(int globalSlot, double q) noexcept {
    chargeNow_[static_cast<std::size_t>(globalSlot)] = q;
  }
  [[nodiscard]] double companionCurrent(int globalSlot, double q) const noexcept {
    if (c0_ == 0.0) return 0.0;
    return c0_ * q + histTerm_[static_cast<std::size_t>(globalSlot)];
  }
  [[nodiscard]] double c0() const noexcept { return c0_; }
  [[nodiscard]] double timeNow() const noexcept { return time_; }
  [[nodiscard]] double scaleNow() const noexcept { return sourceScale_; }
  [[nodiscard]] bool capturing() const noexcept { return capturing_; }

 private:
  void capturePattern();
  void scatterBankedLane(const DeviceBankGroup& grp, std::size_t lane) noexcept;
  /// NaN/Inf guard over every evaluated bank lane; throws NonFiniteError
  /// naming the numerics mode and lane on the first bad value.
  void checkBankLanesFinite() const;

  void addEntry(std::size_t row, std::size_t col, double d) noexcept {
    if (capturing_) {
      coords_.emplace_back(row, col);
      return;
    }
    const std::int32_t s = pattern_.slot(row, col);
    if (s < 0) {
      patternMiss_ = true;  // diagnosed (with a throw) at the end of assemble()
      return;
    }
    values_.addAt(s, d);
  }

  const Circuit& circuit_;
  std::size_t numNodes_;
  std::size_t numUnknowns_;
  linalg::SparsePattern pattern_;
  linalg::SparseMatrix values_;
  std::vector<std::int32_t> gminSlots_;  ///< node-diagonal slots
  linalg::Vector residual_;
  std::vector<double> chargeNow_;
  std::vector<double> chargePrev_;
  std::vector<double> histTerm_;
  NewtonWorkspace workspace_;
  std::unique_ptr<DeviceBankSet> bankSet_;  ///< null without MOSFETs
  std::vector<std::pair<std::size_t, std::size_t>> coords_;  ///< capture only
  const linalg::Vector* x_ = nullptr;
  double c0_ = 0.0;
  double time_ = 0.0;
  double sourceScale_ = 1.0;
  double gmin_ = 0.0;
  bool capturing_ = false;
  bool patternMiss_ = false;
  // Fault-injection state (campaign tests only; inert by default).
  std::shared_ptr<const FaultInjector> injector_;
  std::size_t faultSample_ = 0;
  int faultAttempt_ = 0;
  bool faultArmed_ = false;
};

}  // namespace vsstat::spice::detail

#endif  // VSSTAT_SPICE_ASSEMBLER_HPP
