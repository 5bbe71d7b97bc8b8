#include "spice/session.hpp"

#include <algorithm>
#include <cmath>

#include "spice/assembler.hpp"
#include "spice/elements.hpp"
#include "spice/solver_core.hpp"
#include "util/error.hpp"

namespace vsstat::spice {

namespace {

/// Restores the swept source's waveform on scope exit: a level that fails
/// to converge must not leave a persistent session's stimulus pinned at
/// the failing DC level for later analyses.
class SweepSourceGuard {
 public:
  explicit SweepSourceGuard(VoltageSourceElement& source)
      : source_(source), original_(source.waveform()) {}
  ~SweepSourceGuard() { source_.setWaveform(original_); }
  SweepSourceGuard(const SweepSourceGuard&) = delete;
  SweepSourceGuard& operator=(const SweepSourceGuard&) = delete;

 private:
  VoltageSourceElement& source_;
  SourceWaveform original_;
};

}  // namespace

SimSession::SimSession(Circuit& circuit, SessionOptions options)
    : circuit_(&circuit),
      assembler_(std::make_unique<detail::Assembler>(
          circuit, options.numerics, options.solver)),
      solverMode_(options.solver),
      tier_(options.tier) {
  if (options.faultInjector) {
    assembler_->setFaultInjector(std::move(options.faultInjector));
  }
  if (solverMode_ == linalg::SolverMode::reusePivot) primePivotReuse();
}

SimSession::~SimSession() = default;

void SimSession::syncDeviceBank() { assembler_->syncDeviceBank(); }

std::size_t SimSession::deviceBankLaneCount() const noexcept {
  return assembler_->deviceBankLaneCount();
}

SimSession::SolverTelemetry SimSession::solverTelemetry() const noexcept {
  const detail::NewtonWorkspace& ws = assembler_->workspace();
  const linalg::SparseLu& lu = ws.lu;
  return SolverTelemetry{lu.fullFactorCount(),
                         lu.fastRefactorCount(),
                         lu.pivotFallbackCount(),
                         lu.hasPivotSnapshot(),
                         lu.patternNonZeroCount(),
                         lu.factorNonZeroCount(),
                         lu.fillRatio(),
                         lu.orderingMicros(),
                         lu.fullFactorMicros(),
                         ws.report};
}

void SimSession::setSolverMode(linalg::SolverMode mode) {
  if (mode == solverMode_) return;
  solverMode_ = mode;
  assembler_->workspace().lu.setSolverMode(mode);
  // Returning to reusePivot after a fresh-mode rescue retry finds the
  // canonical snapshot still in place (reset() never drops it); priming
  // only runs for a session that was never primed at all.
  if (mode == linalg::SolverMode::reusePivot &&
      !assembler_->workspace().lu.hasPivotSnapshot()) {
    primePivotReuse();
  }
}

void SimSession::setNumericsMode(models::NumericsMode numerics) {
  assembler_->setNumericsMode(numerics);
}

models::NumericsMode SimSession::numericsMode() const noexcept {
  return assembler_->numericsMode();
}

void SimSession::setSampleContext(std::size_t sampleIndex,
                                  int attempt) noexcept {
  assembler_->setSampleContext(sampleIndex, attempt);
}

void SimSession::clearSampleContext() noexcept {
  assembler_->clearSampleContext();
}

int SimSession::sampleAttempt() const noexcept {
  return assembler_->sampleAttempt();
}

DcOptions SimSession::applyEffort(const DcOptions& options) const noexcept {
  DcOptions adjusted = options;
  adjusted.newton = applyEffort(options.newton);
  return adjusted;
}

NewtonOptions SimSession::applyEffort(
    const NewtonOptions& options) const noexcept {
  NewtonOptions adjusted = options;
  adjusted.maxIterations = options.maxIterations * effort_.iterationMultiplier;
  adjusted.maxUpdate = options.maxUpdate * effort_.maxUpdateScale;
  if (tier_ == ToleranceTier::statistical) {
    // Estimator contract: a 10x looser stationarity test (1e-6 V / 1e-8 A
    // at the defaults) leaves the per-solve error orders of magnitude
    // below one Monte Carlo standard error of any campaign estimator
    // (SNM/delay sigmas are mV-scale).  Looser than this and the bistable
    // sweeps (SRAM hold SNM) start accepting points off the tracked
    // branch, which corrupts the butterfly eye -- measured, not
    // hypothetical.
    adjusted.voltageTolerance = options.voltageTolerance * 10.0;
    adjusted.residualTolerance = options.residualTolerance * 10.0;
  }
  return adjusted;
}

void SimSession::clearWarmStarts() noexcept {
  for (WarmSlot& slot : warmSlots_) slot.valid = false;
  warmCursor_ = 0;
}

SimSession::WarmSlot* SimSession::nextWarmSlot() {
  if (tier_ != ToleranceTier::statistical) return nullptr;
  if (warmCursor_ >= warmSlots_.size()) warmSlots_.emplace_back();
  return &warmSlots_[warmCursor_++];
}

void SimSession::noteSolve(int iterations, bool warmSeeded,
                           bool opportunity) noexcept {
  ++iterTelemetry_.solves;
  iterTelemetry_.newtonIterations += static_cast<std::uint64_t>(
      iterations > 0 ? iterations : 0);
  if (opportunity) {
    ++iterTelemetry_.warmStartOpportunities;
    if (warmSeeded) ++iterTelemetry_.warmStartHits;
  }
}

void SimSession::resetNumerics() noexcept {
  linalg::SparseLu& lu = assembler_->workspace().lu;
  if (solverMode_ == linalg::SolverMode::reusePivot) {
    lu.restorePivotSnapshot();
  } else {
    lu.reset();
  }
}

void SimSession::primePivotReuse() {
  detail::Assembler& assembler = *assembler_;
  linalg::SparseLu& lu = assembler.workspace().lu;
  if (circuit_->unknownCount() == 0) return;  // nothing to factor, ever

  // Canonical order from the as-built circuit at the zero iterate -- the
  // exact state a fresh-mode solve's first Newton iteration would pivot on.
  // Campaign workers build their fixtures identically (same builder, same
  // provider seed), so every session primes the same order, which is what
  // keeps reuse-mode campaigns independent of sample-to-session scheduling.
  const linalg::Vector zero(circuit_->unknownCount(), 0.0);
  assembler.setDcMode();
  assembler.setTime(0.0);
  assembler.setSourceScale(1.0);
  // A zero-iterate MNA Jacobian can be singular at exact zero gmin (off
  // pass transistors isolate nodes); retry under the homotopy ladder's
  // first shunt before giving up -- the shunt only perturbs diagonal
  // values, and pivot ORDER is all the snapshot keeps.
  for (const double gmin : {0.0, 1e-2}) {
    assembler.setGmin(gmin);
    assembler.assemble(zero);
    try {
      lu.refactorReusingPivots(assembler.jacobian());
      lu.snapshotPivotOrder();
      break;
    } catch (const ConvergenceError&) {
      // Singular at this gmin: try the next, or leave the session unprimed
      // (solves fall back to fresh per-solve pivoting, deterministically).
    }
  }
  assembler.setGmin(0.0);
  assembler.setDcMode();
}

OperatingPoint SimSession::dcOperatingPoint(const DcOptions& options) {
  WarmSlot* slot = nextWarmSlot();
  if (slot == nullptr) {
    OperatingPoint zeroGuess;
    return dcOperatingPoint(zeroGuess, options);
  }
  // Statistical tier: seed Newton from the previous sample's converged
  // operating point (same topology, slightly different device cards) when
  // the slot holds one; the homotopy ladder still backs a failed warm
  // solve, so robustness matches the cold path.
  resetNumerics();
  const DcOptions effective = applyEffort(options);
  linalg::Vector x(circuit_->unknownCount(), 0.0);
  const bool seeded = slot->valid && slot->x.size() == x.size();
  if (seeded) x = slot->x;
  const bool ok = detail::dcSolveLadder(*assembler_, x, effective);
  SolveReport& report = assembler_->workspace().report;
  report.warmStarted = seeded;
  noteSolve(report.iterations, seeded, /*opportunity=*/true);
  if (!ok) {
    slot->valid = false;
    detail::throwSolveFailure(report,
                              "SimSession::dcOperatingPoint: no convergence",
                              effective.newton.maxIterations);
  }
  slot->x = x;
  slot->valid = true;
  return detail::packSolution(*circuit_, x);
}

OperatingPoint SimSession::dcOperatingPoint(const OperatingPoint& guess,
                                            const DcOptions& options) {
  resetNumerics();
  const DcOptions effective = applyEffort(options);
  linalg::Vector x = detail::unpackGuess(*circuit_, guess);
  const bool ok = detail::dcSolveLadder(*assembler_, x, effective);
  noteSolve(assembler_->workspace().report.iterations, false,
            /*opportunity=*/false);
  if (!ok) {
    detail::throwSolveFailure(assembler_->workspace().report,
                              "SimSession::dcOperatingPoint: no convergence",
                              effective.newton.maxIterations);
  }
  return detail::packSolution(*circuit_, x);
}

std::vector<OperatingPoint> SimSession::dcSweep(
    const std::string& sourceName, const std::vector<double>& levels,
    const DcOptions& options) {
  VoltageSourceElement& src = circuit_->voltageSource(sourceName);
  const SweepSourceGuard restore(src);

  std::vector<OperatingPoint> result;
  result.reserve(levels.size());
  OperatingPoint guess;
  for (double level : levels) {
    src.setDcLevel(level);
    guess = result.empty() ? dcOperatingPoint(options)
                           : dcOperatingPoint(guess, options);
    result.push_back(guess);
  }
  return result;
}

void SimSession::dcSweepNode(const std::string& sourceName,
                             const std::vector<double>& levels,
                             NodeId probeNode, std::vector<double>& out,
                             const DcOptions& options) {
  VoltageSourceElement& src = circuit_->voltageSource(sourceName);
  const SweepSourceGuard restore(src);

  out.clear();
  out.reserve(levels.size());
  // The iterate persists across levels: handing level k's solution to
  // level k+1 directly is exactly the pack/unpack round trip dcSweep
  // performs (a straight copy), so the Newton trajectories -- and the
  // probed voltages -- are bit-identical to dcSweep's.
  //
  // Statistical tier: level 0 seeds from the previous sample's level-0
  // solution (warm slot), and level k+1 seeds from a linear (two converged
  // levels) or quadratic (three or more) extrapolation of the most recent
  // converged states instead of a plain copy -- the sweep-level warm start
  // that removes most of the per-level Newton polish.  When the slot also
  // carries the previous sample's full level trajectory on the SAME level
  // grid, each level instead seeds from that sample's converged state at
  // the same level plus this sample's running offset -- the sweep analogue
  // of the transient trajectory warm start, and the only predictor that
  // stays sharp through the steep VTC transition where extrapolation along
  // the sweep overshoots.  The predictors only move the first iterate; the
  // ladder and tolerances still decide convergence.
  WarmSlot* slot = nextWarmSlot();
  sweepX_.resize(circuit_->unknownCount());
  std::fill(sweepX_.begin(), sweepX_.end(), 0.0);  // level 0: zero guess
  const bool seeded =
      slot != nullptr && slot->valid && slot->x.size() == sweepX_.size();
  if (seeded) sweepX_ = slot->x;
  const TransientTrajectory* ref =
      seeded && slot->traj.usableFor(sweepX_.size()) &&
              slot->traj.times.size() == levels.size()
          ? &slot->traj
          : nullptr;
  if (slot != nullptr) trajScratch_.beginRecording();
  const DcOptions effective = applyEffort(options);
  std::size_t converged = 0;  // levels converged so far (statistical tier)
  double levelK = 0.0;    // converged level values: L_k,
  double levelKm1 = 0.0;  //   L_{k-1},
  double levelKm2 = 0.0;  //   L_{k-2}
  for (double level : levels) {
    // Predictor: writes the level-(k+1) guess into sweepPrev2X_ (whose
    // x_{k-2} payload is rotating out anyway), then rotates the buffers so
    // sweepX_ holds the guess/iterate, sweepPrevX_ the converged x_k, and
    // sweepPrev2X_ the converged x_{k-1} -- allocation-free.
    bool predicted = false;
    const bool refLevel = ref != nullptr && ref->times[converged] == level;
    if (slot != nullptr && converged >= 3) {
      // Quadratic Lagrange extrapolation through (L_k, x_k),
      // (L_{k-1}, x_{k-1}), (L_{k-2}, x_{k-2}); on the uniform grids the
      // measurement loops use the coefficients are the classic 3/-3/1.
      const double dA = (levelK - levelKm1) * (levelK - levelKm2);
      const double dB = (levelKm1 - levelK) * (levelKm1 - levelKm2);
      const double dC = (levelKm2 - levelK) * (levelKm2 - levelKm1);
      if (std::fabs(dA) > 1e-300 && std::fabs(dB) > 1e-300 &&
          std::fabs(dC) > 1e-300) {
        const double cK = (level - levelKm1) * (level - levelKm2) / dA;
        const double cKm1 = (level - levelK) * (level - levelKm2) / dB;
        const double cKm2 = (level - levelK) * (level - levelKm1) / dC;
        // Only trust the parabola near the uniform-grid regime; wildly
        // nonuniform grids fall back to the linear predictor below.
        if (std::fabs(cK) <= 6.0 && std::fabs(cKm1) <= 6.0 &&
            std::fabs(cKm2) <= 6.0) {
          for (std::size_t i = 0; i < sweepX_.size(); ++i)
            sweepPrev2X_[i] = cK * sweepX_[i] + cKm1 * sweepPrevX_[i] +
                              cKm2 * sweepPrev2X_[i];
          if (refLevel) {
            // Reference correction: add the previous sample's deviation
            // from ITS OWN quadratic extrapolation at this level.  The
            // parabola error is dominated by the curve's third derivative,
            // which two adjacent samples share almost exactly -- so the
            // corrected guess tracks even the steep VTC transition, where
            // the bare parabola overshoots.
            const linalg::Vector& r0 = ref->states[converged];
            const linalg::Vector& r1 = ref->states[converged - 1];
            const linalg::Vector& r2 = ref->states[converged - 2];
            const linalg::Vector& r3 = ref->states[converged - 3];
            for (std::size_t i = 0; i < sweepX_.size(); ++i)
              sweepPrev2X_[i] +=
                  r0[i] - (cK * r1[i] + cKm1 * r2[i] + cKm2 * r3[i]);
          }
          predicted = true;
        }
      }
    }
    if (!predicted && refLevel && converged >= 1) {
      // Too early in the sweep for the parabola: seed from the previous
      // sample's state at this level plus this sample's running offset.
      sweepPrev2X_.resize(sweepX_.size());
      const linalg::Vector& refHere = ref->states[converged];
      const linalg::Vector& refPrev = ref->states[converged - 1];
      for (std::size_t i = 0; i < sweepX_.size(); ++i)
        sweepPrev2X_[i] = refHere[i] + (sweepX_[i] - refPrev[i]);
      predicted = true;
    }
    if (slot != nullptr && !predicted && converged >= 2) {
      const double dPrev = levelK - levelKm1;
      double ratio = std::fabs(dPrev) > 1e-300 ? (level - levelK) / dPrev
                                               : 0.0;
      // Clamp the extrapolation on wildly nonuniform grids; ratio = 1 on
      // uniform sweeps.
      ratio = std::clamp(ratio, -2.0, 2.0);
      sweepPrev2X_.resize(sweepX_.size());
      for (std::size_t i = 0; i < sweepX_.size(); ++i)
        sweepPrev2X_[i] =
            sweepX_[i] + ratio * (sweepX_[i] - sweepPrevX_[i]);
      predicted = true;
    }
    if (predicted) {
      sweepPrev2X_.swap(sweepX_);      // sweepX_ = guess, prev2 = x_k
      sweepPrevX_.swap(sweepPrev2X_);  // prev = x_k, prev2 = x_{k-1}
    } else if (slot != nullptr && converged == 1) {
      sweepPrevX_ = sweepX_;  // stash level 0; guess stays the plain copy
      sweepPrev2X_.resize(sweepX_.size());
    }
    src.setDcLevel(level);
    resetNumerics();
    const bool ok = detail::dcSolveLadder(*assembler_, sweepX_, effective);
    SolveReport& report = assembler_->workspace().report;
    report.warmStarted = slot != nullptr && (converged > 0 || seeded);
    noteSolve(report.iterations, converged == 0 && seeded,
              /*opportunity=*/slot != nullptr && converged == 0);
    if (!ok) {
      if (slot != nullptr) slot->valid = false;
      detail::throwSolveFailure(report,
                                "SimSession::dcSweepNode: no convergence",
                                effective.newton.maxIterations);
    }
    if (slot != nullptr) {
      if (converged == 0) {
        slot->x = sweepX_;
        slot->valid = true;
      }
      trajScratch_.append(level, sweepX_);
      levelKm2 = levelKm1;
      levelKm1 = levelK;
      levelK = level;
      ++converged;
    }
    out.push_back(probeNode == kGround
                      ? 0.0
                      : sweepX_[static_cast<std::size_t>(probeNode - 1)]);
  }
  // Hand the full level trajectory to the next sample on this warm chain
  // (buffers recycle through the scratch recorder, so the steady-state
  // campaign records allocation-free).
  if (slot != nullptr) slot->traj.swap(trajScratch_);
}

Waveform SimSession::transient(const TransientOptions& options) {
  Waveform wave(circuit_->nodeCount());
  transient(options, wave);
  return wave;
}

void SimSession::transient(const TransientOptions& options, Waveform& out) {
  resetNumerics();
  TransientOptions effective = options;
  effective.newton = applyEffort(options.newton);
  effective.dcOptions = applyEffort(options.dcOptions);
  if (tier_ == ToleranceTier::statistical) {
    // Statistical tier: half the time resolution.  Trapezoidal LTE is
    // O(h^2) -- a 2x step turns fs-scale truncation error into 4x fs-scale,
    // still orders of magnitude below the mV/ps Monte Carlo standard
    // errors the tier's estimator contract is stated against, and it
    // halves the dominant per-sample cost (assemble+factor per step).
    // Step halving keeps the same dtMin recovery floor.
    effective.dt = options.dt * 2.0;
  }
  WarmSlot* slot = nextWarmSlot();
  detail::TransientControls controls;
  bool seeded = false;
  if (slot != nullptr) {
    controls.predictiveSteps = true;
    seeded = slot->valid && slot->x.size() == circuit_->unknownCount();
    if (seeded) controls.dcWarmStart = &slot->x;
    // The converged t = 0 DC state lands straight in the slot; `valid`
    // only flips once the whole transient succeeds.
    controls.dcSolutionOut = &slot->x;
    // Previous sample's accepted waveform seeds every step; this run's
    // waveform is recorded into the scratch and swapped in on success, so
    // a failed run never leaves a half-trajectory as the next reference.
    if (seeded && slot->traj.usableFor(circuit_->unknownCount()))
      controls.trajectoryIn = &slot->traj;
    controls.trajectoryOut = &trajScratch_;
    slot->valid = false;
  }
  try {
    detail::runTransient(*assembler_, effective, out, controls);
  } catch (...) {
    noteSolve(assembler_->workspace().report.iterations, seeded,
              /*opportunity=*/slot != nullptr);
    throw;
  }
  SolveReport& report = assembler_->workspace().report;
  report.warmStarted = seeded;
  noteSolve(report.iterations, seeded, /*opportunity=*/slot != nullptr);
  if (slot != nullptr) {
    slot->traj.swap(trajScratch_);
    slot->valid = true;
  }
}

}  // namespace vsstat::spice
