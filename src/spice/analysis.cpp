#include "spice/analysis.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/matrix.hpp"
#include "spice/assembler.hpp"
#include "spice/elements.hpp"
#include "spice/solver_core.hpp"
#include "util/error.hpp"

namespace vsstat::spice {

// --- LoadContext forwarding ------------------------------------------------------

double LoadContext::v(NodeId node) const noexcept {
  return assembler_->nodeVoltage(node);
}
double LoadContext::branchCurrent(int localBranch) const noexcept {
  return assembler_->branchValue(branchBase_ + localBranch);
}
double LoadContext::time() const noexcept { return assembler_->timeNow(); }
double LoadContext::sourceScale() const noexcept {
  return assembler_->scaleNow();
}
void LoadContext::addCurrent(NodeId node, double i) noexcept {
  assembler_->stampCurrent(node, i);
}
void LoadContext::addJacobian(NodeId node, NodeId other, double didv) noexcept {
  assembler_->stampJacobian(node, other, didv);
}
void LoadContext::addJacobianBranch(NodeId node, int localBranch,
                                    double d) noexcept {
  assembler_->stampJacobianBranch(node, branchBase_ + localBranch, d);
}
void LoadContext::addBranchResidual(int localBranch, double f) noexcept {
  assembler_->stampBranchResidual(branchBase_ + localBranch, f);
}
void LoadContext::addBranchJacobianV(int localBranch, NodeId node,
                                     double d) noexcept {
  assembler_->stampBranchJacobianV(branchBase_ + localBranch, node, d);
}
void LoadContext::addBranchJacobianI(int localBranch, int otherLocalBranch,
                                     double d) noexcept {
  assembler_->stampBranchJacobianI(branchBase_ + localBranch,
                                   branchBase_ + otherLocalBranch, d);
}
void LoadContext::setCharge(int localSlot, double q) noexcept {
  assembler_->recordCharge(chargeBase_ + localSlot, q);
}
double LoadContext::chargeCurrent(int localSlot, double q) const noexcept {
  return assembler_->companionCurrent(chargeBase_ + localSlot, q);
}
double LoadContext::chargeGain() const noexcept { return assembler_->c0(); }
bool LoadContext::capturing() const noexcept {
  return assembler_->capturing();
}

// --- Newton core (shared with SimSession via solver_core.hpp) ------------------

namespace detail {

/// The iteration is allocation-free: the assembler writes into its captured
/// sparsity pattern and the per-assembler NewtonWorkspace supplies the
/// reusable factorization and step buffer.
///
/// Diagnostics accumulate into the workspace SolveReport (iterations,
/// residual, singular/non-finite flags); the report is reset by the solve
/// entry points (dcSolveLadder / runTransient), not here, so homotopy rungs
/// add up.  Non-finite numerics bail out immediately with x unchanged --
/// wasting the remaining iteration budget on NaN would only corrupt the
/// iterate the next homotopy rung starts from.  Samples whose residuals
/// stay finite (every previously-passing sample) take the exact same
/// floating-point path as before.
bool newtonSolve(Assembler& assembler, linalg::Vector& x,
                 const NewtonOptions& options) {
  const std::size_t numNodes = assembler.numNodes();
  detail::NewtonWorkspace& ws = assembler.workspace();
  SolveReport& report = ws.report;
  for (int iter = 0; iter < options.maxIterations; ++iter) {
    try {
      assembler.assemble(x);
    } catch (const NonFiniteError&) {
      // Device evaluation produced NaN/Inf (bank seam guard): classified,
      // recorded, and handed to the homotopy ladder / rescue ladder.
      report.sawNonFinite = true;
      return false;
    }
    ++report.iterations;

    double residualNorm = 0.0;
    bool residualFinite = true;
    for (double f : assembler.residual()) {
      // NB: NaN is invisible to a bare std::max (the comparison is false),
      // so finiteness is tracked explicitly.
      if (!std::isfinite(f)) residualFinite = false;
      residualNorm = std::max(residualNorm, std::fabs(f));
    }
    report.finalResidual = residualNorm;
    if (!residualFinite) {
      report.sawNonFinite = true;
      return false;
    }

    std::copy(assembler.residual().begin(), assembler.residual().end(),
              ws.dx.begin());
    try {
      ws.lu.refactor(assembler.jacobian());
    } catch (const ConvergenceError&) {
      // Singular Jacobian: let the homotopy ladder handle it.
      report.sawSingular = true;
      return false;
    }
    ws.lu.solveInPlace(ws.dx);

    // Newton update is x -= J^{-1} F; clamp by the largest voltage move.
    double maxVoltageStep = 0.0;
    for (std::size_t n = 0; n < numNodes; ++n)
      maxVoltageStep = std::max(maxVoltageStep, std::fabs(ws.dx[n]));
    if (!std::isfinite(maxVoltageStep)) {
      // An Inf-contaminated factorization can pass the pivot checks yet
      // produce a non-finite step; bail before poisoning x.
      report.sawNonFinite = true;
      return false;
    }

    if (maxVoltageStep < options.voltageTolerance &&
        residualNorm < options.residualTolerance) {
      return true;  // assembly state matches x exactly; skip the sub-tol step
    }

    double scaleFactor = 1.0;
    if (maxVoltageStep > options.maxUpdate)
      scaleFactor = options.maxUpdate / maxVoltageStep;
    for (std::size_t i = 0; i < x.size(); ++i) x[i] -= scaleFactor * ws.dx[i];
  }
  return false;
}

void throwSolveFailure(const SolveReport& report, const std::string& what,
                       int iterations) {
  switch (report.outcome) {
    case SolveOutcome::nonFinite:
      throw NonFiniteError(what + " (non-finite numerics)");
    case SolveOutcome::singular:
      throw SingularMatrixError(what, iterations);
    default:
      throw ConvergenceError(what, iterations);
  }
}

OperatingPoint packSolution(const Circuit& circuit, const linalg::Vector& x) {
  OperatingPoint op;
  const std::size_t numNodes = circuit.nodeCount() - 1;
  op.nodeVoltages.assign(circuit.nodeCount(), 0.0);
  for (std::size_t n = 0; n < numNodes; ++n) op.nodeVoltages[n + 1] = x[n];
  op.branchCurrents.assign(static_cast<std::size_t>(circuit.branchTotal()),
                           0.0);
  for (std::size_t b = 0; b < op.branchCurrents.size(); ++b)
    op.branchCurrents[b] = x[numNodes + b];
  return op;
}

linalg::Vector unpackGuess(const Circuit& circuit, const OperatingPoint& op) {
  linalg::Vector x(circuit.unknownCount(), 0.0);
  const std::size_t numNodes = circuit.nodeCount() - 1;
  if (op.nodeVoltages.size() == circuit.nodeCount()) {
    for (std::size_t n = 0; n < numNodes; ++n) x[n] = op.nodeVoltages[n + 1];
  }
  if (op.branchCurrents.size() ==
      static_cast<std::size_t>(circuit.branchTotal())) {
    for (std::size_t b = 0; b < op.branchCurrents.size(); ++b)
      x[numNodes + b] = op.branchCurrents[b];
  }
  return x;
}

bool dcSolveLadder(Assembler& assembler, linalg::Vector& x,
                   const DcOptions& options) {
  SolveReport& report = assembler.workspace().report;
  report.reset();
  const std::uint64_t fallbacksAtEntry =
      assembler.workspace().lu.pivotFallbackCount();
  const auto finish = [&](bool ok) {
    report.pivotFallbacks =
        assembler.workspace().lu.pivotFallbackCount() - fallbacksAtEntry;
    if (ok) {
      report.outcome = SolveOutcome::ok;
    } else if (report.sawNonFinite) {
      report.outcome = SolveOutcome::nonFinite;
    } else if (report.sawSingular) {
      report.outcome = SolveOutcome::singular;
    } else {
      report.outcome = SolveOutcome::nonConvergence;
    }
    return ok;
  };

  assembler.setDcMode();
  assembler.setTime(0.0);
  assembler.setSourceScale(1.0);
  assembler.setGmin(0.0);
  report.homotopyRung = kRungPlainNewton;
  if (newtonSolve(assembler, x, options.newton)) return finish(true);

  // Homotopies keep a gmin floor: a truly floating node (capacitor-only,
  // or isolated by off pass-transistors) leaves the exact-zero-gmin
  // Jacobian singular, and the 1e-12 S floor perturbs node voltages far
  // below the solver tolerances.
  constexpr double kGminFloor = 1e-12;

  // Homotopy trial iterate: workspace scratch (re-initialized to exactly
  // the values a fresh local would hold), so a failed plain Newton does
  // not allocate on persistent sessions.
  linalg::Vector& xTrial = assembler.workspace().xHomotopy;

  if (options.gminStepping) {
    report.homotopyRung = kRungGminStepping;
    xTrial.assign(x.begin(), x.end());
    bool ok = true;
    for (double gmin = 1e-2; gmin >= kGminFloor; gmin *= 0.1) {
      assembler.setGmin(gmin);
      if (!newtonSolve(assembler, xTrial, options.newton)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      x = xTrial;
      return finish(true);
    }
  }

  if (options.sourceStepping) {
    report.homotopyRung = kRungSourceStepping;
    xTrial.assign(x.size(), 0.0);
    assembler.setGmin(1e-9);
    bool ok = true;
    for (int step = 1; step <= 20; ++step) {
      assembler.setSourceScale(static_cast<double>(step) / 20.0);
      if (!newtonSolve(assembler, xTrial, options.newton)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      assembler.setSourceScale(1.0);
      assembler.setGmin(kGminFloor);
      if (newtonSolve(assembler, xTrial, options.newton)) {
        x = xTrial;
        return finish(true);
      }
    }
  }
  return finish(false);
}

void runTransient(Assembler& assembler, const TransientOptions& options,
                  Waveform& wave, const TransientControls& controls) {
  require(options.tStop > 0.0 && options.dt > 0.0,
          "transient: tStop and dt must be positive");
  const Circuit& circuit = assembler.circuit();
  NewtonWorkspace& ws = assembler.workspace();

  // t = 0 operating point.  Scratch buffers live in the workspace and are
  // re-initialized to the exact values a fresh run would construct, so
  // reuse never changes numerics.
  linalg::Vector& x = ws.xTransient;
  if (controls.dcWarmStart != nullptr &&
      controls.dcWarmStart->size() == circuit.unknownCount()) {
    x = *controls.dcWarmStart;
  } else {
    x.assign(circuit.unknownCount(), 0.0);
  }
  const std::uint64_t fallbacksAtEntry = ws.lu.pivotFallbackCount();
  if (!dcSolveLadder(assembler, x, options.dcOptions)) {
    throwSolveFailure(ws.report, "transient: DC operating point failed",
                      options.dcOptions.newton.maxIterations);
  }
  if (controls.dcSolutionOut != nullptr) *controls.dcSolutionOut = x;

  // The DC solve left the assembler's charge state consistent with x;
  // commit it as the t = 0 history.
  assembler.commitCharges();
  std::vector<double>& slotCurrents = ws.slotCurrents;
  slotCurrents.assign(static_cast<std::size_t>(circuit.chargeSlotTotal()),
                      0.0);

  wave.reset(circuit.nodeCount());
  std::vector<double>& sample = ws.sampleBuf;
  sample.assign(circuit.nodeCount(), 0.0);
  const std::size_t numNodes = circuit.nodeCount() - 1;
  const auto record = [&](double t) {
    for (std::size_t n = 0; n < numNodes; ++n) sample[n + 1] = x[n];
    wave.addSample(t, sample);
  };
  record(0.0);

  double t = 0.0;
  bool firstStep = true;
  linalg::Vector& xTrial = ws.xTrial;  // hoisted: reused across steps
  xTrial.assign(x.size(), 0.0);
  // Statistical-tier step predictor state: the previous ACCEPTED state and
  // step size, for the linear extrapolation of the next trial iterate.
  linalg::Vector& xPrev = ws.xPrevStep;
  double hPrev = 0.0;
  bool havePrev = false;
  if (controls.predictiveSteps) xPrev.assign(x.size(), 0.0);

  // Sample-to-sample trajectory warm start: the previous sample's accepted
  // waveform, interpolated at any query time.  Fixed-dt runs align
  // step-for-step; halving retries only shift the interpolation weights.
  const TransientTrajectory* traj = controls.trajectoryIn;
  if (traj != nullptr && !traj->usableFor(x.size())) traj = nullptr;
  const auto trajSegment = [traj](double tq, std::size_t& j, double& alpha) {
    const std::vector<double>& ts = traj->times;
    if (tq <= ts.front()) {
      j = 0;
      alpha = 0.0;
    } else if (tq >= ts.back()) {
      j = ts.size() - 2;
      alpha = 1.0;
    } else {
      j = static_cast<std::size_t>(
              std::upper_bound(ts.begin(), ts.end(), tq) - ts.begin()) -
          1;
      j = std::min(j, ts.size() - 2);
      alpha = (tq - ts[j]) / (ts[j + 1] - ts[j]);
    }
  };
  if (controls.trajectoryOut != nullptr) {
    controls.trajectoryOut->beginRecording();
    controls.trajectoryOut->append(0.0, x);
  }
  while (t < options.tStop - 1e-18) {
    double h = std::min(options.dt, options.tStop - t);

    // Step with halving recovery; fall back to BE on retries (sturdier
    // against the corner where trapezoidal rings on a hard nonlinearity).
    bool accepted = false;
    for (int attempt = 0; attempt < 12; ++attempt) {
      const double tNext = t + h;
      assembler.setTime(tNext);
      if (firstStep || attempt > 0) {
        assembler.setBackwardEuler(h);
      } else {
        assembler.setTrapezoidal(h, slotCurrents);
      }
      if (traj != nullptr && attempt == 0) {
        // Reference-waveform predictor: previous sample's state at tNext
        // plus this sample's current offset from that reference.
        std::size_t j0, j1;
        double a0, a1;
        trajSegment(t, j0, a0);
        trajSegment(tNext, j1, a1);
        const linalg::Vector& lo0 = traj->states[j0];
        const linalg::Vector& hi0 = traj->states[j0 + 1];
        const linalg::Vector& lo1 = traj->states[j1];
        const linalg::Vector& hi1 = traj->states[j1 + 1];
        for (std::size_t i = 0; i < x.size(); ++i) {
          const double ref0 = lo0[i] + a0 * (hi0[i] - lo0[i]);
          const double ref1 = lo1[i] + a1 * (hi1[i] - lo1[i]);
          xTrial[i] = ref1 + (x[i] - ref0);
        }
      } else if (controls.predictiveSteps && havePrev && !firstStep &&
                 attempt == 0) {
        // First iterate from the linear history extrapolation; the Newton
        // clamp and the constant-predictor retries bound a bad guess.
        const double ratio = hPrev > 0.0 ? std::min(h / hPrev, 2.0) : 0.0;
        for (std::size_t i = 0; i < x.size(); ++i)
          xTrial[i] = x[i] + ratio * (x[i] - xPrev[i]);
      } else {
        xTrial = x;
      }
      if (newtonSolve(assembler, xTrial, options.newton)) {
        if (controls.predictiveSteps) {
          xPrev = x;
          hPrev = h;
          havePrev = true;
        }
        x = xTrial;
        // newtonSolve left the assembler's charge state consistent with x,
        // so the converged-iterate assembly is reused directly.
        assembler.slotCurrents(slotCurrents);
        assembler.commitCharges();
        t = tNext;
        record(t);
        if (controls.trajectoryOut != nullptr)
          controls.trajectoryOut->append(t, x);
        accepted = true;
        firstStep = false;
        break;
      }
      h *= 0.5;
      if (h < options.dtMin) break;
    }
    if (!accepted) {
      // The step retries accumulated flags into the workspace report (the
      // DC ladder reset it at t = 0); classify the terminal state before
      // throwing so campaigns count this sample under the right class.
      SolveReport& report = ws.report;
      report.pivotFallbacks = ws.lu.pivotFallbackCount() - fallbacksAtEntry;
      if (report.sawNonFinite) {
        report.outcome = SolveOutcome::nonFinite;
      } else if (report.sawSingular) {
        report.outcome = SolveOutcome::singular;
      } else {
        report.outcome = SolveOutcome::nonConvergence;
      }
      throwSolveFailure(report,
                        "transient: step failed at t = " + std::to_string(t),
                        options.newton.maxIterations);
    }
  }
  ws.report.outcome = SolveOutcome::ok;
  ws.report.pivotFallbacks = ws.lu.pivotFallbackCount() - fallbacksAtEntry;
}

Waveform runTransient(Assembler& assembler, const TransientOptions& options) {
  Waveform wave(assembler.circuit().nodeCount());
  runTransient(assembler, options, wave);
  return wave;
}

}  // namespace detail

OperatingPoint dcOperatingPoint(const Circuit& circuit,
                                const DcOptions& options) {
  OperatingPoint zeroGuess;
  return dcOperatingPoint(circuit, zeroGuess, options);
}

OperatingPoint dcOperatingPoint(const Circuit& circuit,
                                const OperatingPoint& guess,
                                const DcOptions& options) {
  detail::Assembler assembler(circuit);
  linalg::Vector x = detail::unpackGuess(circuit, guess);
  if (!detail::dcSolveLadder(assembler, x, options)) {
    detail::throwSolveFailure(assembler.workspace().report,
                              "dcOperatingPoint: no convergence",
                              options.newton.maxIterations);
  }
  return detail::packSolution(circuit, x);
}

double sourceCurrent(Circuit& circuit, const std::string& name,
                     const OperatingPoint& op) {
  const VoltageSourceElement& src = circuit.voltageSource(name);
  return op.branchCurrents[static_cast<std::size_t>(src.branchBase())];
}

std::vector<OperatingPoint> dcSweep(Circuit& circuit,
                                    const std::string& sourceName,
                                    const std::vector<double>& levels,
                                    const DcOptions& options) {
  VoltageSourceElement& src = circuit.voltageSource(sourceName);
  const SourceWaveform original = src.waveform();

  std::vector<OperatingPoint> result;
  result.reserve(levels.size());
  OperatingPoint guess;
  for (double level : levels) {
    src.setDcLevel(level);
    guess = result.empty() ? dcOperatingPoint(circuit, options)
                           : dcOperatingPoint(circuit, guess, options);
    result.push_back(guess);
  }
  src.setWaveform(original);
  return result;
}

Waveform transient(const Circuit& circuit, const TransientOptions& options) {
  // Thousands of assemblies on one assembler: banking amortizes in the
  // first few steps even for a one-shot run.
  detail::Assembler assembler(circuit);
  return detail::runTransient(assembler, options);
}

}  // namespace vsstat::spice
