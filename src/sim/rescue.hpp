// Deterministic solve-rescue ladder for campaign samples.
//
// When a sample's evaluation throws a SampleFailure, the campaign does not
// have to drop it outright: many failures are artifacts of the session's
// throughput configuration (a reused pivot order gone degenerate for this
// draw, a fast-numerics lane overflowing, a Newton clamp too generous for a
// stiff corner) rather than genuinely unsolvable circuits.  The rescue
// ladder retries the sample through an escalating sequence of rungs:
//
//   1. hardened Newton  -- 3x the iteration budget, 4x heavier damping
//      (the full gmin/source-stepping homotopy reruns on every rung; it is
//      built into every session solve);
//   2. fresh pivoting   -- only for reusePivot sessions: re-derive the
//      pivot order from this sample's own values;
//   3. reference numerics -- only for fast sessions: swap the vectorized
//      kernel chain out for the reference (libm) chain;
//   4. all of the above combined.
//
// Determinism contract: the ladder is indexed by SAMPLE, never by thread or
// schedule.  Every attempt rebinds from a copy of the sample's original RNG
// state (DeviceProvider draws replay exactly), the rung sequence depends
// only on the session's configuration, and every session-mode change is
// restored before the sample returns -- so campaign results stay
// bit-identical across thread counts and session assignments, with or
// without rescues.  Rescued samples report the rung that succeeded through
// mc::SampleContext::rescueAttempts; exhausted ladders rethrow the LAST
// failure (the most-escalated rung's classification).
#ifndef VSSTAT_SIM_RESCUE_HPP
#define VSSTAT_SIM_RESCUE_HPP

#include <algorithm>
#include <cstddef>
#include <exception>
#include <vector>

#include "mc/runner.hpp"
#include "sim/session.hpp"
#include "stats/rng.hpp"
#include "util/error.hpp"

namespace vsstat::sim {

/// Campaign-level rescue configuration.
struct RescuePolicy {
  /// Master switch.  Off reproduces the pre-ladder behavior exactly: the
  /// first SampleFailure drops the sample (still classified).
  bool enabled = true;
};

namespace detail {

/// One rung of the ladder: which escalations it applies on top of the
/// session's baseline configuration.
struct RescueRung {
  bool harden = false;            ///< 3x iterations, 0.25x update clamp
  bool freshPivot = false;        ///< override reusePivot with fresh
  bool referenceNumerics = false;  ///< override fast with reference
};

/// Extra Newton effort of hardened rungs.  3x budget covers slow-creeping
/// stiff corners; a 0.25x clamp quarters the per-iteration voltage move
/// (heavier damping), which is the classic fix for overshooting Newton on
/// exponential device characteristics.
inline constexpr spice::SimSession::SolveEffort kHardenedEffort{3, 0.25};

/// Builds the ladder for a session configuration.  Depends ONLY on the
/// session's baseline modes (identical for every worker), never on the
/// failure or the schedule, so every worker uses the same ladder.
inline std::vector<RescueRung> buildLadder(models::NumericsMode numerics,
                                           linalg::SolverMode solver) {
  const bool fast = numerics == models::NumericsMode::fast;
  const bool reuse = solver == linalg::SolverMode::reusePivot;
  std::vector<RescueRung> rungs;
  rungs.push_back(RescueRung{true, false, false});
  if (reuse) rungs.push_back(RescueRung{false, true, false});
  if (fast) rungs.push_back(RescueRung{false, false, true});
  if (reuse || fast) rungs.push_back(RescueRung{true, reuse, fast});
  return rungs;
}

/// Restores the session's baseline modes, effort, and sample context on
/// scope exit -- including on the rethrow path -- so the next sample this
/// session serves starts from exactly the state every other session has.
class SessionModeGuard {
 public:
  explicit SessionModeGuard(spice::SimSession& session)
      : session_(session),
        numerics_(session.numericsMode()),
        solver_(session.solverMode()),
        tier_(session.toleranceTier()) {}
  ~SessionModeGuard() {
    session_.setSolveEffort(spice::SimSession::SolveEffort{});
    session_.setNumericsMode(numerics_);
    session_.setSolverMode(solver_);
    session_.setToleranceTier(tier_);
    session_.clearSampleContext();
  }
  SessionModeGuard(const SessionModeGuard&) = delete;
  SessionModeGuard& operator=(const SessionModeGuard&) = delete;

 private:
  spice::SimSession& session_;
  models::NumericsMode numerics_;
  linalg::SolverMode solver_;
  spice::ToleranceTier tier_;
};

}  // namespace detail

/// Evaluates one campaign sample with rescue: binds the sample, runs `fn`,
/// and on SampleFailure walks the ladder, replaying the sample's draws from
/// `rngStart` on every attempt.  On success `ctx.rescueAttempts` holds the
/// number of retries consumed (0 = clean first attempt); on exhaustion the
/// last rung's failure is rethrown for the campaign runner to classify.
template <class Fixture, class Fn>
void runSampleWithRescue(std::size_t index, CampaignSession<Fixture>& session,
                         const stats::Rng& rngStart, std::vector<double>& out,
                         mc::SampleContext& ctx, const Fn& fn,
                         const RescuePolicy& policy = {}) {
  spice::SimSession& solver = session.spice();
  const detail::SessionModeGuard restoreModes(solver);
  const models::NumericsMode baseNumerics = solver.numericsMode();
  const linalg::SolverMode baseSolver = solver.solverMode();
  // Per-sample iteration telemetry: diffed across every attempt the sample
  // consumed (failed rungs included -- that is the sample's true cost), and
  // aggregated into McResult by mc::runCampaign.
  const spice::SimSession::IterationTelemetry itersAtEntry =
      solver.iterationTelemetry();
  const auto captureTelemetry = [&]() {
    const spice::SimSession::IterationTelemetry& now =
        solver.iterationTelemetry();
    ctx.newtonIterations = now.newtonIterations - itersAtEntry.newtonIterations;
    ctx.warmStartHits = now.warmStartHits - itersAtEntry.warmStartHits;
    ctx.warmStartOpportunities =
        now.warmStartOpportunities - itersAtEntry.warmStartOpportunities;
  };

  solver.setSampleContext(index, /*attempt=*/0);
  std::exception_ptr lastFailure;
  try {
    stats::Rng rng = rngStart;
    session.bindSample(rng);
    fn(index, session, rng, out);
    captureTelemetry();
    return;  // clean sample: zero mode changes, zero extra work
  } catch (const SampleFailure&) {
    // Statistical-tier state is sample-scoped: a failure voids the warm
    // chain (the next sample on this session cold-starts, deterministically
    // -- the rule depends only on the sample index sequence), and every
    // retry below runs the perSample contract so the ladder's escalations
    // behave identically in either tier.
    solver.clearWarmStarts();
    if (!policy.enabled) throw;
    lastFailure = std::current_exception();
  }

  solver.setToleranceTier(spice::ToleranceTier::perSample);
  const std::vector<detail::RescueRung> ladder =
      detail::buildLadder(baseNumerics, baseSolver);
  for (std::size_t r = 0; r < ladder.size(); ++r) {
    const detail::RescueRung& rung = ladder[r];
    const int attempt = static_cast<int>(r) + 1;
    solver.setSolveEffort(rung.harden ? detail::kHardenedEffort
                                      : spice::SimSession::SolveEffort{});
    solver.setSolverMode(rung.freshPivot ? linalg::SolverMode::fresh
                                         : baseSolver);
    solver.setNumericsMode(
        rung.referenceNumerics ? models::NumericsMode::reference
                               : baseNumerics);
    solver.setSampleContext(index, attempt);
    std::fill(out.begin(), out.end(), 0.0);
    try {
      // Replay the sample from scratch: same RNG state, same provider
      // draws, same bind order -- only the solve configuration differs.
      stats::Rng rng = rngStart;
      session.bindSample(rng);
      fn(index, session, rng, out);
      ctx.rescueAttempts = attempt;
      captureTelemetry();
      return;
    } catch (const SampleFailure&) {
      lastFailure = std::current_exception();
    }
  }
  std::rethrow_exception(lastFailure);
}

}  // namespace vsstat::sim

#endif  // VSSTAT_SIM_RESCUE_HPP
