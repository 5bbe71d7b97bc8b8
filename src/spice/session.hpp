// Persistent per-circuit solver session.
//
// The free functions in analysis.hpp construct a fresh Assembler -- pattern
// capture, symbolic fill analysis, workspace allocation -- on every call,
// which is wasteful when the same topology is solved thousands of times
// (Monte Carlo campaigns, DC sweeps, yield indicators).  A SimSession
// captures that state once and reuses it across every analysis it runs;
// device cards may be rebound between runs (MosfetElement::rebind) because
// the MNA stamp pattern is bias- and parameter-independent by contract.
//
// Numerics contract: each solve resets the workspace factorization's pivot
// order first, so every analysis is bit-identical to the equivalent free
// function on a freshly built circuit.  This is what lets the
// build-once/rebind-per-sample campaign path (sim::CampaignSession) assert
// bit-identical metrics against the legacy rebuild-per-sample path, and it
// keeps campaign results independent of which worker session evaluated
// which sample.
//
// SessionOptions::numerics == NumericsMode::fast opts out of the
// bit-identity half of that contract only: banked VS evaluation runs the
// vectorized kernel pipeline, whose results differ from reference in the
// last ulps (tolerance-tested).  Determinism is unchanged -- a fast session
// still produces the same bits for the same inputs on every run and every
// worker.
//
// SessionOptions::solver == SolverMode::reusePivot opts out of the other
// half: instead of re-pivoting per solve, the session derives ONE canonical
// pivot order + symbolic fill from the as-built circuit at construction and
// restores it at every solve boundary, so every solve skips the dense
// partial-pivot search and the symbolic pass (SparseLu::
// refactorReusingPivots, guarded by the growth/zero-pivot monitor).
// Because the canonical order depends only on the as-built circuit -- never
// on which sample a solve belongs to or which solve ran before -- results
// remain deterministic and bit-identical across thread counts and session
// assignments; only the Newton trajectory differs from fresh mode
// (statistically equivalent, tolerance-tested like fast numerics).  The two
// axes compose freely.
#ifndef VSSTAT_SPICE_SESSION_HPP
#define VSSTAT_SPICE_SESSION_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse_lu.hpp"
#include "models/device.hpp"
#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/fault_injection.hpp"
#include "spice/solve_report.hpp"
#include "spice/waveform.hpp"

namespace vsstat::spice {

namespace detail {
class Assembler;
}

/// Third orthogonal campaign axis (alongside models::NumericsMode and
/// linalg::SolverMode): which accuracy contract the session's solves honor.
enum class ToleranceTier : std::uint8_t {
  /// Default: the per-sample contract.  Every analysis starts from the
  /// documented cold state (zero guess + homotopy ladder), so results are
  /// bit-identical (reference/fresh) or 1e-8-tolerance-contracted
  /// (fast/reusePivot) against the free functions, sample by sample.
  perSample,
  /// Campaign-estimator contract: analyses may warm-start from previous
  /// samples' converged states (SimSession warm slots), sweep levels seed
  /// Newton from a linear extrapolation of earlier levels, transient steps
  /// use a linear step predictor, and Newton tolerances relax 10x.  Every
  /// per-sample value remains deterministic -- a fixed warm-start chain
  /// produces the same bits on every run and every worker -- but is no
  /// longer individually comparable to a cold solve; the accuracy contract
  /// moves to the ESTIMATOR (mean/sigma/quantile/yield within N Monte
  /// Carlo standard errors of a perSample run; see README "Session
  /// modes").  Not for debugging or bit-identity comparisons.
  statistical,
};

[[nodiscard]] inline const char* toString(ToleranceTier tier) noexcept {
  return tier == ToleranceTier::statistical ? "statistical" : "per-sample";
}

struct SessionOptions {
  /// Numerics contract of the banked model evaluation
  /// (models::NumericsMode, spice/device_bank.hpp).  `reference` (default)
  /// pins every analysis bit-identical to the free functions; `fast`
  /// batches the VS chain's transcendentals through the vectorized kernels
  /// of util/simd_math.hpp -- deterministic and tolerance-checked against
  /// reference, but NOT bit-identical to it.
  models::NumericsMode numerics = models::NumericsMode::reference;
  /// Pivot policy of the workspace factorization (linalg::SolverMode).
  /// `fresh` (default) re-pivots per solve, pinning every analysis
  /// bit-identical to the free functions; `reusePivot` amortizes one
  /// canonical pivot order + symbolic fill across all of the session's
  /// solves (breakdown-monitored), trading bit-identity with the free
  /// functions for throughput while staying deterministic and
  /// thread-count-independent.  Composes with `numerics` -- the two axes
  /// gate independent halves of the bit-identity contract.
  linalg::SolverMode solver = linalg::SolverMode::fresh;
  /// Accuracy tier of the session's solves (ToleranceTier).  `perSample`
  /// (default) keeps the cold-start per-sample contract; `statistical`
  /// enables warm-started, relaxed-tolerance solves under the
  /// estimator-level contract.  Orthogonal to `numerics` and `solver`.
  ToleranceTier tier = ToleranceTier::perSample;
  /// Test-only deterministic fault schedule (spice/fault_injection.hpp),
  /// shared across the campaign's worker sessions.  Null (default) leaves
  /// every injection site inert.
  std::shared_ptr<const FaultInjector> faultInjector = nullptr;
};

class SimSession {
 public:
  /// Binds to `circuit` and captures its MNA pattern.  The circuit must
  /// outlive the session; its topology must not change afterwards (device
  /// rebinding and source retuning are fine).
  explicit SimSession(Circuit& circuit, SessionOptions options = {});
  ~SimSession();

  SimSession(const SimSession&) = delete;
  SimSession& operator=(const SimSession&) = delete;

  [[nodiscard]] Circuit& circuit() noexcept { return *circuit_; }

  /// DC operating point from a zero guess; throws ConvergenceError when
  /// every homotopy fails.  Bit-identical to spice::dcOperatingPoint.
  [[nodiscard]] OperatingPoint dcOperatingPoint(const DcOptions& options = {});

  /// Warm-started DC operating point.
  [[nodiscard]] OperatingPoint dcOperatingPoint(const OperatingPoint& guess,
                                                const DcOptions& options);

  /// DC sweep of a named voltage source, warm-starting each point from the
  /// previous solution; the source's waveform is restored afterwards.
  /// Bit-identical to spice::dcSweep.
  [[nodiscard]] std::vector<OperatingPoint> dcSweep(
      const std::string& sourceName, const std::vector<double>& levels,
      const DcOptions& options = {});

  /// Lean sweep for probe-one-node consumers (VTC/butterfly loops): same
  /// solver trajectory as dcSweep -- the warm-start handoff between levels
  /// is an exact copy either way -- but records only `probeNode`'s voltage
  /// per level into `out` instead of materializing an OperatingPoint per
  /// level.  Allocation-free in steady state (out's capacity is reused).
  void dcSweepNode(const std::string& sourceName,
                   const std::vector<double>& levels, NodeId probeNode,
                   std::vector<double>& out, const DcOptions& options = {});

  /// Transient analysis; bit-identical to spice::transient.
  [[nodiscard]] Waveform transient(const TransientOptions& options);

  /// Transient analysis into a caller-owned record (cleared first, capacity
  /// reused) -- the allocation-free variant for campaign inner loops.
  /// Sample-for-sample identical to the overload above.
  void transient(const TransientOptions& options, Waveform& out);

  /// Eagerly re-derives the device bank's cached lane state after a rebind
  /// pass (sim::CampaignSession calls this per sample, hoisting the refresh
  /// out of the Newton loop).  Lazy sync inside the assembler makes this an
  /// optimization, not a correctness requirement.
  void syncDeviceBank();

  /// Banked MOSFET lanes, one per MOSFET (0 on a circuit without any).
  [[nodiscard]] std::size_t deviceBankLaneCount() const noexcept;

  /// Workspace-factorization counters: proof that a solver mode is actually
  /// engaged (tests) and visibility into breakdown-fallback frequency
  /// (benches).  reusePivot sessions show ~flat fullFactors after priming;
  /// fresh sessions grow it by one per solve.
  struct SolverTelemetry {
    std::uint64_t fullFactors = 0;     ///< analyze + partial-pivot passes
    std::uint64_t fastRefactors = 0;   ///< structure-reusing refactors
    std::uint64_t pivotFallbacks = 0;  ///< reuse-monitor breakdowns
    bool pivotSnapshotPrimed = false;  ///< canonical order captured
    // Sparse-factor shape and cost: how much fill the fill-reducing order
    // admitted on this topology, and where the full-path time went.  The
    // micros are cumulative wall time over the session (ordering runs once
    // per pattern; full factors once per fresh solve plus breakdowns).
    std::size_t patternNnz = 0;        ///< structural nonzeros of A
    std::size_t factorNnz = 0;         ///< structural nonzeros of L+U
    double fillRatio = 0.0;            ///< factorNnz / patternNnz
    std::uint64_t orderingMicros = 0;
    std::uint64_t fullFactorMicros = 0;
    /// Structured diagnostics of the most recent solve (DC point, sweep
    /// level, or transient), for successful and failed solves alike.
    SolveReport lastSolve;
  };
  [[nodiscard]] SolverTelemetry solverTelemetry() const noexcept;

  // --- rescue-ladder controls (sim::CampaignSession) -------------------------
  // Everything below is deterministic state the rescue ladder flips per
  // retry and restores afterwards; none of it is thread- or time-dependent.

  /// Switches the pivot policy in place.  Fresh -> reusePivot reuses the
  /// snapshot primed at construction (repriming only if none exists);
  /// reusePivot -> fresh makes every solve re-derive its own order.
  void setSolverMode(linalg::SolverMode mode);
  [[nodiscard]] linalg::SolverMode solverMode() const noexcept {
    return solverMode_;
  }

  /// Switches the banked evaluation contract in place (fast <-> reference).
  /// Throws when asked for fast numerics on a bank-less session.
  void setNumericsMode(models::NumericsMode numerics);
  [[nodiscard]] models::NumericsMode numericsMode() const noexcept;

  /// Extra Newton effort applied to every solve's options: the iteration
  /// budget is multiplied and the update clamp scaled (a smaller clamp =
  /// heavier damping).  The identity default changes nothing -- including
  /// at the bit level, since scaling by exactly 1.0 is exact.
  struct SolveEffort {
    int iterationMultiplier = 1;
    double maxUpdateScale = 1.0;
  };
  void setSolveEffort(const SolveEffort& effort) noexcept { effort_ = effort; }
  [[nodiscard]] const SolveEffort& solveEffort() const noexcept {
    return effort_;
  }

  /// Switches the accuracy tier in place (rescue rungs force `perSample`
  /// for their retries and restore the baseline afterwards).  Warm slots
  /// are kept -- only consumption/production is gated -- so restoring the
  /// statistical tier resumes the warm chain deterministically.
  void setToleranceTier(ToleranceTier tier) noexcept { tier_ = tier; }
  [[nodiscard]] ToleranceTier toleranceTier() const noexcept { return tier_; }

  // --- statistical-tier warm starts ------------------------------------------
  // Under ToleranceTier::statistical every top-level analysis entry
  // (dcOperatingPoint from zero, dcSweepNode, transient) consumes one warm
  // SLOT in call order: slot i seeds analysis i from the converged state
  // the PREVIOUS sample's analysis i stored there.  Campaign samples run a
  // fixed analysis sequence, so the cursor-aligned slots always pair like
  // with like.  Under perSample the slots are inert.

  /// Marks the start of a sample's analysis sequence: rewinds the warm
  /// cursor to slot 0.  sim::CampaignSession calls this from every rebind.
  void beginSampleWarmStart() noexcept { warmCursor_ = 0; }
  /// Invalidates every warm slot (deterministic cold-start rule: block
  /// boundaries of a blocked campaign, and rescue-ladder engagement).
  void clearWarmStarts() noexcept;

  /// Cumulative Newton-iteration counters over the session's lifetime.
  /// Campaign wrappers diff them around a sample to aggregate per-campaign
  /// mean iterations/sample and the warm-start hit rate (mc::McResult).
  struct IterationTelemetry {
    std::uint64_t newtonIterations = 0;  ///< summed SolveReport::iterations
    std::uint64_t solves = 0;            ///< top-level + sweep-level solves
    std::uint64_t warmStartHits = 0;     ///< solves seeded from a warm slot
    std::uint64_t warmStartOpportunities = 0;  ///< statistical-tier entries
  };
  [[nodiscard]] const IterationTelemetry& iterationTelemetry() const noexcept {
    return iterTelemetry_;
  }

  /// Arms the fault injector (if any) for (sampleIndex, rescue attempt).
  void setSampleContext(std::size_t sampleIndex, int attempt) noexcept;
  void clearSampleContext() noexcept;
  /// Rescue attempt of the armed sample context (0 on the first attempt
  /// and outside campaigns) -- for metric code consulting
  /// FaultInjector::metricThrowAt.
  [[nodiscard]] int sampleAttempt() const noexcept;

 private:
  /// Resets the workspace LU pivot state at a solve boundary.  Fresh mode
  /// forgets the pivot order so this solve re-derives it from its own
  /// first iterate (the legacy fresh-assembler granularity: one full
  /// pivoting pass per dcOperatingPoint / transient call); reuse-pivot
  /// mode restores the canonical snapshot instead, so the solve runs on
  /// the primed order no matter what a breakdown in an earlier solve did.
  /// Buffers stay at capacity either way -- no steady-state allocation.
  void resetNumerics() noexcept;

  /// reusePivot priming: derives the canonical pivot order from the
  /// as-built circuit at the zero iterate (a sample-independent state, so
  /// identically-built worker sessions all derive the same order) and
  /// snapshots it.  A circuit whose zero-iterate Jacobian is singular even
  /// under a gmin shunt leaves the session unprimed: solves then fall back
  /// to fresh-style per-solve pivoting, still deterministically.
  void primePivotReuse();

  /// Applies the session's SolveEffort to per-call options (exact no-op at
  /// the identity default).  Under the statistical tier the Newton
  /// tolerances additionally relax 10x -- far below the Monte Carlo
  /// standard error the tier's estimator contract is stated against.
  [[nodiscard]] DcOptions applyEffort(const DcOptions& options) const noexcept;
  [[nodiscard]] NewtonOptions applyEffort(
      const NewtonOptions& options) const noexcept;

  /// One sample-to-sample warm-start slot (see beginSampleWarmStart).
  struct WarmSlot {
    linalg::Vector x;
    /// Transient slots also carry the previous sample's accepted-step
    /// trajectory (the reference waveform for the step predictor).
    TransientTrajectory traj;
    bool valid = false;
  };
  /// Next slot in analysis-call order, or nullptr under perSample.
  [[nodiscard]] WarmSlot* nextWarmSlot();
  /// Accumulates one top-level solve into the iteration telemetry.
  void noteSolve(int iterations, bool warmSeeded, bool opportunity) noexcept;

  Circuit* circuit_;
  std::unique_ptr<detail::Assembler> assembler_;
  linalg::SolverMode solverMode_ = linalg::SolverMode::fresh;
  ToleranceTier tier_ = ToleranceTier::perSample;
  SolveEffort effort_;
  linalg::Vector sweepX_;  ///< persistent sweep iterate (dcSweepNode)
  linalg::Vector sweepPrevX_;   ///< previous converged level (extrapolation)
  linalg::Vector sweepPrev2X_;  ///< two-back converged level (quadratic)
  TransientTrajectory trajScratch_;  ///< in-flight transient recording
  std::vector<WarmSlot> warmSlots_;
  std::size_t warmCursor_ = 0;
  IterationTelemetry iterTelemetry_;
};

}  // namespace vsstat::spice

#endif  // VSSTAT_SPICE_SESSION_HPP
