// Abstract compact-model interface shared by the Virtual Source model and
// the BsimLite "golden kit" baseline.
//
// Convention: models are written in N-canonical form.  `vgs` and `vds` are
// the *canonical* (polarity-normalized) gate-source and drain-source
// voltages; for a PMOS instance the circuit element negates terminal
// voltages before calling in and negates current/charges on the way out.
// Negative canonical vds (source/drain role reversal) is handled inside
// evaluate() by the symmetry relation Id(vgs, vds) = -Id(vgs - vds, -vds)
// with source/drain charges swapped.
#ifndef VSSTAT_MODELS_DEVICE_HPP
#define VSSTAT_MODELS_DEVICE_HPP

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "models/geometry.hpp"

namespace vsstat::models {

enum class DeviceType { Nmos, Pmos };

[[nodiscard]] inline const char* toString(DeviceType t) noexcept {
  return t == DeviceType::Nmos ? "NMOS" : "PMOS";
}

/// Numerics contract of batched (device-bank) model evaluation.
///
/// `reference` -- the default -- pins every transcendental to libm and every
/// accumulation to the scalar path's order: banked evaluation is
/// bit-identical to per-element evaluateLoad, which is what all identity
/// tests and the cross-thread determinism contract are built on.
///
/// `fast` replaces the lane loop's exp/log1p/pow with the vectorized
/// polynomial kernels of util/simd_math.hpp, batched across the bank's
/// lanes.  It is tolerance-checked, not bit-checked, against reference:
/// per-lane relative current/charge error stays within the bounds asserted
/// by tests/models/test_fast_numerics.cpp, and campaign metrics agree
/// within solver tolerance.  Fast mode is still deterministic -- the same
/// inputs produce the same bits on every run and every thread count -- it
/// just rounds differently from libm.  Models without a fast kernel chain
/// (the generic bank) evaluate reference numerics regardless of mode.
enum class NumericsMode { reference, fast };

[[nodiscard]] inline const char* toString(NumericsMode m) noexcept {
  return m == NumericsMode::reference ? "reference" : "fast";
}

/// Full evaluation at one bias point.
struct MosfetEvaluation {
  double id = 0.0;  ///< drain terminal current [A], positive into the drain
  double qg = 0.0;  ///< gate terminal charge [C]
  double qd = 0.0;  ///< drain terminal charge [C]
  double qs = 0.0;  ///< source terminal charge [C]
};

/// Everything one Newton load consumes: the evaluation at the bias point
/// plus the current/charge derivatives w.r.t. the call's (vgs, vds) inputs.
struct MosfetLoadEvaluation {
  MosfetEvaluation at;
  double didVgs = 0.0;
  double didVds = 0.0;
  double dqgVgs = 0.0;
  double dqgVds = 0.0;
  double dqdVgs = 0.0;
  double dqdVds = 0.0;
  double dqsVgs = 0.0;
  double dqsVds = 0.0;
};

class MosfetModel;

/// One lane of a homogeneous device bank: the element's live per-instance
/// card and geometry.  The referents stay authoritative -- a bank caches
/// bias-independent derived state from them and must be told (rebindLane)
/// when either changes.
struct BankLane {
  const MosfetModel* card = nullptr;
  const DeviceGeometry* geometry = nullptr;
};

/// Struct-of-arrays batched Newton-load evaluator over a group of device
/// instances sharing one concrete model class.  Created once per circuit by
/// MosfetModel::makeLoadBank; the circuit engine then evaluates every lane
/// of the bank with ONE call per Newton assembly instead of one virtual
/// evaluateLoad() per device.
///
/// Numerics contract: in NumericsMode::reference (the default),
/// evaluateLoadBatch(...)[i] must equal
/// lane(i).card->evaluateLoad(*lane(i).geometry, vgs[i], vds[i], fdStep)
/// BIT-for-bit -- a bank is a layout restructuring of the scalar path, never
/// a different arithmetic.  Implementations may hoist bias-independent
/// work per lane (that is the point), but every hoisted value must be the
/// same double the scalar path would recompute.  In NumericsMode::fast a
/// bank may substitute vectorized kernels for the transcendentals; results
/// must then stay within the documented tolerance of the reference path
/// (see NumericsMode) and remain deterministic.
class MosfetLoadBank {
 public:
  virtual ~MosfetLoadBank() = default;

  MosfetLoadBank(const MosfetLoadBank&) = delete;
  MosfetLoadBank& operator=(const MosfetLoadBank&) = delete;

  [[nodiscard]] std::size_t laneCount() const noexcept {
    return lanes_.size();
  }
  [[nodiscard]] const BankLane& lane(std::size_t i) const {
    return lanes_[i];
  }

  /// Re-points a lane at a (possibly new) card/geometry and re-derives its
  /// cached per-lane state -- the per-sample pass after a Monte Carlo
  /// rebind.  Returns false (lane untouched) when the card's dynamic type
  /// is incompatible with this bank; the owner must then rebuild its banks.
  [[nodiscard]] virtual bool rebindLane(std::size_t laneIndex,
                                        const MosfetModel& card,
                                        const DeviceGeometry& geometry);

  /// Re-points EVERY lane at one shared card/geometry and re-derives the
  /// cached state -- the multi-fit extraction engine's between-iterations
  /// pass, where the lanes are bias points of a single device under fit.
  /// Returns false (bank untouched) when the card type is incompatible.
  /// The default loops rebindLane; banks with per-lane derived caches
  /// override it to derive ONCE and broadcast, which is bit-identical
  /// because every lane's cached values are a pure function of the shared
  /// (card, geometry).
  [[nodiscard]] virtual bool rebindUniform(const MosfetModel& card,
                                           const DeviceGeometry& geometry);

  /// Batched Newton load: out[i] = scalar evaluateLoad of lane i at
  /// (vgs[i], vds[i]).  All spans have laneCount() entries.
  virtual void evaluateLoadBatch(std::span<const double> vgs,
                                 std::span<const double> vds, double fdStep,
                                 std::span<MosfetLoadEvaluation> out) const = 0;

 protected:
  explicit MosfetLoadBank(std::vector<BankLane> lanes)
      : lanes_(std::move(lanes)) {}

  [[nodiscard]] std::vector<BankLane>& lanes() noexcept { return lanes_; }

 private:
  std::vector<BankLane> lanes_;
};

/// Pure-abstract compact model.  Implementations must be smooth (C1) in the
/// bias voltages across all operating regions; the circuit engine
/// differentiates them numerically inside Newton iterations.
class MosfetModel {
 public:
  virtual ~MosfetModel() = default;

  MosfetModel() = default;
  MosfetModel(const MosfetModel&) = default;
  MosfetModel& operator=(const MosfetModel&) = default;
  MosfetModel(MosfetModel&&) = default;
  MosfetModel& operator=(MosfetModel&&) = default;

  [[nodiscard]] virtual DeviceType deviceType() const noexcept = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Current + terminal charges at (vgs, vds), canonical polarity.
  [[nodiscard]] virtual MosfetEvaluation evaluate(const DeviceGeometry& geom,
                                                  double vgs,
                                                  double vds) const = 0;

  /// Drain current only (hot path for DC analyses); default goes through
  /// evaluate().
  [[nodiscard]] virtual double drainCurrent(const DeviceGeometry& geom,
                                            double vgs, double vds) const;

  /// The Newton-load entry point: evaluation plus current/charge
  /// derivatives.  The default forms forward differences (step `fdStep`)
  /// from three evaluate() calls; models with cheap analytic derivatives (the
  /// VS model) override it, which is the single biggest win on the circuit
  /// hot path.  Derivatives must stay consistent with evaluate() to the
  /// accuracy the Newton iteration needs (a few percent), not bit-exactly.
  [[nodiscard]] virtual MosfetLoadEvaluation evaluateLoad(
      const DeviceGeometry& geom, double vgs, double vds,
      double fdStep) const;

  /// Creates the batched Newton-load evaluator for a homogeneous group of
  /// lanes (every card must share this model's dynamic type; the circuit
  /// engine groups by typeid before calling).  The default returns a
  /// generic bank that routes each lane through its card's evaluateLoad()
  /// -- correct for every model and reference-numerics regardless of
  /// `mode`; models with a flat analytic chain (the VS model) override it
  /// with a struct-of-arrays lane loop that caches the bias-independent
  /// derived parameters per lane and, in NumericsMode::fast, batches the
  /// chain's transcendentals through util/simd_math.hpp kernels.
  [[nodiscard]] virtual std::unique_ptr<MosfetLoadBank> makeLoadBank(
      std::vector<BankLane> lanes,
      NumericsMode mode = NumericsMode::reference) const;

  /// Deep copy (used to give each Monte Carlo instance its own varied card).
  [[nodiscard]] virtual std::unique_ptr<MosfetModel> clone() const = 0;

  /// In-place parameter copy from another card of the same dynamic type;
  /// returns false (leaving this card untouched) when the types differ.
  /// This powers allocation-free Monte Carlo rebinding
  /// (spice::MosfetElement::rebind): a campaign session overwrites the
  /// existing instance card per sample instead of cloning a fresh one.
  [[nodiscard]] virtual bool assignFrom(const MosfetModel& other) {
    (void)other;
    return false;
  }
};

/// Bank whose every lane references the same card and geometry -- the
/// multi-fit extraction engine's layout, where the "lanes" are the bias
/// points of ONE device under fit and the shared card is rewritten (then
/// lane-rebound) between optimizer iterations.  Lane count is the caller's
/// bias-grid size.
[[nodiscard]] std::unique_ptr<MosfetLoadBank> makeUniformLoadBank(
    const MosfetModel& card, const DeviceGeometry& geometry,
    std::size_t laneCount, NumericsMode mode = NumericsMode::reference);

/// Total gate capacitance Cgg = dQg/dVgs at the bias point, by central
/// finite difference on the model's gate charge.
[[nodiscard]] double gateCapacitance(const MosfetModel& model,
                                     const DeviceGeometry& geom, double vgs,
                                     double vds, double step = 1e-3);

/// Numerically-stable softplus ln(1 + exp(x)); linear tail for large x.
[[nodiscard]] double softplus(double x) noexcept;

/// Logistic function 1 / (1 + exp(x)) with overflow guards.
[[nodiscard]] double logistic(double x) noexcept;

}  // namespace vsstat::models

#endif  // VSSTAT_MODELS_DEVICE_HPP
