#include "extract/fit_campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <initializer_list>
#include <limits>

#include "models/alpha_power.hpp"
#include "models/bsim_lite.hpp"
#include "models/vs_model.hpp"
#include "util/error.hpp"
#include "util/fnv1a.hpp"
#include "util/thread_pool.hpp"

namespace vsstat::extract {

namespace {

/// Forward-difference step of every Newton-load evaluation in a campaign --
/// shared by synthesis and fitting so a noiseless synthetic lane has an
/// exactly-zero residual at the truth card.
constexpr double kLoadFdStep = 1e-3;

/// Log-space residuals floor the model current here so a card driven deep
/// below threshold produces a large finite residual, not -inf.
constexpr double kIdFloor = 1e-18;

/// Family adapter: the bijection between a card's fitted fields and the
/// optimizer's parameter vector, plus the family's physical box.
struct FamilySpec {
  std::size_t n = 0;
  const double* lo = nullptr;
  const double* hi = nullptr;
  void (*read)(const models::MosfetModel&, linalg::Vector&) = nullptr;
  void (*write)(const linalg::Vector&, models::MosfetModel&) = nullptr;
};

// --- VS family: [vt0, delta0, n0, vxo, mu, beta, cinv] ----------------------
constexpr std::size_t kVsN = 7;
constexpr double kVsLo[kVsN] = {0.15, 0.04, 1.22, 0.4e5, 0.6e-2, 1.2, 1.0e-2};
constexpr double kVsHi[kVsN] = {0.65, 0.25, 1.90, 2.5e5, 5.0e-2, 2.8, 2.6e-2};

void vsRead(const models::MosfetModel& m, linalg::Vector& x) {
  const models::VsParams& p = static_cast<const models::VsModel&>(m).params();
  x[0] = p.vt0;
  x[1] = p.delta0;
  x[2] = p.n0;
  x[3] = p.vxo;
  x[4] = p.mu;
  x[5] = p.beta;
  x[6] = p.cinv;
}

void vsWrite(const linalg::Vector& x, models::MosfetModel& m) {
  models::VsParams& p = static_cast<models::VsModel&>(m).mutableParams();
  p.vt0 = x[0];
  p.delta0 = x[1];
  p.n0 = x[2];
  p.vxo = x[3];
  p.mu = x[4];
  p.beta = x[5];
  p.cinv = x[6];
}

// --- alpha-power family: [vth0, delta0, alphaSat, kSat, kV, cg] -------------
constexpr std::size_t kAlphaN = 6;
constexpr double kAlphaLo[kAlphaN] = {0.10, 0.00, 1.0, 1e2, 0.3, 0.5e-2};
constexpr double kAlphaHi[kAlphaN] = {0.55, 0.30, 2.0, 5e3, 2.5, 3.0e-2};

void alphaRead(const models::MosfetModel& m, linalg::Vector& x) {
  const models::AlphaPowerParams& p =
      static_cast<const models::AlphaPowerModel&>(m).params();
  x[0] = p.vth0;
  x[1] = p.delta0;
  x[2] = p.alphaSat;
  x[3] = p.kSat;
  x[4] = p.kV;
  x[5] = p.cg;
}

void alphaWrite(const linalg::Vector& x, models::MosfetModel& m) {
  models::AlphaPowerParams& p =
      static_cast<models::AlphaPowerModel&>(m).mutableParams();
  p.vth0 = x[0];
  p.delta0 = x[1];
  p.alphaSat = x[2];
  p.kSat = x[3];
  p.kV = x[4];
  p.cg = x[5];
}

// --- bsim-lite family: [vth0, dibl0, nfactor, u0, vsat, cox] ----------------
constexpr std::size_t kBsimN = 6;
constexpr double kBsimLo[kBsimN] = {0.2, 0.04, 1.1, 1.0e-2, 0.5e5, 1.0e-2};
constexpr double kBsimHi[kBsimN] = {0.7, 0.25, 1.9, 6.0e-2, 2.0e5, 2.6e-2};

void bsimRead(const models::MosfetModel& m, linalg::Vector& x) {
  const models::BsimParams& p =
      static_cast<const models::BsimLite&>(m).params();
  x[0] = p.vth0;
  x[1] = p.dibl0;
  x[2] = p.nfactor;
  x[3] = p.u0;
  x[4] = p.vsat;
  x[5] = p.cox;
}

void bsimWrite(const linalg::Vector& x, models::MosfetModel& m) {
  models::BsimParams& p = static_cast<models::BsimLite&>(m).mutableParams();
  p.vth0 = x[0];
  p.dibl0 = x[1];
  p.nfactor = x[2];
  p.u0 = x[3];
  p.vsat = x[4];
  p.cox = x[5];
}

const FamilySpec& specFor(CardFamily family) noexcept {
  static const FamilySpec vs{kVsN, kVsLo, kVsHi, &vsRead, &vsWrite};
  static const FamilySpec alpha{kAlphaN, kAlphaLo, kAlphaHi, &alphaRead,
                                &alphaWrite};
  static const FamilySpec bsim{kBsimN, kBsimLo, kBsimHi, &bsimRead,
                               &bsimWrite};
  switch (family) {
    case CardFamily::vs: return vs;
    case CardFamily::alphaPower: return alpha;
    case CardFamily::bsim: return bsim;
  }
  return vs;
}

}  // namespace

const char* toString(CardFamily f) noexcept {
  switch (f) {
    case CardFamily::vs: return "vs";
    case CardFamily::alphaPower: return "alpha-power";
    case CardFamily::bsim: return "bsim-lite";
  }
  return "unknown";
}

const char* toString(FitOutcome o) noexcept {
  switch (o) {
    case FitOutcome::converged: return "converged";
    case FitOutcome::boundPinned: return "bound-pinned";
    case FitOutcome::stalled: return "stalled";
    case FitOutcome::singularJtJ: return "singular-jtj";
    case FitOutcome::nonFinite: return "non-finite";
  }
  return "unknown";
}

namespace {

/// Appends the two-bias Id-Vg transfer scan (drain at vdsLin and at vdd),
/// gate from vgsFrom up to vdd.
void addTransferScan(MeasurementGrid& g, double vgsFrom, double vdd,
                     double vgsStep, double vdsLin, RowKind kind,
                     double weight) {
  require(vdd > 0.0, "measurement plan: vdd must be positive");
  for (double vgs = vgsFrom; vgs <= vdd + 1e-9; vgs += vgsStep) {
    g.points.push_back({vgs, vdsLin, kind, weight});
    g.points.push_back({vgs, vdd, kind, weight});
  }
}

/// Appends the Id-Vd output family (relative rows) at each gate bias.
void addOutputFamily(MeasurementGrid& g, std::initializer_list<double> gates,
                     double vdd, double vdsStep, double weight) {
  for (const double vgs : gates) {
    for (double vds = vdsStep; vds <= vdd + 1e-9; vds += vdsStep)
      g.points.push_back({vgs, vds, RowKind::relCurrent, weight});
  }
}

}  // namespace

MeasurementGrid vsMeasurementGrid(double vdd, double vgsStep, double vdsStep,
                                  double vdsLin) {
  MeasurementGrid g;
  // Id-Vg transfer scan, log space so subthreshold decades carry weight
  // (the paper fits Ioff AND Ion); output family at three overdrives.
  addTransferScan(g, 0.10, vdd, vgsStep, vdsLin, RowKind::logCurrent, 0.55);
  addOutputFamily(g, {0.56 * vdd, 0.78 * vdd, 1.0 * vdd}, vdd, vdsStep, 1.5);
  g.points.push_back({vdd, vdd, RowKind::cgg, 4.0});
  return g;
}

MeasurementGrid strongInversionGrid(double vdd, double vgsStep, double vdsStep,
                                    double vdsLin) {
  MeasurementGrid g;
  addTransferScan(g, 0.45 * vdd, vdd, vgsStep, vdsLin, RowKind::relCurrent,
                  1.5);
  addOutputFamily(g, {0.6 * vdd, 0.8 * vdd, 1.0 * vdd}, vdd, vdsStep, 1.5);
  g.points.push_back({vdd, vdd, RowKind::cgg, 4.0});
  return g;
}

MeasurementGrid goldenVsPlan(double vdd) {
  MeasurementGrid g;
  addTransferScan(g, 0.10, vdd, 0.05, 0.05, RowKind::logCurrent, 0.55);
  addOutputFamily(g, {0.5, 0.7, 0.9}, vdd, 0.05, 1.5);
  g.points.push_back({vdd, 0.0, RowKind::cgg, 4.0});
  g.points.push_back({vdd, vdd, RowKind::relCurrent, 8.0});  // Idsat
  g.points.push_back({0.0, vdd, RowKind::logCurrent, 5.0});  // Ioff
  return g;
}

MeasurementGrid goldenAlphaPowerPlan(double vdd) {
  MeasurementGrid g;
  addTransferScan(g, 0.45 * vdd, vdd, 0.05, 0.05, RowKind::relCurrent, 1.0);
  addOutputFamily(g, {0.6 * vdd, 0.8 * vdd, 1.0 * vdd}, vdd, 0.05, 1.0);
  g.points.push_back({vdd, 0.0, RowKind::cgg, 4.0});
  g.points.push_back({vdd, vdd, RowKind::relCurrent, 8.0});  // Idsat
  return g;
}

double FitCampaignResult::convergedFraction() const noexcept {
  if (laneCount == 0) return 1.0;
  const int good = outcomeCounts[static_cast<int>(FitOutcome::converged)] +
                   outcomeCounts[static_cast<int>(FitOutcome::boundPinned)];
  return static_cast<double>(good) / static_cast<double>(laneCount);
}

double FitCampaignResult::meanIterationsPerFit() const noexcept {
  if (laneCount == 0) return 0.0;
  return static_cast<double>(totalLmIterations) /
         static_cast<double>(laneCount);
}

std::uint64_t FitCampaignResult::paramsFnv1a() const noexcept {
  util::Fnv1a h;
  h.mix(laneCount);
  h.mix(paramCount);
  for (std::size_t i = 0; i < laneCount; ++i) {
    h.mix(static_cast<std::uint64_t>(static_cast<int>(outcomes[i])));
    h.mix(boundMask[i]);
    h.mix(static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(iterations[i])));
    h.mixDouble(cost[i]);
  }
  for (double v : params) h.mixDouble(v);
  return h.value();
}

/// Per-worker fit state: the worker-owned card, the bias-point device bank
/// over it (one bank lane per plan row), the solver workspace and the lane
/// dataset.  One engine is materialized lazily per (worker thread, run) and
/// reused for every lane that worker executes, so a steady-state fit
/// allocates nothing.
struct LaneEngine {
  explicit LaneEngine(const FitCampaign& campaign)
      : owner(&campaign),
        spec(specFor(campaign.family_)),
        model(campaign.seed_->clone()),
        rowCount(campaign.grid_.points.size()) {
    vgs.resize(rowCount);
    vds.resize(rowCount);
    evals.resize(rowCount);
    for (std::size_t i = 0; i < rowCount; ++i) {
      vgs[i] = campaign.grid_.points[i].vgs;
      vds[i] = campaign.grid_.points[i].vds;
    }
    bank = models::makeUniformLoadBank(*model, campaign.geometry_, rowCount,
                                       campaign.options_.numerics);
    dataset.id.resize(rowCount);
    residual = [this](const linalg::Vector& x, linalg::Vector& r) {
      response(x, r);
    };
  }

  /// The campaign residual: write the trial parameters into the worker
  /// card, re-derive the bank ONCE for all rows (rebindUniform), evaluate
  /// the whole plan in one batched call, then weigh each row by its kind.
  void response(const linalg::Vector& x, linalg::Vector& r) {
    spec.write(x, *model);
    require(bank->rebindUniform(*model, owner->geometry_),
            "FitCampaign: bank rejected its own card type");
    bank->evaluateLoadBatch(vgs, vds, kLoadFdStep, evals);
    const std::vector<IvPoint>& rows = owner->grid_.points;
    for (std::size_t i = 0; i < rowCount; ++i) {
      const double d = dataset.id[i];
      switch (rows[i].kind) {
        case RowKind::logCurrent:
          r[i] = rows[i].weight *
                 std::log(std::max(evals[i].at.id, kIdFloor) / d);
          break;
        case RowKind::relCurrent:
          r[i] = rows[i].weight * (evals[i].at.id / d - 1.0);
          break;
        case RowKind::cgg:
          r[i] = rows[i].weight * (evals[i].dqgVgs / d - 1.0);
          break;
      }
    }
  }

  const FitCampaign* owner;
  const FamilySpec& spec;
  std::unique_ptr<models::MosfetModel> model;
  std::size_t rowCount;
  std::unique_ptr<models::MosfetLoadBank> bank;
  std::vector<double> vgs, vds;
  std::vector<models::MosfetLoadEvaluation> evals;
  FitDataset dataset;
  linalg::LevMarWorkspace ws;
  linalg::LevMarResult lm;
  linalg::ResidualFn residual;
};

namespace {

/// Worker-local engine cache, keyed by the campaign's process-unique
/// instance id.  Ids are never reissued, so an engine built for a destroyed
/// campaign can never be mistaken for the current one -- and repeated run()
/// calls on the SAME campaign reuse the worker's engine, keeping the
/// steady-state batch path allocation-free.
struct EngineSlot {
  std::uint64_t campaignId = 0;
  std::unique_ptr<LaneEngine> engine;
};
thread_local EngineSlot tEngineSlot;
std::atomic<std::uint64_t> gCampaignCounter{0};

FitOutcome outcomeForFailure(FailureClass c) noexcept {
  switch (c) {
    case FailureClass::singular: return FitOutcome::singularJtJ;
    case FailureClass::nonFinite: return FitOutcome::nonFinite;
    default: return FitOutcome::stalled;
  }
}

}  // namespace

FitCampaign::FitCampaign(const models::VsParams& seed,
                         models::DeviceGeometry geometry, MeasurementGrid grid,
                         FitCampaignOptions options)
    : family_(CardFamily::vs),
      geometry_(geometry),
      grid_(std::move(grid)),
      options_(std::move(options)),
      seed_(std::make_unique<models::VsModel>(seed)) {
  finishInit();
}

FitCampaign::FitCampaign(const models::AlphaPowerParams& seed,
                         models::DeviceGeometry geometry, MeasurementGrid grid,
                         FitCampaignOptions options)
    : family_(CardFamily::alphaPower),
      geometry_(geometry),
      grid_(std::move(grid)),
      options_(std::move(options)),
      seed_(std::make_unique<models::AlphaPowerModel>(seed)) {
  finishInit();
}

FitCampaign::FitCampaign(const models::BsimParams& seed,
                         models::DeviceGeometry geometry, MeasurementGrid grid,
                         FitCampaignOptions options)
    : family_(CardFamily::bsim),
      geometry_(geometry),
      grid_(std::move(grid)),
      options_(std::move(options)),
      seed_(std::make_unique<models::BsimLite>(seed)) {
  finishInit();
}

FitCampaign::~FitCampaign() = default;

void FitCampaign::finishInit() {
  id_ = gCampaignCounter.fetch_add(1, std::memory_order_relaxed) + 1;
  require(!grid_.points.empty(), "FitCampaign: measurement grid is empty");
  require(geometry_.width > 0.0 && geometry_.length > 0.0,
          "FitCampaign: geometry must be positive");
  require(options_.maxIterations >= 0,
          "FitCampaign: maxIterations must not be negative");
  const FamilySpec& spec = specFor(family_);
  lmOptions_ = options_.levmar;
  lmOptions_.maxIterations = options_.maxIterations;
  if (lmOptions_.lowerBounds.empty())
    lmOptions_.lowerBounds.assign(spec.lo, spec.lo + spec.n);
  if (lmOptions_.upperBounds.empty())
    lmOptions_.upperBounds.assign(spec.hi, spec.hi + spec.n);
  require(lmOptions_.lowerBounds.size() == spec.n &&
              lmOptions_.upperBounds.size() == spec.n,
          "FitCampaign: bounds size mismatch for card family");
  x0_.resize(spec.n);
  spec.read(*seed_, x0_);
  for (std::size_t j = 0; j < spec.n; ++j) {
    x0_[j] = std::min(std::max(x0_[j], lmOptions_.lowerBounds[j]),
                      lmOptions_.upperBounds[j]);
  }
}

std::size_t FitCampaign::paramCount() const noexcept {
  return specFor(family_).n;
}

FitCampaignResult FitCampaign::run(std::size_t laneCount, std::uint64_t seed,
                                   const DatasetFn& makeDataset) const {
  require(laneCount > 0, "FitCampaign: need at least one lane");
  require(makeDataset != nullptr, "FitCampaign: null dataset callback");
  const std::size_t n = specFor(family_).n;

  FitCampaignResult res;
  res.laneCount = laneCount;
  res.paramCount = n;
  res.params.resize(laneCount * n);
  res.outcomes.assign(laneCount, FitOutcome::converged);
  res.cost.assign(laneCount, 0.0);
  res.iterations.assign(laneCount, 0);
  res.boundMask.assign(laneCount, 0);
  // SSO keeps the empty-message common case allocation-free.
  std::vector<std::string> messages(laneCount);

  const stats::Rng root(seed);

  util::parallelFor(
      laneCount,
      [&](std::size_t lane) {
        EngineSlot& slot = tEngineSlot;
        if (slot.campaignId != id_ || slot.engine == nullptr) {
          slot.engine = std::make_unique<LaneEngine>(*this);
          slot.campaignId = id_;
        }
        LaneEngine& e = *slot.engine;

        stats::Rng rng = root.fork(lane);
        makeDataset(lane, rng, e.dataset);
        require(e.dataset.id.size() == e.rowCount,
                "FitCampaign: dataset resized away from the grid");

        double* out = res.params.data() + lane * n;
        const auto fail = [&](FitOutcome outcome, int iterations,
                              const char* what) {
          res.outcomes[lane] = outcome;
          res.iterations[lane] = iterations;
          res.cost[lane] = std::numeric_limits<double>::quiet_NaN();
          res.boundMask[lane] = 0;
          std::copy(x0_.begin(), x0_.end(), out);
          messages[lane] = what;
        };

        try {
          linalg::levenbergMarquardt(e.residual, x0_, e.rowCount,
                                     lmOptions_, e.ws, e.lm);
        } catch (const SingularMatrixError& err) {
          fail(FitOutcome::singularJtJ, err.iterations(), err.what());
          return;
        } catch (const NonFiniteError& err) {
          fail(FitOutcome::nonFinite, 0, err.what());
          return;
        } catch (const SampleFailure& err) {
          // Defensive: any other classified failure still lands in the
          // taxonomy instead of aborting the campaign.
          fail(outcomeForFailure(err.failureClass()), 0, err.what());
          return;
        }

        std::copy(e.lm.x.begin(), e.lm.x.end(), out);
        res.cost[lane] = e.lm.cost;
        res.iterations[lane] = e.lm.iterations;
        res.boundMask[lane] = e.lm.activeBounds;
        if (e.lm.activeBounds != 0) {
          // Any non-exception exit on a bound face is bound-pinned: the
          // data wants parameters outside the physical box, whether the
          // solver formally converged there or exhausted its budget
          // crawling along the face (free parameters compensating for the
          // clamped one improve the cost indefinitely but negligibly).
          res.outcomes[lane] = FitOutcome::boundPinned;
        } else if (!e.lm.converged || e.lm.stalled) {
          res.outcomes[lane] = FitOutcome::stalled;
        } else {
          res.outcomes[lane] = FitOutcome::converged;
        }
      },
      options_.threads);

  // Serial reduction keeps the counters and the first-failure pick
  // deterministic regardless of worker count.
  for (std::size_t i = 0; i < laneCount; ++i) {
    ++res.outcomeCounts[static_cast<int>(res.outcomes[i])];
    res.totalLmIterations += static_cast<std::uint64_t>(res.iterations[i]);
    const FitOutcome o = res.outcomes[i];
    if (!res.firstFailure.valid &&
        (o == FitOutcome::singularJtJ || o == FitOutcome::nonFinite)) {
      res.firstFailure.valid = true;
      res.firstFailure.lane = i;
      res.firstFailure.outcome = o;
      res.firstFailure.message = messages[i];
    }
  }
  return res;
}

void FitCampaign::synthesizeDataset(const models::MosfetModel& truth,
                                    double noiseRel, stats::Rng& rng,
                                    FitDataset& out) const {
  const std::size_t count = grid_.points.size();
  out.id.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const IvPoint& row = grid_.points[i];
    const models::MosfetLoadEvaluation ev =
        truth.evaluateLoad(geometry_, row.vgs, row.vds, kLoadFdStep);
    double value = row.kind == RowKind::cgg ? ev.dqgVgs : ev.at.id;
    if (noiseRel > 0.0) value *= std::exp(noiseRel * rng.normal());
    out.id[i] = value;
  }
}

models::VsParams FitCampaign::vsCard(const FitCampaignResult& r,
                                     std::size_t lane) const {
  require(family_ == CardFamily::vs, "FitCampaign: not a VS-family campaign");
  models::VsParams p = static_cast<const models::VsModel&>(*seed_).params();
  const std::span<const double> x = r.lane(lane);
  p.vt0 = x[0];
  p.delta0 = x[1];
  p.n0 = x[2];
  p.vxo = x[3];
  p.mu = x[4];
  p.beta = x[5];
  p.cinv = x[6];
  return p;
}

models::AlphaPowerParams FitCampaign::alphaCard(const FitCampaignResult& r,
                                                std::size_t lane) const {
  require(family_ == CardFamily::alphaPower,
          "FitCampaign: not an alpha-power campaign");
  models::AlphaPowerParams p =
      static_cast<const models::AlphaPowerModel&>(*seed_).params();
  const std::span<const double> x = r.lane(lane);
  p.vth0 = x[0];
  p.delta0 = x[1];
  p.alphaSat = x[2];
  p.kSat = x[3];
  p.kV = x[4];
  p.cg = x[5];
  return p;
}

models::BsimParams FitCampaign::bsimCard(const FitCampaignResult& r,
                                         std::size_t lane) const {
  require(family_ == CardFamily::bsim,
          "FitCampaign: not a bsim-lite campaign");
  models::BsimParams p =
      static_cast<const models::BsimLite&>(*seed_).params();
  const std::span<const double> x = r.lane(lane);
  p.vth0 = x[0];
  p.dibl0 = x[1];
  p.nfactor = x[2];
  p.u0 = x[3];
  p.vsat = x[4];
  p.cox = x[5];
  return p;
}

}  // namespace vsstat::extract
