// Banked multi-fit extraction engine: thousands of independent VS-card
// extractions run as one campaign.
//
// The paper's actual pipeline is measure -> extract VS cards -> statistical
// model -> yield.  Production-volume extraction (per-die, per-corner) means
// thousands of small box-bounded Levenberg-Marquardt fits, each over a few
// dozen I-V/C-V points -- the exact shape of FEBioVFM's ConstrainedLevmar
// driver and Gpufit's LMFitCPP.  Here each fit is an independent *lane*:
//
//   * residual/Jacobian evaluation routes through models::MosfetLoadBank --
//     one bank per worker whose bank-lanes are the BIAS POINTS of the
//     device under fit, all referencing one worker-owned card that the
//     optimizer rewrites (and lane-rebinds) between iterations.  Under
//     NumericsMode::fast the VS bank batches the whole I-V grid through
//     the SIMD chain; under reference (the default) banked evaluation is
//     bit-identical to MosfetModel::evaluateLoad (the rebindUniform case
//     of tests/models/test_model_contract.cpp).
//   * linalg::levenbergMarquardt runs in its allocation-free workspace form
//     with per-family box bounds, so extracted cards stay physical.
//   * lanes are scheduled over the persistent util::ThreadPool with
//     per-worker engines and fork-per-lane RNG: results are bit-identical
//     across 1/2/4 workers by construction.
//   * every lane lands in a FitOutcome taxonomy (converged / bound-pinned /
//     stalled / singular-JtJ / non-finite) mirroring the SampleFailure
//     discipline -- a bad lane is classified and counted, never garbage.
//
// Numerics contract: extraction carries a FIT TOLERANCE, not a bit-identity
// contract -- the acceptance question is "does the fitted card reproduce
// the data within the fit residual", so NumericsMode::fast is a legitimate
// throughput mode here.  Reference numerics stays the default and the
// baseline the agreement tests compare against.
#ifndef VSSTAT_EXTRACT_FIT_CAMPAIGN_HPP
#define VSSTAT_EXTRACT_FIT_CAMPAIGN_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linalg/levmar.hpp"
#include "models/alpha_power.hpp"
#include "models/bsim_params.hpp"
#include "models/device.hpp"
#include "models/vs_params.hpp"
#include "stats/rng.hpp"

namespace vsstat::extract {

/// Which compact-model card family a campaign extracts.
enum class CardFamily { vs, alphaPower, bsim };

[[nodiscard]] const char* toString(CardFamily f) noexcept;

/// Per-lane fit classification.  The first two are successful extractions
/// (boundPinned means the optimum pressed against the physical box -- the
/// card is valid but the data wants parameters outside it); the last three
/// mirror the SampleFailure discipline of mc::McResult.
enum class FitOutcome : int {
  converged = 0,   ///< formal convergence criteria met, interior solution
  boundPinned,     ///< finished with >=1 parameter exactly on a box bound
  stalled,         ///< no damped step improved the cost / budget exhausted
  singularJtJ,     ///< damped normal equations singular at every damping level
  nonFinite,       ///< residual/Jacobian went non-finite (bad data, blow-up)
};
inline constexpr int kFitOutcomeCount = 5;

[[nodiscard]] const char* toString(FitOutcome o) noexcept;

/// How one plan row compares the model with its measurement.
enum class RowKind {
  logCurrent,  ///< ln(Id / Id_meas): subthreshold decades count
  relCurrent,  ///< Id / Id_meas - 1
  cgg,         ///< Cgg / Cgg_meas - 1, with Cgg = dQg/dVgs
};

/// One row of a measurement plan: a bias point, what is measured there,
/// and the weight of its residual.
struct IvPoint {
  double vgs = 0.0;
  double vds = 0.0;
  RowKind kind = RowKind::relCurrent;
  double weight = 1.0;
};

/// The measurement plan every lane shares, one residual per row.
struct MeasurementGrid {
  std::vector<IvPoint> points;
};

/// The full-pipeline VS plan: two-bias Id-Vg scan (log rows, weight 0.55,
/// so subthreshold decades count), a three-gate-bias Id-Vd family
/// (relative rows, weight 1.5), then one Cgg row at (vdd, vdd), weight 4.
[[nodiscard]] MeasurementGrid vsMeasurementGrid(double vdd = 0.9,
                                                double vgsStep = 0.1,
                                                double vdsStep = 0.1,
                                                double vdsLin = 0.05);

/// Strong-inversion-only plan (relative rows, weight 1.5, plus the Cgg row
/// at (vdd, vdd), weight 4) for families with no subthreshold conduction to
/// fit (alpha-power law).
[[nodiscard]] MeasurementGrid strongInversionGrid(double vdd = 0.9,
                                                  double vgsStep = 0.1,
                                                  double vdsStep = 0.1,
                                                  double vdsLin = 0.05);

/// The paper's Fig. 1 nominal-fit plan for the VS family against the golden
/// kit: the 0.05 V-pitch Id-Vg scan at 0.05 V and vdd drain bias (log rows,
/// weight 0.55), the Id-Vd family at gate biases 0.5 / 0.7 / 0.9 V
/// (relative rows, weight 1.5), then the BPV targets as heavy anchors:
/// Cgg at (vdd, 0) (weight 4), Idsat at (vdd, vdd) (relative, weight 8)
/// and Ioff at (0, vdd) (log, weight 5).  The BPV sensitivities are
/// evaluated on the card this plan fits, so the anchors must hold tightly
/// even where the VS and golden transport cannot agree everywhere.
[[nodiscard]] MeasurementGrid goldenVsPlan(double vdd = 0.9);

/// The alpha-power counterpart: the strong-inversion rows at 0.05 V pitch
/// (weight 1), Cgg at (vdd, 0) (weight 4) and Idsat at (vdd, vdd) (weight
/// 8).  No subthreshold rows -- the alpha-power law has no subthreshold
/// conduction, the limitation the paper holds against empirical
/// ultra-compact models.
[[nodiscard]] MeasurementGrid goldenAlphaPowerPlan(double vdd = 0.9);

/// One lane's measurements on the campaign plan.
struct FitDataset {
  /// Measured value per plan row: drain current [A] on current rows, gate
  /// capacitance [F] on Cgg rows.
  std::vector<double> id;
};

struct FitCampaignOptions {
  int maxIterations = 60;  ///< 0 scores the seed card without moving it
  unsigned threads = 0;  ///< parallelFor workers; 0 = hardware concurrency
  models::NumericsMode numerics = models::NumericsMode::reference;
  /// Solver options; empty bounds are filled with the family's physical
  /// box, and maxIterations above overrides the solver default.
  linalg::LevMarOptions levmar;
};

/// Campaign output: a bank of fitted cards (lane-major parameter storage)
/// plus the per-lane outcome taxonomy and telemetry.  Lane i's card is
/// reconstructed with FitCampaign::{vs,alpha,bsim}Card(result, i).
struct FitCampaignResult {
  std::size_t laneCount = 0;
  std::size_t paramCount = 0;
  std::vector<double> params;  ///< laneCount x paramCount, lane-major
  std::vector<FitOutcome> outcomes;
  std::vector<double> cost;        ///< final 0.5||r||^2 (NaN on failed lanes)
  std::vector<std::int32_t> iterations;
  std::vector<std::uint32_t> boundMask;  ///< bit j: param j pinned at a bound
  std::array<int, kFitOutcomeCount> outcomeCounts{};
  std::uint64_t totalLmIterations = 0;

  /// First failed lane (singular-JtJ or non-finite), by lane index --
  /// deterministic regardless of worker count.
  struct FirstFailure {
    bool valid = false;
    std::size_t lane = 0;
    FitOutcome outcome = FitOutcome::converged;
    std::string message;
  } firstFailure;

  [[nodiscard]] std::span<const double> lane(std::size_t i) const {
    return {params.data() + i * paramCount, paramCount};
  }
  /// Fraction of lanes that extracted a valid card (converged + pinned).
  [[nodiscard]] double convergedFraction() const noexcept;
  [[nodiscard]] double meanIterationsPerFit() const noexcept;
  /// FNV-1a over every lane's outcome, bound mask, iteration count and
  /// fitted parameter bits: equal hashes mean bit-identical campaigns
  /// (the 1/2/4-worker scaling smoke compares exactly this).
  [[nodiscard]] std::uint64_t paramsFnv1a() const noexcept;
};

/// The multi-fit engine.  Construct once per extraction plan (family seed
/// card, geometry, measurement grid), then run() any number of campaigns.
/// Thread-safe for the duration of run(): per-worker state lives in
/// worker-local engines, the campaign object itself is read-only.
class FitCampaign {
 public:
  FitCampaign(const models::VsParams& seed, models::DeviceGeometry geometry,
              MeasurementGrid grid, FitCampaignOptions options = {});
  FitCampaign(const models::AlphaPowerParams& seed,
              models::DeviceGeometry geometry, MeasurementGrid grid,
              FitCampaignOptions options = {});
  FitCampaign(const models::BsimParams& seed, models::DeviceGeometry geometry,
              MeasurementGrid grid, FitCampaignOptions options = {});
  ~FitCampaign();

  FitCampaign(const FitCampaign&) = delete;
  FitCampaign& operator=(const FitCampaign&) = delete;

  [[nodiscard]] CardFamily family() const noexcept { return family_; }
  [[nodiscard]] std::size_t paramCount() const noexcept;
  [[nodiscard]] const MeasurementGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] const FitCampaignOptions& options() const noexcept {
    return options_;
  }

  /// Produces lane `lane`'s measurements.  Called once per lane with a
  /// decorrelated child RNG (root.fork(lane)), so datasets -- and therefore
  /// results -- are bit-identical across worker counts.  `dataset.id` is
  /// pre-sized to the grid.
  using DatasetFn =
      std::function<void(std::size_t lane, stats::Rng& rng, FitDataset& dataset)>;

  /// Runs `laneCount` independent fits over the thread pool.
  [[nodiscard]] FitCampaignResult run(std::size_t laneCount, std::uint64_t seed,
                                      const DatasetFn& makeDataset) const;

  /// Synthesizes one lane's dataset from a truth card: evaluates the truth
  /// model on every plan row (same evaluation path the fit uses) and
  /// applies multiplicative log-normal measurement noise of relative sigma
  /// `noiseRel` (0 = noiseless, which is how a golden-kit fit is run).
  void synthesizeDataset(const models::MosfetModel& truth, double noiseRel,
                         stats::Rng& rng, FitDataset& out) const;

  /// Reconstructs lane i's fitted card (campaign family must match).
  [[nodiscard]] models::VsParams vsCard(const FitCampaignResult& r,
                                        std::size_t lane) const;
  [[nodiscard]] models::AlphaPowerParams alphaCard(const FitCampaignResult& r,
                                                   std::size_t lane) const;
  [[nodiscard]] models::BsimParams bsimCard(const FitCampaignResult& r,
                                            std::size_t lane) const;

 private:
  friend struct LaneEngine;

  void finishInit();

  std::uint64_t id_ = 0;  ///< process-unique, keys the worker engine cache
  CardFamily family_;
  models::DeviceGeometry geometry_;
  MeasurementGrid grid_;
  FitCampaignOptions options_;
  linalg::LevMarOptions lmOptions_;  ///< bounds resolved at construction
  std::unique_ptr<models::MosfetModel> seed_;  ///< prototype card
  linalg::Vector x0_;                          ///< clamped seed parameters
};

}  // namespace vsstat::extract

#endif  // VSSTAT_EXTRACT_FIT_CAMPAIGN_HPP
