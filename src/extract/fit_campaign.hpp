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

/// One bias point of the campaign's shared measurement plan.
struct IvPoint {
  double vgs = 0.0;
  double vds = 0.0;
  bool logSpace = false;  ///< subthreshold/transfer points compare in log space
};

/// The measurement plan every lane shares: bias points, the Cgg anchor at
/// (vdd, vdd), and the residual weights (same scheme as extract::fit).
struct MeasurementGrid {
  std::vector<IvPoint> points;
  double vdd = 0.9;
  double logWeight = 0.55;  ///< weight of log-space Id residuals
  double relWeight = 1.5;   ///< weight of relative-space Id residuals
  double cggWeight = 4.0;   ///< weight of the single Cgg point
};

/// The full-pipeline VS plan: two-bias Id-Vg scan (log space, subthreshold
/// decades count) plus a three-gate-bias Id-Vd family (relative space).
[[nodiscard]] MeasurementGrid vsMeasurementGrid(double vdd = 0.9,
                                                double vgsStep = 0.1,
                                                double vdsStep = 0.1,
                                                double vdsLin = 0.05);

/// Strong-inversion-only plan (all relative space) for families with no
/// subthreshold conduction to fit (alpha-power law).
[[nodiscard]] MeasurementGrid strongInversionGrid(double vdd = 0.9,
                                                  double vgsStep = 0.1,
                                                  double vdsStep = 0.1,
                                                  double vdsLin = 0.05);

/// One lane's measurements on the campaign grid.
struct FitDataset {
  std::vector<double> id;  ///< drain current per grid point [A]
  double cgg = 0.0;        ///< gate capacitance at (vdd, vdd) [F]
};

struct FitCampaignOptions {
  int maxIterations = 60;
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
  /// model on the campaign grid (same evaluation path the fit uses) and
  /// applies multiplicative log-normal measurement noise of relative sigma
  /// `noiseRel` (0 = noiseless).
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
