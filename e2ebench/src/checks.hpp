// Output checks of the end-to-end benchmark.  Each holds on any machine:
// none compares against a bit pattern recorded elsewhere.  The workloads
// and the self-test call the same functions, so the self-test's corrupted
// inputs exercise exactly the checks a timed run applies.
#ifndef E2EBENCH_CHECKS_HPP
#define E2EBENCH_CHECKS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "extract/fit_campaign.hpp"
#include "mc/runner.hpp"
#include "models/vs_params.hpp"

namespace e2e {
namespace extract = vsstat::extract;
namespace mc = vsstat::mc;
namespace models = vsstat::models;
namespace stats = vsstat::stats;
}  // namespace e2e

namespace e2e::checks {

/// Bit equality of two campaign results: every metric row, the failure
/// counts per class and the rescue count.  The runner's contract makes a
/// 1-worker replay of a campaign equal to its multi-worker run.
[[nodiscard]] bool sameCampaign(const mc::McResult& a, const mc::McResult& b);

/// Mean and sigma of `values` against a reference (mean, sigma, count):
/// each must lie within 3 standard errors of the difference, i.e. the
/// run's own error combined with the reference's at its sample count.
/// The sigma error uses the run's fourth moment, so it holds for the
/// skewed, heavy-tailed SNM distribution too.
struct MomentTest {
  bool ok = false;
  std::size_t n = 0;
  double mean = 0.0;
  double sigma = 0.0;
  double zMean = 0.0;   ///< |mean - ref| / combined standard error
  double zSigma = 0.0;  ///< |sigma - ref| / combined standard error
};
[[nodiscard]] MomentTest momentsMatch(const std::vector<double>& values,
                                      double refMean, double refSigma,
                                      double refCount);

/// Every worst-case IR drop lies in (0, supply).
[[nodiscard]] bool irDropsInRange(const std::vector<double>& drops,
                                  double supply);

// --- extraction -------------------------------------------------------------

/// The extraction population: each lane's truth is the default VS card
/// with vt0 shifted by a 15 mV normal draw, measured with 0.4 %
/// multiplicative noise -- the population bench_extract re-extracts.
inline constexpr double kVtSigma = 0.015;
inline constexpr double kNoiseRel = 0.004;
[[nodiscard]] extract::FitCampaign::DatasetFn population(
    const extract::FitCampaign& campaign, const models::VsParams& seed);
/// The truth vt0 of `lane` in the batch run with `batchSeed`.
[[nodiscard]] double truthVt0(const models::VsParams& seed,
                              std::uint64_t batchSeed, std::size_t lane);

/// Relative card-parameter error of every extracted lane (converged or
/// bound-pinned) against its truth card, accumulated over batches.
struct CardError {
  double sum = 0.0;
  std::size_t terms = 0;
  double max = 0.0;
  std::size_t lanes = 0;
  std::size_t extracted = 0;  ///< converged + bound-pinned lanes

  void add(const extract::FitCampaignResult& r, const models::VsParams& seed,
           std::uint64_t batchSeed);
  [[nodiscard]] double mean() const noexcept {
    return terms == 0 ? 0.0 : sum / static_cast<double>(terms);
  }
  [[nodiscard]] double convergedFraction() const noexcept {
    return lanes == 0 ? 0.0
                      : static_cast<double>(extracted) /
                            static_cast<double>(lanes);
  }
  /// The card-recovery ceilings: mean <= 0.05, max <= 0.25, and at least
  /// 90 % of lanes extracted.
  [[nodiscard]] bool withinCeilings() const noexcept {
    return lanes > 0 && mean() <= 0.05 && max <= 0.25 &&
           convergedFraction() >= 0.9;
  }
};

// --- serve ------------------------------------------------------------------

/// The fields of a final frame the checks read.
struct FinalFrame {
  bool valid = false;
  std::string hash;  ///< metrics_fnv1a
  std::string cache; ///< "warm" | "cold"
  long samples = -1;
  long ok = -1;
  long failures = -1;
};
[[nodiscard]] FinalFrame parseFinalFrame(const std::string& frame);

/// The "message" of an error frame ("" when the text is no error frame).
[[nodiscard]] std::string errorFrameMessage(const std::string& frame);

/// The fingerprint text a final frame carries for `result`.
[[nodiscard]] std::string fingerprintText(const mc::McResult& result);

/// A final frame answers its request: it reports the requested sample
/// budget, `ok + failures == samples`, and the fingerprint of an
/// independent replay of the same request.
[[nodiscard]] bool finalFrameHolds(const FinalFrame& frame,
                                   long requestedSamples,
                                   const std::string& replayHash);

}  // namespace e2e::checks

#endif  // E2EBENCH_CHECKS_HPP
