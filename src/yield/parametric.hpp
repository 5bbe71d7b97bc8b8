// Parametric yield: pass/fail statistics of a circuit metric against spec
// limits.  The paper points out that the statistical VS model "may be used
// to predict the distribution of frequency, leakage power, and even
// parametric yield" (Sec. IV-B); this module supplies the yield-side
// arithmetic -- Gaussian and empirical yield plus binomial confidence
// intervals -- used by the SRAM and timing examples.
#ifndef VSSTAT_YIELD_PARAMETRIC_HPP
#define VSSTAT_YIELD_PARAMETRIC_HPP

#include <cstddef>
#include <optional>
#include <vector>

#include "mc/runner.hpp"

namespace vsstat::yield {

/// One- or two-sided specification window; absent bounds are open.
struct SpecLimit {
  std::optional<double> lower;
  std::optional<double> upper;

  [[nodiscard]] bool passes(double value) const noexcept {
    if (lower && value < *lower) return false;
    if (upper && value > *upper) return false;
    return true;
  }
};

/// Yield of a Gaussian metric N(mean, sigma^2) against the spec window.
/// sigma must be positive; a spec with no bounds yields 1.
[[nodiscard]] double gaussianYield(double mean, double sigma,
                                   const SpecLimit& spec);

/// Fraction of samples inside the window.  Throws on empty input.
[[nodiscard]] double empiricalYield(const std::vector<double>& samples,
                                    const SpecLimit& spec);

/// Binomial yield estimate with a Wilson score interval.
struct YieldEstimate {
  double yield = 0.0;
  double lower = 0.0;   ///< Wilson interval bounds at the given z
  double upper = 0.0;
  long passed = 0;
  long total = 0;
};

/// Wilson score interval for `passed` successes in `total` trials;
/// z = 1.96 gives a 95% interval.  Throws when total <= 0 or counts are
/// inconsistent.
[[nodiscard]] YieldEstimate yieldWithConfidence(long passed, long total,
                                                double z = 1.96);

/// Convenience: empirical yield of samples with a Wilson interval.
[[nodiscard]] YieldEstimate yieldOfSamples(const std::vector<double>& samples,
                                           const SpecLimit& spec,
                                           double z = 1.96);

// --- campaign yield with an explicit dropped-sample policy -------------------

/// What a yield estimate does about samples the campaign dropped (solver
/// failures, undefined metrics).  Dropped corners are disproportionately
/// the extreme draws -- exactly the ones most likely to violate spec -- so
/// silently renormalizing over survivors biases yield OPTIMISTICALLY.  The
/// policy must be chosen, not defaulted away.
enum class DroppedSamplePolicy {
  /// Every dropped sample counts as a spec failure (conservative: the
  /// estimate is a lower bound on true yield).
  countAsFail,
  /// Dropped samples are excluded from the denominator (the legacy
  /// renormalizing behavior, now explicit -- optimistic on tail metrics).
  /// Pair it with an mc::CampaignHealth check so a degraded campaign fails
  /// loudly instead of reporting a biased number.
  drop,
};

struct DropPolicy {
  DroppedSamplePolicy mode = DroppedSamplePolicy::countAsFail;
};

/// Yield of campaign metric `metricIndex` against `spec` under an explicit
/// dropped-sample policy.  The Wilson interval uses the policy's effective
/// denominator (total samples for countAsFail, survivors otherwise).
[[nodiscard]] YieldEstimate yieldOfCampaign(const mc::McResult& result,
                                            std::size_t metricIndex,
                                            const SpecLimit& spec,
                                            const DropPolicy& policy,
                                            double z = 1.96);

}  // namespace vsstat::yield

#endif  // VSSTAT_YIELD_PARAMETRIC_HPP
