#include "yield/parametric.hpp"

#include <cmath>

#include "stats/qq.hpp"
#include "util/error.hpp"

namespace vsstat::yield {

double gaussianYield(double mean, double sigma, const SpecLimit& spec) {
  require(sigma > 0.0, "gaussianYield: sigma must be positive");
  double y = 1.0;
  if (spec.upper) y = stats::normalCdf((*spec.upper - mean) / sigma);
  if (spec.lower) y -= stats::normalCdf((*spec.lower - mean) / sigma);
  return std::max(y, 0.0);
}

double empiricalYield(const std::vector<double>& samples,
                      const SpecLimit& spec) {
  require(!samples.empty(), "empiricalYield: no samples");
  long passed = 0;
  for (double v : samples) passed += spec.passes(v) ? 1 : 0;
  return static_cast<double>(passed) / static_cast<double>(samples.size());
}

YieldEstimate yieldWithConfidence(long passed, long total, double z) {
  require(total > 0, "yieldWithConfidence: total must be positive");
  require(passed >= 0 && passed <= total,
          "yieldWithConfidence: passed out of range");
  require(z > 0.0, "yieldWithConfidence: z must be positive");

  const double n = static_cast<double>(total);
  const double p = static_cast<double>(passed) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double centre = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;

  YieldEstimate e;
  e.yield = p;
  e.lower = std::max(centre - half, 0.0);
  e.upper = std::min(centre + half, 1.0);
  e.passed = passed;
  e.total = total;
  return e;
}

YieldEstimate yieldOfSamples(const std::vector<double>& samples,
                             const SpecLimit& spec, double z) {
  require(!samples.empty(), "yieldOfSamples: no samples");
  long passed = 0;
  for (double v : samples) passed += spec.passes(v) ? 1 : 0;
  return yieldWithConfidence(passed, static_cast<long>(samples.size()), z);
}

YieldEstimate yieldOfCampaign(const mc::McResult& result,
                              std::size_t metricIndex, const SpecLimit& spec,
                              const DropPolicy& policy, double z) {
  require(metricIndex < result.metrics.size(),
          "yieldOfCampaign: metric index out of range");
  const std::vector<double>& samples = result.metrics[metricIndex];
  const long survivors = static_cast<long>(result.sampleCount());
  const long dropped = result.failures;
  const long total = survivors + dropped;
  require(total > 0, "yieldOfCampaign: empty campaign");

  long passed = 0;
  for (double v : samples) passed += spec.passes(v) ? 1 : 0;
  if (policy.mode == DroppedSamplePolicy::countAsFail) {
    // Dropped corners count against yield: the denominator is the FULL
    // campaign, and none of the dropped samples contribute a pass.
    return yieldWithConfidence(passed, total, z);
  }
  require(survivors > 0, "yieldOfCampaign: every sample was dropped");
  return yieldWithConfidence(passed, survivors, z);
}

}  // namespace vsstat::yield
