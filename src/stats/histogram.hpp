// Fixed-bin histogram with optional probability-density normalization.
#ifndef VSSTAT_STATS_HISTOGRAM_HPP
#define VSSTAT_STATS_HISTOGRAM_HPP

#include <cstddef>
#include <vector>

namespace vsstat::stats {

class Histogram {
 public:
  /// Builds a histogram over [lo, hi) with `bins` equal-width bins.
  Histogram(double lo, double hi, std::size_t bins);

  /// Convenience: auto range [min, max] from the sample, then count.
  static Histogram fromSamples(const std::vector<double>& samples,
                               std::size_t bins);

  void add(double x) noexcept;   ///< out-of-range values clamp to edge bins

  [[nodiscard]] std::size_t binCount() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const;
  [[nodiscard]] double binCenter(std::size_t bin) const;
  [[nodiscard]] double binWidth() const noexcept { return width_; }
  [[nodiscard]] std::size_t totalCount() const noexcept { return total_; }

  /// Probability density per bin (integrates to ~1 over the range).
  [[nodiscard]] std::vector<double> density() const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace vsstat::stats

#endif  // VSSTAT_STATS_HISTOGRAM_HPP
