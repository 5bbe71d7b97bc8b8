#include "stats/histogram.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace vsstat::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo) {
  require(bins > 0, "Histogram: bins must be > 0");
  require(hi > lo, "Histogram: need hi > lo");
  width_ = (hi - lo) / static_cast<double>(bins);
  counts_.assign(bins, 0);
}

Histogram Histogram::fromSamples(const std::vector<double>& samples,
                                 std::size_t bins) {
  require(!samples.empty(), "Histogram::fromSamples: empty sample");
  auto [mn, mx] = std::minmax_element(samples.begin(), samples.end());
  double lo = *mn;
  double hi = *mx;
  if (lo == hi) {
    lo -= 0.5;
    hi += 0.5;
  }
  // Nudge the top edge so the max sample falls inside the last bin.
  hi += (hi - lo) * 1e-9;
  Histogram h(lo, hi, bins);
  for (double s : samples) h.add(s);
  return h;
}

void Histogram::add(double x) noexcept {
  auto bin = static_cast<long>((x - lo_) / width_);
  bin = std::clamp<long>(bin, 0, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

std::size_t Histogram::count(std::size_t bin) const {
  require(bin < counts_.size(), "Histogram::count: bin out of range");
  return counts_[bin];
}

double Histogram::binCenter(std::size_t bin) const {
  require(bin < counts_.size(), "Histogram::binCenter: bin out of range");
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

std::vector<double> Histogram::density() const {
  std::vector<double> d(counts_.size(), 0.0);
  if (total_ == 0) return d;
  const double norm = 1.0 / (static_cast<double>(total_) * width_);
  for (std::size_t i = 0; i < counts_.size(); ++i)
    d[i] = static_cast<double>(counts_[i]) * norm;
  return d;
}

}  // namespace vsstat::stats
