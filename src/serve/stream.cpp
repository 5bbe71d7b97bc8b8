#include "serve/stream.hpp"

#include <cinttypes>
#include <cstdio>

#include "stats/kde.hpp"
#include "util/fnv1a.hpp"

namespace vsstat::serve {

StreamingEstimator::StreamingEstimator(std::size_t metricCount,
                                       std::optional<yield::SpecLimit> spec)
    : metricCount_(metricCount), spec_(std::move(spec)) {
  require(metricCount_ > 0, "StreamingEstimator: metricCount must be > 0");
}

void StreamingEstimator::fold(const mc::McChunkView& view) {
  total_ = view.total;
  for (std::size_t i = view.first; i < view.end; ++i) {
    const std::size_t local = i - view.first;
    ++done_;
    if (view.ok[local] == 0) {
      ++failures_;
      const int cls = view.failureClass[local];
      if (cls >= 0 && cls < kFailureClassCount) ++failuresByClass_[cls];
      continue;
    }
    // Samples, not attempts: the final frame's McResult::rescued count.
    if (view.contexts[local].rescueAttempts > 0) ++rescued_;
    const double x = view.metrics[local * view.metricCount];
    moments_.add(x);
    q05_.add(x);
    q50_.add(x);
    q95_.add(x);
    if (spec_ && spec_->passes(x)) ++passed_;
    values_.push_back(x);
  }
}

double StreamingEstimator::q05() const {
  return q05_.count() == 0 ? 0.0 : q05_.value();
}
double StreamingEstimator::q50() const {
  return q50_.count() == 0 ? 0.0 : q50_.value();
}
double StreamingEstimator::q95() const {
  return q95_.count() == 0 ? 0.0 : q95_.value();
}

std::optional<double> StreamingEstimator::runningYield() const {
  if (!spec_ || done_ == 0) return std::nullopt;
  // Conservative running estimate: every dropped sample counts as a spec
  // failure, matching the final frame's DropPolicy::countAsFail.
  return static_cast<double>(passed_) / static_cast<double>(done_);
}

std::uint64_t metricsFingerprint(const mc::McResult& result) {
  util::Fnv1a hash;
  for (const std::vector<double>& row : result.metrics)
    for (const double v : row) hash.mixDouble(v);
  return hash.value();
}

namespace {

void appendKey(std::string& out, const char* key) {
  appendJsonString(out, key);
  out += ':';
}

void appendFailures(std::string& out, std::size_t totalFailures,
                    const std::array<int, kFailureClassCount>& byClass) {
  appendKey(out, "failures");
  out += "{\"total\":" + std::to_string(totalFailures);
  for (int c = 0; c < kFailureClassCount; ++c) {
    out += ',';
    appendKey(out, toString(static_cast<FailureClass>(c)));
    out += std::to_string(byClass[static_cast<std::size_t>(c)]);
  }
  out += '}';
}

void appendNumberField(std::string& out, const char* key, double v) {
  appendKey(out, key);
  appendJsonNumber(out, v);
}

}  // namespace

std::string progressFrame(const std::string& id, const StreamingEstimator& est,
                          double elapsedMs) {
  std::string out = "{\"type\":\"progress\",";
  appendKey(out, "id");
  appendJsonString(out, id);
  out += ",\"done\":" + std::to_string(est.done());
  out += ",\"total\":" + std::to_string(est.total());
  out += ",\"ok\":" + std::to_string(est.okCount());
  out += ',';
  appendNumberField(out, "mean", est.mean());
  out += ',';
  appendNumberField(out, "sigma", est.sigma());
  out += ',';
  appendNumberField(out, "q05", est.q05());
  out += ',';
  appendNumberField(out, "q50", est.q50());
  out += ',';
  appendNumberField(out, "q95", est.q95());
  out += ',';
  appendKey(out, "yield");
  if (const std::optional<double> y = est.runningYield()) {
    appendJsonNumber(out, *y);
  } else {
    out += "null";
  }
  out += ',';
  std::array<int, kFailureClassCount> byClass{};
  for (int c = 0; c < kFailureClassCount; ++c)
    byClass[static_cast<std::size_t>(c)] =
        est.failureOf(static_cast<std::size_t>(c));
  appendFailures(out, est.failureCount(), byClass);
  out += ",\"rescued\":" + std::to_string(est.rescued());
  out += ',';
  appendNumberField(out, "elapsed_ms", elapsedMs);
  out += '}';
  return out;
}

std::string kdeFrame(const std::string& id, const StreamingEstimator& est,
                     std::size_t points) {
  std::string out = "{\"type\":\"kde\",";
  appendKey(out, "id");
  appendJsonString(out, id);
  out += ",\"done\":" + std::to_string(est.done());
  if (est.values().size() >= 2) {
    const stats::KdeCurve curve = stats::kde(est.values(), points);
    out += ',';
    appendNumberField(out, "bandwidth", curve.bandwidth);
    out += ",\"x\":[";
    for (std::size_t i = 0; i < curve.x.size(); ++i) {
      if (i != 0) out += ',';
      appendJsonNumber(out, curve.x[i]);
    }
    out += "],\"density\":[";
    for (std::size_t i = 0; i < curve.density.size(); ++i) {
      if (i != 0) out += ',';
      appendJsonNumber(out, curve.density[i]);
    }
    out += ']';
  } else {
    // Too few survivors for a density estimate yet.
    out += ",\"bandwidth\":null,\"x\":[],\"density\":[]";
  }
  out += '}';
  return out;
}

std::string finalFrame(const std::string& id, const mc::McResult& result,
                       std::size_t totalSamples,
                       const std::optional<yield::SpecLimit>& spec, bool warm,
                       double ttfsMs, double elapsedMs) {
  const std::vector<double>& values = result.metrics.at(0);
  const stats::Summary summary =
      values.empty() ? stats::Summary{} : stats::summarize(values);

  std::string out = "{\"type\":\"final\",";
  appendKey(out, "id");
  appendJsonString(out, id);
  out += ",\"samples\":" + std::to_string(totalSamples);
  out += ",\"ok\":" + std::to_string(values.size());
  out += ',';
  appendNumberField(out, "mean", summary.mean);
  out += ',';
  appendNumberField(out, "sigma", summary.stddev);
  out += ',';
  appendNumberField(out, "min", summary.min);
  out += ',';
  appendNumberField(out, "max", summary.max);
  out += ',';
  appendNumberField(out, "median", summary.median);
  out += ',';
  appendNumberField(out, "q25", summary.q25);
  out += ',';
  appendNumberField(out, "q75", summary.q75);
  out += ',';
  appendKey(out, "yield");
  if (spec && !values.empty()) {
    const yield::YieldEstimate estimate =
        yield::yieldOfCampaign(result, 0, *spec, yield::DropPolicy{});
    out += "{\"value\":";
    appendJsonNumber(out, estimate.yield);
    out += ",\"lower\":";
    appendJsonNumber(out, estimate.lower);
    out += ",\"upper\":";
    appendJsonNumber(out, estimate.upper);
    out += ",\"passed\":" + std::to_string(estimate.passed);
    out += ",\"total\":" + std::to_string(estimate.total);
    out += '}';
  } else {
    out += "null";
  }
  out += ',';
  std::array<int, kFailureClassCount> byClass{};
  for (int c = 0; c < kFailureClassCount; ++c)
    byClass[static_cast<std::size_t>(c)] = result.failuresByClass[
        static_cast<std::size_t>(c)];
  appendFailures(out, static_cast<std::size_t>(result.failures), byClass);
  out += ",\"rescued\":" + std::to_string(result.rescued);
  char hashBuf[32];
  std::snprintf(hashBuf, sizeof hashBuf, "0x%016" PRIx64,
                metricsFingerprint(result));
  out += ',';
  appendKey(out, "metrics_fnv1a");
  appendJsonString(out, hashBuf);
  out += ",\"cache\":";
  appendJsonString(out, warm ? "warm" : "cold");
  const mc::CampaignHealth health{static_cast<std::size_t>(result.failures),
                                  totalSamples};
  out += ",\"health\":";
  appendJsonString(out, health.ok() ? "OK" : "DEGRADED");
  out += ',';
  appendNumberField(out, "ttfs_ms", ttfsMs);
  out += ',';
  appendNumberField(out, "elapsed_ms", elapsedMs);
  out += '}';
  return out;
}

std::string errorFrame(const std::string& id, RequestError code,
                       const std::string& message, int line) {
  std::string out = "{\"type\":\"error\",";
  appendKey(out, "id");
  appendJsonString(out, id);
  out += ",\"code\":";
  appendJsonString(out, toString(code));
  if (code == RequestError::deckError)
    out += ",\"line\":" + std::to_string(line);
  out += ",\"message\":";
  appendJsonString(out, message);
  out += '}';
  return out;
}

}  // namespace vsstat::serve
