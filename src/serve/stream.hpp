// Streaming campaign statistics and the server's outbound frame builders.
//
// A campaign request answers with a *stream* of line-delimited JSON frames
// rather than one blocking result: running estimates every stream_every
// samples, optional KDE snapshots, then one exact final frame.  This
// header owns both halves -- the StreamingEstimator that folds
// mc::McChunkView chunks into O(1)-memory running statistics, and the
// frame serializers.
//
// Frame schemas (one JSON object per line; "type" discriminates):
//
//   progress  {"type":"progress","id":...,"done":N,"total":N,"ok":N,
//              "mean":x,"sigma":x,"q05":x,"q50":x,"q95":x,
//              "yield":x|null,                    streamed pass fraction
//              "failures":{"total":n,"singular":n,"non-convergence":n,
//                          "non-finite":n,"metric-domain":n,
//                          "unclassified":n},
//              "rescued":n,"elapsed_ms":x}
//
//   kde       {"type":"kde","id":...,"done":N,"bandwidth":x,
//              "x":[...],"density":[...]}        metric-0 snapshot
//
//   final     {"type":"final","id":...,"samples":N,"ok":N,
//              "mean":x,"sigma":x,"min":x,"max":x,
//              "median":x,"q25":x,"q75":x,
//              "yield":{"value":x,"lower":x,"upper":x,
//                       "passed":n,"total":n}|null,
//              "failures":{...as progress...},"rescued":n,
//              "metrics_fnv1a":"0x...",          determinism fingerprint
//              "cache":"warm"|"cold","health":"OK"|"DEGRADED",
//              "ttfs_ms":x,"elapsed_ms":x}
//
//   error     {"type":"error","id":...,"code":"bad_json"|"bad_request"|
//              "deck_error"|"campaign_error","line":n,"message":"..."}
//              ("line" present only for deck_error, 1-based deck line)
//
// Bit-equality contract: the final frame's mean/sigma/quantiles come from
// stats::summarize over McResult::metrics[0] and its yield from
// yield::yieldOfCampaign -- the same calls an in-process campaign makes --
// and every double is serialized with %.17g, which round-trips exactly.
// A client parsing the final frame therefore recovers bit-identical
// statistics to running the campaign locally with the same seed.
#ifndef VSSTAT_SERVE_STREAM_HPP
#define VSSTAT_SERVE_STREAM_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mc/runner.hpp"
#include "serve/request.hpp"
#include "stats/descriptive.hpp"
#include "yield/parametric.hpp"

namespace vsstat::serve {

/// Folds completed campaign chunks (mc::McChunkView, index order) into
/// running statistics for progress frames: Welford moments and P-squared
/// quantiles of metric 0, streamed pass counts against the optional spec
/// window, per-class failure counts, rescued samples.  Metric-0 survivor
/// values are retained verbatim -- KDE snapshots and exactness checks need
/// them.
class StreamingEstimator {
 public:
  StreamingEstimator(std::size_t metricCount,
                     std::optional<yield::SpecLimit> spec);

  /// Folds one chunk; chunks must arrive in index order (the runner's
  /// ChunkFn contract guarantees it).
  void fold(const mc::McChunkView& view);

  [[nodiscard]] std::size_t done() const noexcept { return done_; }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t okCount() const noexcept { return values_.size(); }
  [[nodiscard]] std::size_t failureCount() const noexcept { return failures_; }
  [[nodiscard]] int failureOf(std::size_t classIndex) const noexcept {
    return failuresByClass_[classIndex];
  }
  [[nodiscard]] int rescued() const noexcept { return rescued_; }

  [[nodiscard]] double mean() const noexcept { return moments_.mean(); }
  [[nodiscard]] double sigma() const noexcept { return moments_.stddev(); }
  [[nodiscard]] double q05() const;
  [[nodiscard]] double q50() const;
  [[nodiscard]] double q95() const;
  /// Streamed pass fraction against the spec (failed samples count as spec
  /// failures -- the conservative DropPolicy); nullopt without a spec.
  [[nodiscard]] std::optional<double> runningYield() const;

  /// Metric-0 values of surviving samples, in sample-index order.
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

 private:
  std::size_t metricCount_;
  std::optional<yield::SpecLimit> spec_;
  std::size_t done_ = 0;
  std::size_t total_ = 0;
  std::size_t failures_ = 0;
  std::array<int, kFailureClassCount> failuresByClass_{};
  int rescued_ = 0;
  long passed_ = 0;
  stats::MomentAccumulator moments_;
  stats::StreamingQuantile q05_{0.05};
  stats::StreamingQuantile q50_{0.50};
  stats::StreamingQuantile q95_{0.95};
  std::vector<double> values_;
};

/// FNV-1a fingerprint over every metric row of a campaign result, row-major
/// (metric 0's samples, then metric 1's, ...).  The final frame reports it
/// and the scaling tests compare it across worker counts.
[[nodiscard]] std::uint64_t metricsFingerprint(const mc::McResult& result);

// --- frame builders (each returns one line WITHOUT the trailing '\n') ------

[[nodiscard]] std::string progressFrame(const std::string& id,
                                        const StreamingEstimator& est,
                                        double elapsedMs);

[[nodiscard]] std::string kdeFrame(const std::string& id,
                                   const StreamingEstimator& est,
                                   std::size_t points);

/// Builds the exact final frame from the finished campaign result.
/// `warm` reports whether the request leased a cached session pool; health
/// is the mc::CampaignHealth verdict over (failures, totalSamples).
[[nodiscard]] std::string finalFrame(const std::string& id,
                                     const mc::McResult& result,
                                     std::size_t totalSamples,
                                     const std::optional<yield::SpecLimit>& spec,
                                     bool warm, double ttfsMs,
                                     double elapsedMs);

[[nodiscard]] std::string errorFrame(const std::string& id, RequestError code,
                                     const std::string& message, int line = 0);

}  // namespace vsstat::serve

#endif  // VSSTAT_SERVE_STREAM_HPP
