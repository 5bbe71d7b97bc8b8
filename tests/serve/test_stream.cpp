// Streaming estimator and frame builders (serve/stream.hpp): running
// statistics folded from campaign chunks, and the wire frames built from
// them.  Every frame must itself parse as JSON (clients round-trip them
// through serve::parseJson in the tests below, exactly as a real client
// would).
#include "serve/stream.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace vsstat::serve {
namespace {

/// Feeds `values` to an estimator as synthetic chunks of `chunk` samples;
/// indices `failAt` are marked failed (metricDomain) instead, indices
/// `rescuedAt` succeed on the rescue ladder's third attempt.
StreamingEstimator foldChunks(const std::vector<double>& values,
                              std::size_t chunk,
                              const std::vector<std::size_t>& failAt = {},
                              std::optional<yield::SpecLimit> spec = {},
                              const std::vector<std::size_t>& rescuedAt = {}) {
  StreamingEstimator est(1, spec);
  for (std::size_t first = 0; first < values.size(); first += chunk) {
    const std::size_t end = std::min(values.size(), first + chunk);
    std::vector<double> metrics(values.begin() +
                                    static_cast<std::ptrdiff_t>(first),
                                values.begin() +
                                    static_cast<std::ptrdiff_t>(end));
    std::vector<char> ok(end - first, 1);
    std::vector<signed char> cls(end - first, -1);
    std::vector<mc::SampleContext> contexts(end - first);
    for (const std::size_t r : rescuedAt)
      if (r >= first && r < end) contexts[r - first].rescueAttempts = 3;
    for (const std::size_t f : failAt)
      if (f >= first && f < end) {
        ok[f - first] = 0;
        cls[f - first] =
            static_cast<signed char>(FailureClass::metricDomain);
      }
    mc::McChunkView view;
    view.first = first;
    view.end = end;
    view.total = values.size();
    view.metricCount = 1;
    view.metrics = metrics.data();
    view.ok = ok.data();
    view.failureClass = cls.data();
    view.contexts = contexts.data();
    est.fold(view);
  }
  return est;
}

TEST(StreamingEstimator, MatchesExactMomentsOverChunks) {
  stats::Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.normal(1.0, 0.2));

  const StreamingEstimator est = foldChunks(values, 64);
  EXPECT_EQ(est.done(), 500u);
  EXPECT_EQ(est.okCount(), 500u);
  EXPECT_EQ(est.failureCount(), 0u);
  // Welford over chunks is the same recurrence as Welford over the stream.
  EXPECT_DOUBLE_EQ(est.mean(), stats::summarize(values).mean);
  EXPECT_DOUBLE_EQ(est.sigma(), stats::summarize(values).stddev);
  EXPECT_NEAR(est.q50(), stats::quantile(values, 0.5), 0.05);
  EXPECT_EQ(est.values(), values);
}

TEST(StreamingEstimator, CountsFailuresPerClassAndYieldsConservatively) {
  std::vector<double> values(100, 0.5);
  yield::SpecLimit spec;
  spec.upper = 1.0;
  const StreamingEstimator est =
      foldChunks(values, 32, {3, 50, 97}, spec, /*rescuedAt=*/{40});
  EXPECT_EQ(est.done(), 100u);
  EXPECT_EQ(est.okCount(), 97u);
  EXPECT_EQ(est.failureCount(), 3u);
  EXPECT_EQ(est.failureOf(static_cast<std::size_t>(
                FailureClass::metricDomain)),
            3);
  // One sample rescued on its third attempt counts once, as in the final
  // frame (McResult::rescued counts samples, not attempts).
  EXPECT_EQ(est.rescued(), 1);
  // countAsFail semantics: 97 passing survivors over 100 budgeted samples.
  ASSERT_TRUE(est.runningYield().has_value());
  EXPECT_DOUBLE_EQ(*est.runningYield(), 0.97);
}

TEST(Frames, ProgressFrameParsesBack) {
  const StreamingEstimator est = foldChunks({1.0, 2.0, 3.0, 4.0, 5.0}, 2);
  const JsonValue frame = parseJson(progressFrame("req-1", est, 12.5));
  EXPECT_EQ(frame.find("type")->string, "progress");
  EXPECT_EQ(frame.find("id")->string, "req-1");
  EXPECT_DOUBLE_EQ(frame.find("done")->number, 5.0);
  EXPECT_EQ(frame.find("mean")->number, est.mean());
  EXPECT_TRUE(frame.find("yield")->isNull());
  EXPECT_DOUBLE_EQ(frame.find("failures")->find("total")->number, 0.0);
  EXPECT_DOUBLE_EQ(frame.find("elapsed_ms")->number, 12.5);
}

TEST(Frames, KdeFrameCarriesTheCurve) {
  stats::Rng rng(9);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.normal());
  const StreamingEstimator est = foldChunks(values, 50);
  const JsonValue frame = parseJson(kdeFrame("k", est, 16));
  EXPECT_EQ(frame.find("type")->string, "kde");
  EXPECT_EQ(frame.find("x")->items.size(), 16u);
  EXPECT_EQ(frame.find("density")->items.size(), 16u);
  EXPECT_GT(frame.find("bandwidth")->number, 0.0);
}

TEST(Frames, FinalFrameIsExactAndHashed) {
  mc::McResult result;
  result.metrics = {{0.2, 0.4, 0.6, 0.8}};
  result.failures = 1;
  result.failuresByClass[static_cast<std::size_t>(
      FailureClass::nonConvergence)] = 1;
  yield::SpecLimit spec;
  spec.upper = 0.7;

  const std::string text =
      finalFrame("f", result, 5, spec, /*warm=*/true, 3.0, 9.0);
  const JsonValue frame = parseJson(text);
  EXPECT_EQ(frame.find("type")->string, "final");
  EXPECT_DOUBLE_EQ(frame.find("samples")->number, 5.0);
  EXPECT_DOUBLE_EQ(frame.find("ok")->number, 4.0);
  // Bit-exact against the same calls a client would make in-process.
  EXPECT_EQ(frame.find("mean")->number,
            stats::summarize(result.metrics[0]).mean);
  EXPECT_EQ(frame.find("sigma")->number,
            stats::summarize(result.metrics[0]).stddev);
  const yield::YieldEstimate y =
      yield::yieldOfCampaign(result, 0, spec, yield::DropPolicy{});
  EXPECT_EQ(frame.find("yield")->find("value")->number, y.yield);
  EXPECT_DOUBLE_EQ(frame.find("yield")->find("passed")->number,
                   static_cast<double>(y.passed));
  EXPECT_EQ(frame.find("cache")->string, "warm");
  // 1 failure in 5 samples = 20% > mc::kMaxDropFraction.
  EXPECT_EQ(frame.find("health")->string, "DEGRADED");
  EXPECT_EQ(frame.find("metrics_fnv1a")->string.substr(0, 2), "0x");
}

TEST(Frames, ErrorFrameCarriesCodeAndDeckLine) {
  const JsonValue deck =
      parseJson(errorFrame("e", RequestError::deckError, "bad card", 12));
  EXPECT_EQ(deck.find("type")->string, "error");
  EXPECT_EQ(deck.find("code")->string, "deck_error");
  EXPECT_DOUBLE_EQ(deck.find("line")->number, 12.0);
  EXPECT_EQ(deck.find("message")->string, "bad card");

  const JsonValue bad =
      parseJson(errorFrame("", RequestError::badJson, "oops"));
  EXPECT_EQ(bad.find("code")->string, "bad_json");
  EXPECT_EQ(bad.find("line"), nullptr) << "line is deck_error-only";
}

TEST(Frames, FingerprintIsOrderSensitive) {
  mc::McResult a;
  a.metrics = {{1.0, 2.0}};
  mc::McResult b;
  b.metrics = {{2.0, 1.0}};
  EXPECT_NE(metricsFingerprint(a), metricsFingerprint(b));
}

}  // namespace
}  // namespace vsstat::serve
