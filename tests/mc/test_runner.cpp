#include "mc/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace vsstat::mc {
namespace {

TEST(McRunner, CollectsAllSamples) {
  McOptions opt;
  opt.samples = 100;
  const McResult r = runCampaign(
      opt, 2, [](std::size_t i, stats::Rng&, std::vector<double>& out) {
        out[0] = static_cast<double>(i);
        out[1] = 2.0 * static_cast<double>(i);
      });
  EXPECT_EQ(r.sampleCount(), 100u);
  EXPECT_EQ(r.failures, 0);
  EXPECT_EQ(r.metrics.size(), 2u);
}

TEST(McRunner, DeterministicAcrossThreadCounts) {
  const auto run = [](unsigned threads) {
    McOptions opt;
    opt.samples = 500;
    opt.seed = 99;
    opt.threads = threads;
    const McResult r = runCampaign(
        opt, 1, [](std::size_t, stats::Rng& rng, std::vector<double>& out) {
          out[0] = rng.normal();
        });
    return stats::mean(r.metrics[0]);
  };
  EXPECT_DOUBLE_EQ(run(1), run(4));
}

TEST(McRunner, SampleRngsAreDecorrelated) {
  McOptions opt;
  opt.samples = 20000;
  const McResult r = runCampaign(
      opt, 2, [](std::size_t, stats::Rng& rng, std::vector<double>& out) {
        out[0] = rng.normal();
        out[1] = rng.normal();
      });
  // Mean near zero and consecutive samples uncorrelated.
  EXPECT_NEAR(stats::mean(r.metrics[0]), 0.0, 0.03);
  EXPECT_NEAR(stats::correlation(r.metrics[0], r.metrics[1]), 0.0, 0.03);
}

TEST(McRunner, FailedSamplesAreDroppedAndCounted) {
  McOptions opt;
  opt.samples = 50;
  const McResult r = runCampaign(
      opt, 1, [](std::size_t i, stats::Rng&, std::vector<double>& out) {
        if (i % 5 == 0) throw ConvergenceError("non-convergent corner", 80);
        out[0] = 1.0;
      });
  EXPECT_EQ(r.failures, 10);
  EXPECT_EQ(r.sampleCount(), 40u);
  EXPECT_EQ(r.failuresOf(FailureClass::nonConvergence), 10);
  EXPECT_EQ(r.rescued, 0);
}

TEST(McRunner, FailuresAreClassifiedPerClassWithFirstFailureDiagnostics) {
  McOptions opt;
  opt.samples = 40;
  opt.seed = 3;
  const McResult r = runCampaign(
      opt, 1, [](std::size_t i, stats::Rng&, std::vector<double>& out) {
        if (i % 10 == 3) throw SingularMatrixError("pivot breakdown", 2);
        if (i % 10 == 5) throw NonFiniteError("NaN lane");
        if (i % 10 == 7) throw MetricDomainError("output never fell");
        out[0] = 1.0;
      });
  EXPECT_EQ(r.failures, 12);
  EXPECT_EQ(r.failuresOf(FailureClass::singular), 4);
  EXPECT_EQ(r.failuresOf(FailureClass::nonFinite), 4);
  EXPECT_EQ(r.failuresOf(FailureClass::metricDomain), 4);
  EXPECT_EQ(r.failuresOf(FailureClass::nonConvergence), 0);
  EXPECT_EQ(r.failuresOf(FailureClass::unclassified), 0);
  // First failure is the lowest-indexed one, independent of scheduling.
  ASSERT_TRUE(r.firstFailure.valid);
  EXPECT_EQ(r.firstFailure.sampleIndex, 3u);
  EXPECT_EQ(r.firstFailure.failureClass, FailureClass::singular);
  EXPECT_NE(r.firstFailure.message.find("pivot breakdown"),
            std::string::npos);
}

TEST(McRunner, SingularFailuresAreCaughtAsConvergenceErrors) {
  // SingularMatrixError derives from ConvergenceError (homotopy handlers
  // catch the base) yet carries the finer class for the taxonomy.
  try {
    throw SingularMatrixError("singular to working precision", 5);
  } catch (const ConvergenceError& e) {
    EXPECT_EQ(e.failureClass(), FailureClass::singular);
    EXPECT_EQ(e.iterations(), 5);
  }
}

TEST(McRunner, NonSampleFailuresPropagateOutOfTheCampaign) {
  // A programming error must abort the campaign, never be counted as a
  // dropped corner.
  McOptions opt;
  opt.samples = 8;
  opt.threads = 2;
  EXPECT_THROW(
      runCampaign(opt, 1,
                  [](std::size_t i, stats::Rng&, std::vector<double>& out) {
                    if (i == 5) throw std::runtime_error("logic bug");
                    out[0] = 1.0;
                  }),
      std::runtime_error);
}

TEST(McRunner, RescuedSamplesAreCountedViaTheSampleContext) {
  McOptions opt;
  opt.samples = 30;
  opt.sampleBlock = 4;
  // Chunks of 7 round up to whole blocks (8); each chunk view carries the
  // contexts the final reduction counts.
  std::vector<std::size_t> chunkStarts;
  int rescuedInChunks = 0;
  CampaignHooks hooks;
  hooks.chunkSamples = 7;
  hooks.onChunk = [&](const McChunkView& view) {
    chunkStarts.push_back(view.first);
    for (std::size_t k = 0; k < view.end - view.first; ++k)
      if (view.contexts[k].rescueAttempts > 0) ++rescuedInChunks;
  };
  const McResult r = runCampaign(
      opt, 1,
      SampleFnEx([](std::size_t i, stats::Rng&, std::vector<double>& out,
                    SampleContext& ctx) {
        out[0] = 1.0;
        if (i % 3 == 0) ctx.rescueAttempts = 1 + static_cast<int>(i % 4);
      }),
      hooks);
  EXPECT_EQ(r.failures, 0);
  EXPECT_EQ(r.rescued, 10) << "samples, not attempts";
  EXPECT_EQ(rescuedInChunks, 10);
  EXPECT_EQ(chunkStarts, (std::vector<std::size_t>{0, 8, 16, 24}));
}

TEST(McRunner, EachSampleReceivesItsBlocksResource) {
  McOptions opt;
  opt.samples = 22;
  opt.sampleBlock = 5;
  opt.threads = 3;
  CampaignHooks hooks;
  hooks.blockResource = [](std::size_t b) -> std::shared_ptr<void> {
    return std::make_shared<std::size_t>(b);
  };
  const auto blockOf = [](std::size_t, stats::Rng&, std::vector<double>& out,
                          SampleContext& ctx) {
    out[0] = ctx.block == nullptr
                 ? -1.0
                 : static_cast<double>(*static_cast<std::size_t*>(ctx.block));
  };
  const McResult blocked = runCampaign(opt, 1, SampleFnEx(blockOf), hooks);
  ASSERT_EQ(blocked.sampleCount(), 22u);
  for (std::size_t i = 0; i < 22; ++i)
    EXPECT_EQ(blocked.metrics[0][i], static_cast<double>(i / 5)) << i;

  opt.sampleBlock = 0;
  const McResult unblocked = runCampaign(opt, 1, SampleFnEx(blockOf), hooks);
  for (double v : unblocked.metrics[0]) EXPECT_EQ(v, -1.0);
}

TEST(McRunner, DifferentSeedsGiveDifferentStreams) {
  const auto run = [](std::uint64_t seed) {
    McOptions opt;
    opt.samples = 50;
    opt.seed = seed;
    const McResult r = runCampaign(
        opt, 1, [](std::size_t, stats::Rng& rng, std::vector<double>& out) {
          out[0] = rng.normal();
        });
    return r.metrics[0][0];
  };
  EXPECT_NE(run(1), run(2));
}

TEST(McRunner, SampleCountEnforcesTheSharedRowLengthContract) {
  // Rows are filled in lockstep (failure-drop contract, see runner.hpp):
  // a campaign result always satisfies sampleCount() + failures == samples.
  McOptions opt;
  opt.samples = 40;
  opt.seed = 9;
  const McResult r = runCampaign(
      opt, 2, [](std::size_t i, stats::Rng&, std::vector<double>& out) {
        if (i % 5 == 0) throw ConvergenceError("dropped corner", 80);
        out[0] = static_cast<double>(i);
        out[1] = -static_cast<double>(i);
      });
  EXPECT_EQ(r.metrics[0].size(), r.metrics[1].size());
  EXPECT_EQ(static_cast<int>(r.sampleCount()) + r.failures, opt.samples);

  // Hand-tampered ragged rows must be rejected loudly, not silently
  // reported as the first row's length.
  McResult ragged = r;
  ragged.metrics[1].pop_back();
  EXPECT_THROW((void)ragged.sampleCount(), InvalidArgumentError);
}

TEST(McRunner, RejectsBadOptions) {
  McOptions opt;
  opt.samples = 0;
  EXPECT_THROW(
      runCampaign(opt, 1,
                  [](std::size_t, stats::Rng&, std::vector<double>&) {}),
      InvalidArgumentError);
}

TEST(CampaignHealth, OneBudgetDecidesOkOrDegraded) {
  EXPECT_TRUE((CampaignHealth{0, 100}).ok());
  EXPECT_TRUE((CampaignHealth{1, 100}).ok()) << "exactly at the budget";
  EXPECT_FALSE((CampaignHealth{2, 100}).ok());
  EXPECT_FALSE((CampaignHealth{0, 0}).ok()) << "an empty budget is no run";
  EXPECT_EQ((CampaignHealth{1, 100}).line(),
            "campaign health: OK (drop fraction 1.00 % within 1 % budget)");
  EXPECT_EQ((CampaignHealth{3, 100}).line(),
            "campaign health: DEGRADED (drop fraction 3.00 % > 1 % budget)");
}

}  // namespace
}  // namespace vsstat::mc
