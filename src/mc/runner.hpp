// Generic Monte Carlo campaign runner.
//
// A campaign evaluates a user function once per sample; each sample gets a
// decorrelated child RNG derived from (campaign seed, sample index), so
// results are bit-identical regardless of thread count.  Samples that fail
// (non-convergent circuits under extreme mismatch) are dropped and counted
// PER FAILURE CLASS: only exceptions deriving from vsstat::SampleFailure
// are treated as dropped corners -- anything else is a programming error
// and propagates out of runCampaign on the calling thread.
#ifndef VSSTAT_MC_RUNNER_HPP
#define VSSTAT_MC_RUNNER_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "stats/rng.hpp"
#include "util/error.hpp"

namespace vsstat::mc {

struct McOptions {
  int samples = 1000;
  std::uint64_t seed = 42;
  unsigned threads = 0;  ///< 0 == hardware concurrency
  /// When > 0, samples are dispatched to workers as contiguous fixed-size
  /// index blocks, each processed serially in index order on one worker
  /// (the statistical-tier warm-chain unit: sample k seeds from sample
  /// k-1 within a block, and blocks start cold).  Because the block
  /// geometry depends only on this value -- never on the thread count or
  /// the schedule -- blocked campaigns stay bit-identical across 1/2/4/...
  /// workers, exactly like the default per-sample dispatch (0).
  int sampleBlock = 0;
};

struct McResult {
  /// metrics[m][k]: metric m of the k-th *successful* sample.
  ///
  /// Failure-drop contract: a sample whose function throws a SampleFailure
  /// (or underfills its output) is dropped from EVERY metric row and
  /// counted once in `failures` -- rows are filled in lockstep, so all rows
  /// always share one length, and row index k refers to the same surviving
  /// sample in every metric.  `sampleCount() + failures == McOptions::
  /// samples` for a result produced by runCampaign.
  std::vector<std::vector<double>> metrics;
  int failures = 0;

  /// Dropped samples per FailureClass, indexed by static_cast<int>(class).
  /// Sums to `failures`.  Yield estimators consume this instead of
  /// silently renormalizing over survivors (yield::yieldOfCampaign).
  std::array<int, kFailureClassCount> failuresByClass{};
  [[nodiscard]] int failuresOf(FailureClass c) const noexcept {
    return failuresByClass[static_cast<std::size_t>(c)];
  }

  /// Successful samples that needed at least one rescue-ladder retry
  /// (the circuit campaigns' rescue ladder); 0 for plain sample functions.
  int rescued = 0;

  /// Newton-iteration telemetry summed over SUCCESSFUL samples (filled by
  /// sample functions that report it through SampleContext -- the circuit
  /// campaign's rescue wrapper does; plain functions leave it 0).  Makes
  /// statistical-tier iteration savings observable: mean iters/sample and
  /// the fraction of warm-start opportunities that actually seeded.
  std::uint64_t newtonIterations = 0;
  std::uint64_t warmStartHits = 0;
  std::uint64_t warmStartOpportunities = 0;
  [[nodiscard]] double meanIterationsPerSample() const {
    const std::size_t n = sampleCount();
    return n == 0 ? 0.0
                  : static_cast<double>(newtonIterations) /
                        static_cast<double>(n);
  }
  [[nodiscard]] double warmStartHitRate() const noexcept {
    return warmStartOpportunities == 0
               ? 0.0
               : static_cast<double>(warmStartHits) /
                     static_cast<double>(warmStartOpportunities);
  }

  /// Diagnostics of the LOWEST-INDEXED failed sample -- deterministic by
  /// construction (reduction runs in index order, never schedule order).
  struct FirstFailure {
    bool valid = false;
    std::size_t sampleIndex = 0;
    FailureClass failureClass = FailureClass::unclassified;
    std::string message;
  };
  FirstFailure firstFailure;

  /// Number of successful samples (the shared row length).  Throws
  /// InvalidArgumentError if the rows have been tampered into raggedness.
  [[nodiscard]] std::size_t sampleCount() const;
};

/// Out-parameter a sample function may fill to report how its evaluation
/// went (beyond success/failure).  Campaign-level wrappers (the rescue
/// ladder) use it to flag rescued samples in the result taxonomy.
struct SampleContext {
  int rescueAttempts = 0;  ///< rescue-ladder retries consumed (0 = clean)
  // Per-sample Newton telemetry (sim::runSampleWithRescue fills these by
  // diffing SimSession::iterationTelemetry around the sample; reduced into
  // the McResult aggregates in index order).
  std::uint64_t newtonIterations = 0;
  std::uint64_t warmStartHits = 0;
  std::uint64_t warmStartOpportunities = 0;
  /// Set by the runner, not the sample: the resource that
  /// CampaignHooks::blockResource returned for this sample's block, null
  /// outside blocked campaigns.  Valid for the duration of the call.
  void* block = nullptr;
};

/// Sample function: fills `out` (size metricCount) for the given sample.
using SampleFn =
    std::function<void(std::size_t index, stats::Rng& rng, std::vector<double>& out)>;

/// Extended sample function: also reports per-sample context.
using SampleFnEx = std::function<void(
    std::size_t index, stats::Rng& rng, std::vector<double>& out,
    SampleContext& ctx)>;

/// Block-scoped resource hook for blocked campaigns (McOptions::
/// sampleBlock > 0): invoked on the executing worker before a block's
/// first sample; the returned owner lives until the block's last sample
/// finished and reaches each of them as SampleContext::block.  Circuit
/// campaigns hold one session lease per warm chain.
using BlockResourceFn =
    std::function<std::shared_ptr<void>(std::size_t blockIndex)>;

/// Read-only view of one completed chunk of a chunked campaign: the
/// per-sample storage for sample indices [first, end), in index order.
/// Pointers are borrowed from the runner's flat buffers and are valid only
/// for the duration of the callback.
struct McChunkView {
  std::size_t first = 0;  ///< chunk's first sample index
  std::size_t end = 0;    ///< one past the chunk's last sample index
  std::size_t total = 0;  ///< campaign sample budget
  std::size_t metricCount = 0;
  /// Sample-major metric rows: metrics[(i - first) * metricCount + m] is
  /// metric m of sample i -- meaningful only where ok[i - first] != 0.
  const double* metrics = nullptr;
  const char* ok = nullptr;
  /// Failure class per sample (-1 = none recorded); see FailureClass.
  const signed char* failureClass = nullptr;
  /// What each sample reported (rescue attempts, Newton telemetry) --
  /// meaningful only where ok[i - first] != 0.
  const SampleContext* contexts = nullptr;
};

/// Invoked on the CALLING thread after each chunk's workers drain, in chunk
/// order.  Streaming estimators (serve/stream.hpp) fold each view into
/// running statistics so long campaigns report progress incrementally.
using ChunkFn = std::function<void(const McChunkView&)>;

/// Optional hooks of the extended runCampaign form.  Chunking: samples go
/// to the persistent thread pool in contiguous index chunks of
/// ~chunkSamples (<= 0: one chunk), rounded up to whole sampleBlock blocks
/// so warm chains never straddle a chunk, with onChunk called between
/// chunks.  util::ThreadPool runs one sweep at a time, so chunking lets
/// concurrent campaigns (the server's requests) interleave.  Chunk geometry
/// changes scheduling only, never RNG streams, warm chains or reduction
/// order.
struct CampaignHooks {
  BlockResourceFn blockResource;  ///< may be null
  int chunkSamples = 0;
  ChunkFn onChunk;  ///< may be null
};

[[nodiscard]] McResult runCampaign(const McOptions& options,
                                   std::size_t metricCount,
                                   const SampleFn& fn);

[[nodiscard]] McResult runCampaign(const McOptions& options,
                                   std::size_t metricCount,
                                   const SampleFnEx& fn,
                                   const CampaignHooks& hooks = {});

/// Largest dropped-sample fraction of a healthy campaign: the one budget
/// behind every "campaign health" verdict.
inline constexpr double kMaxDropFraction = 0.01;

/// Health verdict of a campaign (or several pooled) that dropped `dropped`
/// of its `budget` samples: OK while at most kMaxDropFraction of a
/// non-empty budget was dropped.
struct CampaignHealth {
  std::size_t dropped = 0;
  std::size_t budget = 0;

  [[nodiscard]] double dropFraction() const noexcept {
    return budget == 0 ? 1.0
                       : static_cast<double>(dropped) /
                             static_cast<double>(budget);
  }
  [[nodiscard]] bool ok() const noexcept {
    return dropFraction() <= kMaxDropFraction;
  }
  /// "campaign health: OK (...)" or "campaign health: DEGRADED (...)".
  [[nodiscard]] std::string line() const;
};

}  // namespace vsstat::mc

#endif  // VSSTAT_MC_RUNNER_HPP
