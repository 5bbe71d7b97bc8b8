// extract_batch: closed loop of extract::FitCampaign::run batches of VS
// card fits (banked lanes, fast numerics, kWorkers workers).  Every
// simulation layer is idle; extract/, linalg::levmar and the device
// bank's rebindUniform / evaluateLoadBatch do the work.
//
// Set-up is a fresh FitCampaign's construction plus its first run(), whose
// workers build their lane engines; it is repeated kColdCampaigns times
// before the timed phase, which then runs warm batches on one campaign.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "extract/fit_campaign.hpp"
#include "models/vs_model.hpp"

namespace e2e {
namespace {

using namespace vsstat;
using extract::FitCampaign;
using extract::FitCampaignResult;
using extract::FitOutcome;

constexpr std::size_t kBatchFits = 128;
constexpr int kColdCampaigns = 51;
constexpr std::size_t kReplayBatches = 2;
const models::DeviceGeometry kGeometry{80e-9, 40e-9};

std::unique_ptr<FitCampaign> makeCampaign(unsigned threads) {
  extract::FitCampaignOptions opt;
  opt.threads = threads;
  opt.numerics = models::NumericsMode::fast;
  return std::make_unique<FitCampaign>(models::VsParams{}, kGeometry,
                                       extract::vsMeasurementGrid(), opt);
}

struct BatchRecord {
  std::uint64_t seed = 0;
  FitCampaignResult result;
  double wallMs = 0.0;  ///< from `start` until run() returned
};

/// One batch, timed from `start`.
BatchRecord runBatch(const FitCampaign& campaign, std::uint64_t seed,
                     Clock::time_point start, Tracer* tracer,
                     std::int64_t request) {
  BatchRecord rec;
  rec.seed = seed;
  const FitCampaign::DatasetFn synthesize =
      checks::population(campaign, models::VsParams{});
  {
    const SpanScope batch(tracer, "extract.batch", -1, request);
    const int batchId = batch.id();
    rec.result = campaign.run(
        kBatchFits, seed,
        [&](std::size_t lane, stats::Rng& rng, extract::FitDataset& d) {
          const SpanScope s(tracer, "extract.dataset", batchId, request);
          synthesize(lane, rng, d);
        });
  }
  rec.wallMs = msBetween(start, Clock::now());
  return rec;
}

struct Phase {
  std::vector<BatchRecord> batches;
  double wallS = 0.0;
};

/// Warm batches on `campaign` until `seconds` elapsed (count < 0) or
/// exactly `count` batches; batch k is seeded from (run seed, k).
Phase runPhase(const FitCampaign& campaign, const Options& o, double seconds,
               long count, Tracer* tracer) {
  Phase p;
  const Clock::time_point start = Clock::now();
  for (long k = 0;; ++k) {
    if (count >= 0 ? k >= count
                   : secondsBetween(start, Clock::now()) >= seconds)
      break;
    p.batches.push_back(runBatch(campaign,
                                 mixSeed(o.seed, static_cast<std::uint64_t>(k)),
                                 Clock::now(), tracer, k));
  }
  p.wallS = secondsBetween(start, Clock::now());
  return p;
}

void checkBatches(const std::vector<BatchRecord>& cold, const Phase& p,
                  Report& report) {
  checks::CardError err;
  for (const BatchRecord& b : cold) err.add(b.result, models::VsParams{}, b.seed);
  for (const BatchRecord& b : p.batches)
    err.add(b.result, models::VsParams{}, b.seed);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "extract_batch: %zu fits, card error mean %.4f <= 0.05, max "
                "%.4f <= 0.25, converged fraction %.4f >= 0.9",
                err.lanes, err.mean(), err.max, err.convergedFraction());
  report.check(err.withinCeilings(), buf);

  const std::unique_ptr<FitCampaign> serial = makeCampaign(1);
  bool same = !p.batches.empty();
  const std::size_t replays = std::min(kReplayBatches, p.batches.size());
  for (std::size_t i = 0; i < replays; ++i) {
    const FitCampaignResult again =
        serial->run(kBatchFits, p.batches[i].seed,
                    checks::population(*serial, models::VsParams{}));
    same = same && again.paramsFnv1a() == p.batches[i].result.paramsFnv1a() &&
           again.outcomes == p.batches[i].result.outcomes;
  }
  report.check(same, "extract_batch: 1-worker replay of the first " +
                         std::to_string(replays) +
                         " batches is bit-equal to the timed batches");
}

}  // namespace

void runExtractBatch(const Options& o, Report& report, Tracer* tracer) {
  // Warm-up: the thread pool and first-touch page faults stay out of the
  // set-up figures.
  (void)runBatch(*makeCampaign(kWorkers), mixSeed(o.seed, 1ULL << 42),
                 Clock::now(), nullptr, -1);
  // Set-up: fresh campaigns, each constructed and run once (cold).
  std::vector<BatchRecord> cold;
  RunTimings t;
  for (int i = 0; i < kColdCampaigns; ++i) {
    const Clock::time_point start = Clock::now();
    const std::unique_ptr<FitCampaign> campaign = makeCampaign(kWorkers);
    cold.push_back(runBatch(*campaign, mixSeed(o.seed, (1ULL << 40) + i), start,
                            nullptr, -1));
    t.setupS.push_back(cold.back().wallMs * 1e-3);
    // run() returns every lane at once: the first result is the batch.
    t.coldTtfsMs.push_back(cold.back().wallMs);
  }
  const std::unique_ptr<FitCampaign> campaign = makeCampaign(kWorkers);
  (void)runBatch(*campaign, mixSeed(o.seed, 1ULL << 41), Clock::now(), nullptr,
                 -1);  // builds this campaign's lane engines

  // The operation is one FitCampaign::run batch; a batch that throws ends
  // the run.  Fits that end stalled, singular-JtJ or non-finite are part of
  // a batch's result: the card-error check bounds them (converged fraction
  // >= 0.9) and the note line counts them.
  const auto countOutcomes = [&](const Phase& p) {
    std::array<long, extract::kFitOutcomeCount> fits{};
    for (const std::vector<BatchRecord>* set :
         {static_cast<const std::vector<BatchRecord>*>(&cold), &p.batches})
      for (const BatchRecord& b : *set)
        for (int k = 0; k < extract::kFitOutcomeCount; ++k)
          fits[static_cast<std::size_t>(k)] +=
              b.result.outcomeCounts[static_cast<std::size_t>(k)];
    report.attempted = static_cast<long>(cold.size() + p.batches.size());
    report.failed = 0;
    report.note("extract_batch fit outcomes: " + std::to_string(fits[0]) +
                " converged, " + std::to_string(fits[1]) + " bound-pinned, " +
                std::to_string(fits[2]) + " stalled, " +
                std::to_string(fits[3]) + " singular-JtJ, " +
                std::to_string(fits[4]) + " non-finite");
  };

  if (tracer == nullptr) {
    const Phase p = runPhase(*campaign, o, o.seconds, -1, nullptr);
    t.peakRssMiB = peakRssMiB();  // before the checks' replays allocate
    checkBatches(cold, p, report);
    countOutcomes(p);
    for (const BatchRecord& b : p.batches) {
      t.requestMs.push_back(b.wallMs);
      t.ttfsMs.push_back(b.wallMs);
      t.samples += static_cast<double>(b.result.laneCount);
    }
    t.completed = static_cast<double>(p.batches.size());
    t.wallS = p.wallS;
    report.note("extract_batch: " + std::to_string(p.batches.size()) +
                " warm batches of " + std::to_string(kBatchFits) +
                " fits on " + std::to_string(kWorkers) + " workers, " +
                std::to_string(kColdCampaigns) + " cold campaigns");
    report.endToEnd(t);
    return;
  }

  const Phase plain = runPhase(*campaign, o, o.seconds / 2, -1, nullptr);
  const Phase traced = runPhase(*campaign, o, 0,
                                static_cast<long>(plain.batches.size()), tracer);
  checkBatches(cold, plain, report);
  bool same = plain.batches.size() == traced.batches.size();
  for (std::size_t i = 0; same && i < plain.batches.size(); ++i)
    same = plain.batches[i].result.paramsFnv1a() ==
           traced.batches[i].result.paramsFnv1a();
  report.check(same,
               "extract_batch: traced batches are bit-equal to the untraced "
               "batches");
  countOutcomes(traced);

  std::map<std::string, double> v;
  double fits = 0.0;
  double lmIterations = 0.0;
  std::array<double, extract::kFitOutcomeCount> outcomes{};
  for (const BatchRecord& b : traced.batches) {
    fits += static_cast<double>(b.result.laneCount);
    lmIterations += static_cast<double>(b.result.totalLmIterations);
    for (int k = 0; k < extract::kFitOutcomeCount; ++k)
      outcomes[static_cast<std::size_t>(k)] +=
          b.result.outcomeCounts[static_cast<std::size_t>(k)];
  }
  v["extract.batch_ms"] = tracer->totalNs("extract.batch") / 1e6 /
                          static_cast<double>(traced.batches.size());
  v["extract.lm_iters_per_fit"] = lmIterations / fits;
  v["extract.outcome.converged"] = outcomes[0];
  v["extract.outcome.bound_pinned"] = outcomes[1];
  v["extract.outcome.stalled"] = outcomes[2];
  v["extract.outcome.singular_jtj"] = outcomes[3];
  v["extract.outcome.non_finite"] = outcomes[4];
  v["trace.closure"] = tracer->topLevelNs() / 1e9 / traced.wallS;
  v["trace.overhead"] = traced.wallS / plain.wallS;

  // Device-bank probe on the campaign's own layout: one card, one lane per
  // bias point of the measurement grid.
  const extract::MeasurementGrid& grid = campaign->grid();
  const models::VsModel card{models::VsParams{}};
  const std::unique_ptr<models::MosfetLoadBank> bank =
      models::makeUniformLoadBank(card, kGeometry, grid.points.size(),
                                  models::NumericsMode::fast);
  std::vector<double> vgs;
  std::vector<double> vds;
  for (const extract::IvPoint& pt : grid.points) {
    vgs.push_back(pt.vgs);
    vds.push_back(pt.vds);
  }
  std::vector<models::MosfetLoadEvaluation> evals(grid.points.size());
  v["models.device_eval_ns"] =
      timeRepeated([&] { bank->evaluateLoadBatch(vgs, vds, 1e-3, evals); },
                   50, 3) *
      1e3 / static_cast<double>(grid.points.size());
  report.note("extract_batch traced: " + std::to_string(traced.batches.size()) +
              " batches, untraced " + std::to_string(plain.wallS) +
              " s, traced " + std::to_string(traced.wallS) + " s");
  report.perLayer(v);
}

bool selfTestExtract(const Options& o) {
  const std::uint64_t seed = mixSeed(o.seed, 7);
  const std::unique_ptr<FitCampaign> campaign = makeCampaign(kWorkers);
  const std::unique_ptr<FitCampaign> serial = makeCampaign(1);
  const FitCampaignResult r =
      campaign->run(64, seed, checks::population(*campaign, models::VsParams{}));
  const FitCampaignResult s =
      serial->run(64, seed, checks::population(*serial, models::VsParams{}));
  bool ok = true;
  FitCampaignResult flipped = r;
  flipped.params[3] = std::nextafter(flipped.params[3], 0.0);
  ok &= expectCheck(
      "extract_batch replay bit-equality (one parameter off by one ulp)",
      s.paramsFnv1a() == r.paramsFnv1a(),
      s.paramsFnv1a() == flipped.paramsFnv1a());

  const auto ceilings = [&](const FitCampaignResult& x) {
    checks::CardError e;
    e.add(x, models::VsParams{}, seed);
    return e.withinCeilings();
  };
  FitCampaignResult off = r;
  for (std::size_t lane = 0; lane < off.laneCount; ++lane)
    if (off.outcomes[lane] == FitOutcome::converged) {
      off.params[lane * off.paramCount + 3] *= 1.3;  // vxo 30 % off
      break;
    }
  ok &= expectCheck("extract_batch card-error ceiling (one card 30 % off)",
                    ceilings(r), ceilings(off));
  FitCampaignResult stalled = r;
  for (std::size_t lane = 0; lane < 8; ++lane)
    stalled.outcomes[lane] = FitOutcome::stalled;
  ok &= expectCheck("extract_batch converged fraction (8 of 64 lanes stalled)",
                    ceilings(r), ceilings(stalled));
  return ok;
}

}  // namespace e2e
