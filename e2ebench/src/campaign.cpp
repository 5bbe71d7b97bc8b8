// snm_yield and grid_ir64: closed loops of mc::runCampaign calls, one
// caller, kWorkers workers per call.  Every call builds its own session
// pool, so each call's set-up (fixture and session build, pattern capture)
// is measured as the time from the call to the first sample-function
// entry.  In the fresh solver mode the sparse ordering runs inside the
// first factor, so it lands in the call's latency rather than its set-up.
//
//   snm_yield -- READ SNM of the 6T butterfly from two 45-point DC sweeps
//                per sample (the paper's Fig. 9 inner loop): device
//                evaluation, Newton on a tiny matrix and the SNM metric.
//   grid_ir64 -- worst-case IR drop of the 64x64 power-grid mesh (4097
//                unknowns) from a supply sweep per sample: sparse
//                ordering, factorization and solves; no measure/ or serve/.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "circuits/benchmarks.hpp"
#include "linalg/ordering.hpp"
#include "linalg/sparse_lu.hpp"
#include "mc/circuit_campaign.hpp"
#include "mc/providers.hpp"
#include "measure/snm.hpp"
#include "spice/assembler.hpp"
#include "spice/elements.hpp"

namespace e2e {
namespace {

using namespace vsstat;

constexpr int kSnmPoints = 45;
constexpr int kSnmCallSamples = 64;
constexpr int kGridEdge = 64;
constexpr int kGridPoints = 2;
constexpr int kGridCallSamples = 2;
constexpr double kVdd = 0.9;
/// Calls replayed on one worker by the bit-equality check.
constexpr std::size_t kReplayCalls = 3;

std::unique_ptr<circuits::DeviceProvider> makeProvider(std::uint64_t seed) {
  models::PelgromAlphas a;  // paper Table II ballpark, as serve's default
  a.aVt0 = 2.3;
  a.aLeff = 3.7;
  a.aWeff = 3.7;
  a.aMu = 900.0;
  a.aCinv = 0.3;
  return std::make_unique<mc::VsStatisticalProvider>(
      models::defaultVsNmos(), models::defaultVsPmos(), a, a,
      stats::Rng(seed));
}

std::int64_t nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/// Counters the traced phase reads from each worker session around every
/// sample (iterationTelemetry / solverTelemetry deltas).
struct LayerCounters {
  std::mutex mutex;
  std::uint64_t newton = 0;
  std::uint64_t solves = 0;
  std::uint64_t fullFactors = 0;
  std::uint64_t fastRefactors = 0;
  std::uint64_t fullFactorMicros = 0;
  double fillRatio = 0.0;
  /// Per session of the running call: cumulative ordering micros.
  std::map<const void*, std::uint64_t> orderingBySession;
  std::uint64_t orderingMicros = 0;
  std::uint64_t sessionsBuilt = 0;

  void endCall() {
    for (const auto& [session, micros] : orderingBySession)
      orderingMicros += micros;
    sessionsBuilt += orderingBySession.size();
    orderingBySession.clear();
  }
};

/// Adds one sample's session-counter deltas to the layer counters.
class SampleProbe {
 public:
  SampleProbe(spice::SimSession& session, LayerCounters& counters)
      : session_(session),
        counters_(counters),
        iter0_(session.iterationTelemetry()),
        solver0_(session.solverTelemetry()) {}
  ~SampleProbe() {
    const spice::SimSession::IterationTelemetry it =
        session_.iterationTelemetry();
    const spice::SimSession::SolverTelemetry so = session_.solverTelemetry();
    const std::lock_guard<std::mutex> lock(counters_.mutex);
    counters_.newton += it.newtonIterations - iter0_.newtonIterations;
    counters_.solves += it.solves - iter0_.solves;
    counters_.fullFactors += so.fullFactors - solver0_.fullFactors;
    counters_.fastRefactors += so.fastRefactors - solver0_.fastRefactors;
    counters_.fullFactorMicros +=
        so.fullFactorMicros - solver0_.fullFactorMicros;
    counters_.fillRatio = so.fillRatio;
    counters_.orderingBySession[&session_] = so.orderingMicros;
  }
  SampleProbe(const SampleProbe&) = delete;
  SampleProbe& operator=(const SampleProbe&) = delete;

 private:
  spice::SimSession& session_;
  LayerCounters& counters_;
  spice::SimSession::IterationTelemetry iter0_;
  spice::SimSession::SolverTelemetry solver0_;
};

template <class Fixture>
struct Workload {
  const char* name;
  int callSamples;
  typename sim::CampaignSession<Fixture>::Builder build;
  /// Measures one rebound sample into out[0]; traced runs pass a tracer
  /// and the sample span's id so layer spans nest under it.
  std::function<void(sim::CampaignSession<Fixture>&, Tracer*, int parent,
                     std::int64_t request, std::vector<double>& out)>
      measure;
  /// Output check on every metric value of the timed calls.
  std::function<void(const std::vector<double>& values, const Options&,
                     Report&)>
      checkValues;
};

struct CallRecord {
  std::uint64_t seed = 0;
  mc::McResult result;
  double wallMs = 0.0;
  double setupS = 0.0;  ///< call -> first sample-function entry
};

struct Phase {
  std::vector<CallRecord> calls;
  double wallS = 0.0;
};

template <class Fixture>
CallRecord runCall(const Workload<Fixture>& w, std::uint64_t seed,
                   unsigned threads, Tracer* tracer, LayerCounters* counters,
                   std::int64_t request) {
  std::atomic<std::int64_t> firstEntry{-1};
  const Clock::time_point start = Clock::now();
  CallRecord rec;
  rec.seed = seed;
  {
    const SpanScope campaign(tracer, "mc.campaign", -1, request);
    const int campaignId = campaign.id();
    const mc::CircuitSampleFn<Fixture> fn =
        [&](std::size_t, sim::CampaignSession<Fixture>& session, stats::Rng&,
            std::vector<double>& out) {
          const Clock::time_point t0 = Clock::now();
          std::int64_t unset = -1;
          firstEntry.compare_exchange_strong(unset, nanos(t0 - start));
          if (tracer == nullptr) {
            w.measure(session, nullptr, -1, request, out);
          } else {
            // A worker's first sample of the call: everything before it on
            // this worker is pool lease plus session build.
            thread_local std::int64_t lastRequest = -1;
            if (lastRequest != request) {
              lastRequest = request;
              tracer->record("sim.session_build", start, t0, campaignId,
                             request);
            }
            const SampleProbe probe(session.spice(), *counters);
            const SpanScope sample(tracer, "mc.sample", campaignId, request);
            w.measure(session, tracer, sample.id(), request, out);
          }
        };
    mc::McOptions opt;
    opt.samples = w.callSamples;
    opt.seed = seed;
    opt.threads = threads;
    rec.result = mc::runCampaign<Fixture>(
        opt, 1, w.build, [] { return makeProvider(0); }, fn);
  }
  if (counters != nullptr) counters->endCall();
  rec.wallMs = msBetween(start, Clock::now());
  rec.setupS = static_cast<double>(firstEntry.load()) * 1e-9;
  return rec;
}

/// Calls until `seconds` have elapsed (count < 0) or exactly `count` calls,
/// with call k seeded from (run seed, k).
template <class Fixture>
Phase runPhase(const Workload<Fixture>& w, const Options& o, double seconds,
               long count, Tracer* tracer, LayerCounters* counters) {
  Phase p;
  const Clock::time_point start = Clock::now();
  for (long k = 0;; ++k) {
    if (count >= 0 ? k >= count
                   : secondsBetween(start, Clock::now()) >= seconds)
      break;
    p.calls.push_back(runCall(w, mixSeed(o.seed, static_cast<std::uint64_t>(k)),
                              kWorkers, tracer, counters, k));
  }
  p.wallS = secondsBetween(start, Clock::now());
  return p;
}

template <class Fixture>
void checkPhase(const Workload<Fixture>& w, const Phase& p, const Options& o,
                Report& report) {
  // 1-worker replay of the first calls: the runner's contract makes every
  // sample's result independent of the worker count.
  bool replayOk = !p.calls.empty();
  const std::size_t replays = std::min(kReplayCalls, p.calls.size());
  for (std::size_t i = 0; i < replays; ++i) {
    const CallRecord again =
        runCall(w, p.calls[i].seed, 1, nullptr, nullptr, -1);
    replayOk = replayOk && checks::sameCampaign(again.result, p.calls[i].result);
  }
  report.check(replayOk, std::string(w.name) + ": 1-worker replay of the first " +
                             std::to_string(replays) +
                             " calls is bit-equal to the timed calls");
  std::vector<double> values;
  for (const CallRecord& c : p.calls)
    if (!c.result.metrics.empty())
      values.insert(values.end(), c.result.metrics[0].begin(),
                    c.result.metrics[0].end());
  w.checkValues(values, o, report);
}

std::vector<const spice::MosfetElement*> mosfets(const spice::Circuit& c) {
  std::vector<const spice::MosfetElement*> out;
  for (const auto& e : c.elements())
    if (const auto* m = dynamic_cast<const spice::MosfetElement*>(e.get()))
      out.push_back(m);
  return out;
}

/// Probes on the workload's own fixture: min-degree ordering, fresh sparse
/// factor and triangular solve of its assembled Jacobian, and banked
/// device evaluation of its MOSFET lanes.  Reads the traced Newton
/// iterations per sample from `out` to derive device evaluations.
template <class Fixture>
void probeLayers(const Workload<Fixture>& w, std::uint64_t seed,
                 std::map<std::string, double>& out) {
  const std::unique_ptr<circuits::DeviceProvider> provider = makeProvider(seed);
  Fixture fx = w.build(*provider);
  spice::detail::Assembler assembler(fx.circuit);
  const std::size_t n = fx.circuit.unknownCount();
  linalg::Vector x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = 0.2 + 0.5 * static_cast<double>((i * 37u) % 101u) / 101.0;
  assembler.setGmin(1e-3);  // homotopy-level shunt: every diagonal present
  assembler.assemble(x);
  const linalg::SparseMatrix& m = assembler.jacobian();

  out["linalg.order_probe_ms"] =
      timeRepeated([&] { (void)linalg::minDegreeOrder(m.pattern()); }, 50, 3) /
      1e3;
  linalg::SparseLu lu;
  lu.refactor(m);  // pays the ordering once; it is cached across reset()
  out["linalg.factor_probe_us"] = timeRepeated(
      [&] {
        lu.reset();
        lu.refactor(m);
      },
      50, 3);
  linalg::Vector rhs(n, 1.0);
  linalg::Vector sol(n);
  out["linalg.solve_probe_us"] = timeRepeated(
      [&] {
        sol = rhs;
        lu.solveInPlace(sol);
      },
      50, 3);

  std::vector<models::BankLane> lanes;
  for (const spice::MosfetElement* e : mosfets(fx.circuit))
    lanes.push_back(models::BankLane{&e->model(), &e->geometry()});
  const std::unique_ptr<models::MosfetLoadBank> bank =
      lanes.front().card->makeLoadBank(lanes);
  stats::Rng rng(seed);
  std::vector<double> vgs(lanes.size());
  std::vector<double> vds(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    vgs[i] = rng.uniform(0.0, kVdd);
    vds[i] = rng.uniform(0.0, kVdd);
  }
  std::vector<models::MosfetLoadEvaluation> evals(lanes.size());
  const double batchUs = timeRepeated(
      [&] { bank->evaluateLoadBatch(vgs, vds, 1e-3, evals); }, 50, 3);
  out["models.device_eval_ns"] =
      batchUs * 1e3 / static_cast<double>(lanes.size());
  // Every Newton iteration evaluates every MOSFET lane once.
  out["models.evals_per_sample"] = out["spice.newton_iters_per_sample"] *
                                   static_cast<double>(lanes.size());
}

RunTimings timingsOf(const Phase& p) {
  RunTimings t;
  for (const CallRecord& c : p.calls) {
    t.setupS.push_back(c.setupS);
    t.requestMs.push_back(c.wallMs);
    // runCampaign returns its results all at once, so the caller's first
    // result is the whole call; every call builds its pool, so every call
    // is a cold one.
    t.ttfsMs.push_back(c.wallMs);
    t.coldTtfsMs.push_back(c.wallMs);
    t.samples += static_cast<double>(c.result.metrics.empty()
                                         ? 0
                                         : c.result.metrics[0].size()) +
                 c.result.failures;
  }
  t.completed = static_cast<double>(p.calls.size());
  t.wallS = p.wallS;
  t.peakRssMiB = peakRssMiB();
  return t;
}

/// The operation is one runCampaign call; a call that throws ends the run.
/// Samples the runner drops are part of a call's result (the failure
/// taxonomy), counted on a note line and, traced, as mc.failures.<class>.
void countOutcomes(const Phase& p, const char* name, Report& report) {
  report.attempted = static_cast<long>(p.calls.size());
  report.failed = 0;
  long rescued = 0;
  std::array<long, kFailureClassCount> dropped{};
  for (const CallRecord& c : p.calls) {
    rescued += c.result.rescued;
    for (int k = 0; k < kFailureClassCount; ++k)
      dropped[static_cast<std::size_t>(k)] +=
          c.result.failuresByClass[static_cast<std::size_t>(k)];
  }
  std::string line = std::string(name) + " samples: " +
                     std::to_string(rescued) + " rescued; dropped:";
  for (int k = 0; k < kFailureClassCount; ++k)
    line += std::string(" ") + toString(static_cast<FailureClass>(k)) + " " +
            std::to_string(dropped[static_cast<std::size_t>(k)]);
  report.note(line);
}

template <class Fixture>
void runWorkload(const Workload<Fixture>& w, const Options& o, Report& report,
                 Tracer* tracer) {
  // Warm-up call: thread-pool start and first-touch page faults stay out
  // of the timed phase.
  (void)runCall(w, mixSeed(o.seed, 1ULL << 40), kWorkers, nullptr, nullptr,
                -1);

  if (tracer == nullptr) {
    const Phase p = runPhase(w, o, o.seconds, -1, nullptr, nullptr);
    RunTimings t = timingsOf(p);  // before the checks' replays allocate
    checkPhase(w, p, o, report);
    countOutcomes(p, w.name, report);
    report.note(std::string(w.name) + ": " + std::to_string(p.calls.size()) +
                " calls of " + std::to_string(w.callSamples) +
                " samples on " + std::to_string(kWorkers) + " workers");
    report.endToEnd(t);
    return;
  }

  // Traced run: the first half untraced, then the same calls traced, so
  // the overhead compares identical work and the traced results must be
  // bit-equal to the untraced ones.
  const Phase plain = runPhase(w, o, o.seconds / 2, -1, nullptr, nullptr);
  LayerCounters counters;
  const Phase traced =
      runPhase(w, o, 0, static_cast<long>(plain.calls.size()), tracer,
               &counters);
  checkPhase(w, plain, o, report);
  bool same = plain.calls.size() == traced.calls.size();
  for (std::size_t i = 0; same && i < plain.calls.size(); ++i)
    same = checks::sameCampaign(plain.calls[i].result, traced.calls[i].result);
  report.check(same, std::string(w.name) +
                         ": traced calls are bit-equal to the untraced calls");
  countOutcomes(traced, w.name, report);

  double samples = 0.0;
  double campaignNs = 0.0;
  mc::McResult total;
  for (const CallRecord& c : traced.calls) {
    samples += w.callSamples;
    campaignNs += c.wallMs * 1e6;
    total.rescued += c.result.rescued;
    for (int k = 0; k < kFailureClassCount; ++k)
      total.failuresByClass[static_cast<std::size_t>(k)] +=
          c.result.failuresByClass[static_cast<std::size_t>(k)];
  }
  const auto fc = [&](FailureClass c) {
    return static_cast<double>(total.failuresOf(c));
  };
  std::map<std::string, double> v;
  const std::size_t builds = tracer->count("sim.session_build");
  v["sim.session_build_us"] =
      builds == 0 ? 0.0 : tracer->totalNs("sim.session_build") / 1e3 /
                              static_cast<double>(builds);
  v["sim.campaign_self_us"] =
      (kWorkers * campaignNs - tracer->totalNs("mc.sample")) / 1e3 / samples;
  v["mc.rescued"] = total.rescued;
  v["mc.failures.singular"] = fc(FailureClass::singular);
  v["mc.failures.non_convergence"] = fc(FailureClass::nonConvergence);
  v["mc.failures.non_finite"] = fc(FailureClass::nonFinite);
  v["mc.failures.metric_domain"] = fc(FailureClass::metricDomain);
  v["mc.failures.unclassified"] = fc(FailureClass::unclassified);
  v["spice.sweep_us"] = tracer->totalNs("spice.sweep") / 1e3 / samples;
  v["spice.newton_iters_per_sample"] =
      static_cast<double>(counters.newton) / samples;
  v["spice.solves_per_sample"] = static_cast<double>(counters.solves) / samples;
  v["linalg.ordering_ms"] =
      counters.sessionsBuilt == 0
          ? 0.0
          : static_cast<double>(counters.orderingMicros) / 1e3 /
                static_cast<double>(counters.sessionsBuilt);
  v["linalg.full_factor_ms"] =
      static_cast<double>(counters.fullFactorMicros) / 1e3 / samples;
  v["linalg.full_factors_per_sample"] =
      static_cast<double>(counters.fullFactors) / samples;
  v["linalg.fast_refactors_per_sample"] =
      static_cast<double>(counters.fastRefactors) / samples;
  v["linalg.fill_ratio"] = counters.fillRatio;
  v["measure.snm_us"] = tracer->totalNs("measure.snm") / 1e3 / samples;
  v["trace.closure"] = tracer->topLevelNs() / 1e9 / traced.wallS;
  v["trace.overhead"] = traced.wallS / plain.wallS;
  probeLayers(w, o.seed, v);
  report.note(std::string(w.name) + " traced: " +
              std::to_string(traced.calls.size()) + " calls, untraced " +
              std::to_string(plain.wallS) + " s, traced " +
              std::to_string(traced.wallS) + " s");
  report.perLayer(v);
}

Workload<circuits::SramButterflyBench> snmWorkload() {
  Workload<circuits::SramButterflyBench> w;
  w.name = "snm_yield";
  w.callSamples = kSnmCallSamples;
  w.build = [](circuits::DeviceProvider& provider) {
    return circuits::buildSramButterfly(provider, kVdd,
                                        circuits::SramMode::Read,
                                        circuits::SramSizing{});
  };
  w.measure = [](sim::CampaignSession<circuits::SramButterflyBench>& session,
                 Tracer* tracer, int parent, std::int64_t request,
                 std::vector<double>& out) {
    circuits::SramButterflyBench& fx = session.fixture();
    if (tracer == nullptr) {
      out[0] = measure::measureSnm(fx, session.spice(), kSnmPoints).cellSnm();
      return;
    }
    measure::ButterflyCurves curves;
    {
      const SpanScope s(tracer, "spice.sweep", parent, request);
      curves = measure::measureButterfly(fx, session.spice(), kSnmPoints);
    }
    const SpanScope s(tracer, "measure.snm", parent, request);
    out[0] = measure::staticNoiseMargin(curves, fx.supply).cellSnm();
  };
  w.checkValues = [](const std::vector<double>& values, const Options& opt,
                     Report& r) {
    const checks::MomentTest t = checks::momentsMatch(
        values, opt.snmRefMean, opt.snmRefSigma, opt.snmRefCount);
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "snm_yield: READ SNM n=%zu mean=%.9g V sigma=%.9g V within 3 "
                  "standard errors of the reference (%.9g, %.9g; z=%.2f, %.2f)",
                  t.n, t.mean, t.sigma, opt.snmRefMean, opt.snmRefSigma,
                  t.zMean, t.zSigma);
    r.check(t.ok, buf);
  };
  return w;
}

Workload<circuits::PowerGridBench> gridWorkload() {
  Workload<circuits::PowerGridBench> w;
  w.name = "grid_ir64";
  w.callSamples = kGridCallSamples;
  w.build = [](circuits::DeviceProvider& provider) {
    return circuits::buildPowerGridIrDrop(provider, kGridEdge, kGridEdge, kVdd);
  };
  w.measure = [](sim::CampaignSession<circuits::PowerGridBench>& session,
                 Tracer* tracer, int parent, std::int64_t request,
                 std::vector<double>& out) {
    thread_local std::vector<double> levels;
    thread_local std::vector<double> farVolts;
    circuits::PowerGridBench& fx = session.fixture();
    if (levels.size() != static_cast<std::size_t>(kGridPoints)) {
      levels.clear();
      for (int i = 0; i < kGridPoints; ++i)
        levels.push_back(fx.supply * i / (kGridPoints - 1));
    }
    {
      const SpanScope s(tracer, "spice.sweep", parent, request);
      session.spice().dcSweepNode(fx.feedSource, levels, fx.farNode, farVolts);
    }
    out[0] = fx.supply - farVolts.back();  // worst-case IR drop [V]
  };
  w.checkValues = [](const std::vector<double>& values, const Options&,
                     Report& r) {
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "grid_ir64: all %zu IR drops lie in (0, %.2f V) "
                  "[min %.6g, max %.6g]",
                  values.size(), kVdd, values.empty() ? 0.0 : *lo,
                  values.empty() ? 0.0 : *hi);
    r.check(checks::irDropsInRange(values, kVdd), buf);
  };
  return w;
}

/// Values of metric 0 of a campaign result.
std::vector<double> values(const mc::McResult& r) {
  return r.metrics.empty() ? std::vector<double>{} : r.metrics[0];
}

}  // namespace

void runSnmYield(const Options& o, Report& report, Tracer* tracer) {
  runWorkload(snmWorkload(), o, report, tracer);
}

void runGridIr64(const Options& o, Report& report, Tracer* tracer) {
  runWorkload(gridWorkload(), o, report, tracer);
}

bool selfTestCampaigns(const Options& o) {
  bool ok = true;

  // snm_yield: replay bit-equality and the reference moments.
  auto snm = snmWorkload();
  snm.callSamples = 256;
  const mc::McResult timed = runCall(snm, o.seed, kWorkers, nullptr, nullptr, -1).result;
  const mc::McResult serial = runCall(snm, o.seed, 1, nullptr, nullptr, -1).result;
  mc::McResult flipped = timed;
  flipped.metrics[0][7] = std::nextafter(flipped.metrics[0][7], 1.0);
  ok &= expectCheck("snm_yield replay bit-equality (one SNM off by one ulp)",
                    checks::sameCampaign(serial, timed),
                    checks::sameCampaign(serial, flipped));
  const auto moments = [&](const std::vector<double>& v) {
    return checks::momentsMatch(v, o.snmRefMean, o.snmRefSigma, o.snmRefCount)
        .ok;
  };
  std::vector<double> shifted = values(timed);
  for (double& v : shifted) v *= 1.1;
  ok &= expectCheck("snm_yield reference mean (every SNM 10 % high)",
                    moments(values(timed)), moments(shifted));
  std::vector<double> spread = values(timed);
  const double mean = checks::momentsMatch(spread, 0, 1, 1e9).mean;
  for (double& v : spread) v = mean + 1.5 * (v - mean);
  ok &= expectCheck("snm_yield reference sigma (spread widened 1.5x)",
                    moments(values(timed)), moments(spread));

  // grid_ir64: replay bit-equality and the IR-drop range.
  auto grid = gridWorkload();
  const mc::McResult gridTimed =
      runCall(grid, o.seed, kWorkers, nullptr, nullptr, -1).result;
  const mc::McResult gridSerial =
      runCall(grid, o.seed, 1, nullptr, nullptr, -1).result;
  mc::McResult gridFlipped = gridTimed;
  gridFlipped.metrics[0][1] = std::nextafter(gridFlipped.metrics[0][1], 0.0);
  ok &= expectCheck("grid_ir64 replay bit-equality (one IR drop off by one ulp)",
                    checks::sameCampaign(gridSerial, gridTimed),
                    checks::sameCampaign(gridSerial, gridFlipped));
  std::vector<double> high = values(gridTimed);
  high[0] = kVdd + 0.01;
  ok &= expectCheck("grid_ir64 IR drop range (one drop above the supply)",
                    checks::irDropsInRange(values(gridTimed), kVdd),
                    checks::irDropsInRange(high, kVdd));
  std::vector<double> negative = values(gridTimed);
  negative[1] = -1e-6;
  ok &= expectCheck("grid_ir64 IR drop range (one negative drop)",
                    checks::irDropsInRange(values(gridTimed), kVdd),
                    checks::irDropsInRange(negative, kVdd));
  return ok;
}

}  // namespace e2e
