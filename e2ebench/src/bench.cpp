// Common pieces of the benchmark binary and main(): argument parsing,
// percentiles, the span tracer, the report, and workload dispatch.
#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace e2e {

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t index) noexcept {
  // splitmix64 finalizer over (seed, index): distinct indices give
  // decorrelated seeds, and the same pair always gives the same seed.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // Failed requests enter latency sets as +inf; never form 0 * inf.
  if (frac == 0.0) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double peakRssMiB() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double timeRepeated(const std::function<void()>& body, double minMs,
                    int minReps) {
  int reps = 0;
  const Clock::time_point start = Clock::now();
  do {
    body();
    ++reps;
  } while (reps < minReps || msBetween(start, Clock::now()) < minMs);
  return msBetween(start, Clock::now()) * 1e3 / reps;
}

// --- tracer -------------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t Tracer::nowNs() const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int Tracer::threadId() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

int Tracer::open(const char* name, int parent, std::int64_t request) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.thread = threadId();
  s.startNs = nowNs();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
  const std::int64_t end = nowNs();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].endNs = end;
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, int parent, std::int64_t request) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.thread = threadId();
  s.startNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  s.endNs = std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
                .count();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(s);
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

double Tracer::totalNs(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Span& s : spans_)
    if (s.endNs >= 0 && name == s.name)
      total += static_cast<double>(s.endNs - s.startNs);
  return total;
}

std::size_t Tracer::count(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(),
      [&](const Span& s) { return s.endNs >= 0 && name == s.name; }));
}

double Tracer::topLevelNs() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Span& s : spans_)
    if (s.endNs >= 0 && s.parent < 0)
      total += static_cast<double>(s.endNs - s.startNs);
  return total;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"thread\":" << s.thread << "}\n";
  }
}

// --- report -------------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  notes_.push_back(std::string(ok ? "check PASS: " : "check FAIL: ") + what);
  correct_ = correct_ && ok;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.emplace_back(name, std::make_pair(value, unit));
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::endToEnd(const RunTimings& t) {
  // Each timing's sample count is printed with it: p90 has at least ten
  // observations beyond it only from 100 observations on.
  const auto summary = [this](const char* name, const std::vector<double>& v) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s: n=%zu p10=%.4g p50=%.4g p90=%.4g max=%.4g%s", name, v.size(),
                  percentile(v, 10), percentile(v, 50), percentile(v, 90),
                  v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()),
                  v.size() >= 100 ? "" : " (fewer than 100: p90 has <10 beyond)");
    note(buf);
  };
  summary("setup_s", t.setupS);
  summary("request_ms", t.requestMs);
  summary("ttfs_ms", t.ttfsMs);
  summary("cold_ttfs_ms", t.coldTtfsMs);
  char buf[128];
  std::snprintf(buf, sizeof buf, "timed phase: %.0f samples in %.3f s",
                t.samples, t.wallS);
  note(buf);

  metric("setup_s", median(t.setupS), "s");
  metric("samples_per_s", t.samples / t.wallS, "1/s");
  metric("requests_per_s", t.completed / t.wallS, "1/s");
  metric("request_ms_p50", percentile(t.requestMs, 50), "ms");
  metric("request_ms_p90", percentile(t.requestMs, 90), "ms");
  metric("ttfs_ms_p50", percentile(t.ttfsMs, 50), "ms");
  metric("ttfs_ms_p90", percentile(t.ttfsMs, 90), "ms");
  metric("cold_ttfs_ms_p50", percentile(t.coldTtfsMs, 50), "ms");
  metric("peak_rss_mib", t.peakRssMiB, "MiB");
}

const std::vector<LayerMetric>& layerMetrics() {
  static const std::vector<LayerMetric> table = {
      {"serve.parse_us", "us"},
      {"serve.deck_plan_us", "us"},
      {"serve.pool_hits", "count"},
      {"serve.pool_misses", "count"},
      {"serve.pool_evictions", "count"},
      {"serve.pool_hit_rate", "ratio"},
      {"serve.first_frame_us", "us"},
      {"serve.emit_us", "us"},
      {"serve.frames", "count"},
      {"serve.frame_bytes", "bytes"},
      {"sim.session_build_us", "us"},
      {"sim.campaign_self_us", "us/sample"},
      {"mc.rescued", "count"},
      {"mc.failures.singular", "count"},
      {"mc.failures.non_convergence", "count"},
      {"mc.failures.non_finite", "count"},
      {"mc.failures.metric_domain", "count"},
      {"mc.failures.unclassified", "count"},
      {"spice.sweep_us", "us/sample"},
      {"spice.newton_iters_per_sample", "count"},
      {"spice.solves_per_sample", "count"},
      {"linalg.ordering_ms", "ms"},
      {"linalg.full_factor_ms", "ms/sample"},
      {"linalg.full_factors_per_sample", "count"},
      {"linalg.fast_refactors_per_sample", "count"},
      {"linalg.fill_ratio", "ratio"},
      {"linalg.order_probe_ms", "ms"},
      {"linalg.factor_probe_us", "us"},
      {"linalg.solve_probe_us", "us"},
      {"models.device_eval_ns", "ns"},
      {"models.evals_per_sample", "count"},
      {"measure.snm_us", "us/sample"},
      {"extract.batch_ms", "ms"},
      {"extract.lm_iters_per_fit", "count"},
      {"extract.outcome.converged", "count"},
      {"extract.outcome.bound_pinned", "count"},
      {"extract.outcome.stalled", "count"},
      {"extract.outcome.singular_jtj", "count"},
      {"extract.outcome.non_finite", "count"},
      {"trace.closure", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return table;
}

void Report::perLayer(const std::map<std::string, double>& values) {
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(
        layerMetrics().begin(), layerMetrics().end(),
        [&](const LayerMetric& m) { return name == m.name; });
    if (!known) throw std::logic_error("unlisted layer metric " + name);
  }
  for (const LayerMetric& m : layerMetrics()) {
    const auto it = values.find(m.name);
    metric(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
}

void Report::print() const {
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  for (const auto& [name, vu] : metrics_)
    if (!std::isfinite(vu.first))
      std::printf("metric %s is not finite; reported as 0\n", name.c_str());
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    // JSON has no NaN/Inf (noted above).
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            vu.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

bool expectCheck(const std::string& what, bool clean, bool corrupted) {
  const bool ok = clean && !corrupted;
  std::printf("self-test %s: %s -- clean output %s, corrupted output %s\n",
              ok ? "OK  " : "FAIL", what.c_str(),
              clean ? "passes" : "FAILS", corrupted ? "PASSES" : "rejected");
  return ok;
}

int runSelfTest(const Options& options) {
  bool ok = selfTestCampaigns(options);
  ok = selfTestExtract(options) && ok;
  ok = selfTestServe(options) && ok;
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace e2e

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\n"
               "usage: e2ebench --workload serve_mix|snm_yield|grid_ir64|"
               "extract_batch|selftest --seed N --seconds S --trace 0|1\n"
               "                [--workdir DIR] [--snm-ref MEAN SIGMA COUNT]\n",
               why);
  std::exit(2);
}

double parseNumber(const char* text, const char* flag) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v))
    usage((std::string("bad value for ") + flag).c_str());
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value after " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--seed") {
      const char* text = next();
      char* end = nullptr;
      errno = 0;
      opt.seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0' || errno != 0 || text[0] == '-')
        usage("--seed wants an integer >= 0");
    } else if (a == "--seconds") {
      opt.seconds = parseNumber(next(), "--seconds");
      if (opt.seconds <= 0.0) usage("--seconds wants a positive number");
    } else if (a == "--trace") {
      const std::string t = next();
      if (t != "0" && t != "1") usage("--trace wants 0 or 1");
      opt.trace = t == "1";
    } else if (a == "--workdir") {
      opt.workDir = next();
    } else if (a == "--snm-ref") {
      opt.snmRefMean = parseNumber(next(), "--snm-ref");
      opt.snmRefSigma = parseNumber(next(), "--snm-ref");
      opt.snmRefCount = parseNumber(next(), "--snm-ref");
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }

  try {
    if (opt.workload == "selftest") return e2e::runSelfTest(opt);

    using RunFn = void (*)(const e2e::Options&, e2e::Report&, e2e::Tracer*);
    RunFn run = nullptr;
    if (opt.workload == "serve_mix") run = e2e::runServeMix;
    if (opt.workload == "snm_yield") run = e2e::runSnmYield;
    if (opt.workload == "grid_ir64") run = e2e::runGridIr64;
    if (opt.workload == "extract_batch") run = e2e::runExtractBatch;
    if (run == nullptr) usage(("unknown workload '" + opt.workload + "'").c_str());

    std::printf("workload %s seed %llu seconds %.3f trace %d: workers %u, "
                "clients %u, hardware threads %u\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, e2e::kWorkers, e2e::kClients,
                std::thread::hardware_concurrency());

    e2e::Report report;
    e2e::Tracer tracer;
    run(opt, report, opt.trace ? &tracer : nullptr);
    if (opt.trace) {
      const std::string path = opt.workDir + "/trace-" + opt.workload + "-" +
                               std::to_string(opt.seed) + ".jsonl";
      tracer.write(path);
      report.note("trace: " + std::to_string(tracer.size()) +
                  " spans written to " + path);
    }
    report.print();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
