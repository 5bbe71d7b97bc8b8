// Shared pieces of the end-to-end benchmark binary: command-line options,
// wall-clock helpers, percentile summaries, the in-memory span tracer, and
// the result report whose last line is the benchmark's JSON verdict.
#ifndef E2EBENCH_BENCH_HPP
#define E2EBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double msBetween(Clock::time_point a,
                                      Clock::time_point b) noexcept {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double secondsBetween(Clock::time_point a,
                                           Clock::time_point b) noexcept {
  return std::chrono::duration<double>(b - a).count();
}

/// Worker threads of every campaign and fit batch, and client connections
/// of serve_mix.  Fixed (never 0 = "all cores") so a run's load does not
/// depend on the machine's core count.
inline constexpr unsigned kWorkers = 2;
inline constexpr unsigned kClients = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workDir = ".";  ///< trace file and unix socket live here
  /// READ-SNM reference (mean, sigma, sample count) the snm_yield output
  /// check compares against; read from reference.json by run.py.
  double snmRefMean = 0.0;
  double snmRefSigma = 0.0;
  double snmRefCount = 0.0;
};

/// Distinct, reproducible 64-bit stream seed for item `index` of a run.
[[nodiscard]] std::uint64_t mixSeed(std::uint64_t seed,
                                    std::uint64_t index) noexcept;

/// Linear-interpolation percentile (p in [0, 100]); 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Process high-water resident set size in MiB (getrusage).
[[nodiscard]] double peakRssMiB();

/// Repeats `body` until at least `minMs` elapsed and `minReps` ran;
/// returns the mean time per repetition in microseconds.
[[nodiscard]] double timeRepeated(const std::function<void()>& body,
                                  double minMs, int minReps);

// --- tracing ----------------------------------------------------------------

/// One recorded span.  Times are nanoseconds since the tracer's epoch.
struct Span {
  const char* name = "";
  std::int64_t startNs = 0;
  std::int64_t endNs = -1;
  int parent = -1;           ///< index of the enclosing span, -1 = top level
  std::int64_t request = -1; ///< campaign call / batch / request id
  int thread = 0;            ///< small per-thread id (0 = main thread)
};

/// Spans kept in memory and written as JSON lines when the run ends.  A
/// null Tracer* means tracing is off; SpanScope then costs one branch.
class Tracer {
 public:
  Tracer();

  [[nodiscard]] int open(const char* name, int parent, std::int64_t request);
  void close(int id);
  /// Records an already-timed span.
  void record(const char* name, Clock::time_point start,
              Clock::time_point end, int parent, std::int64_t request);

  [[nodiscard]] std::size_t size() const;
  /// Sum of durations (ns) of every closed span named `name`.
  [[nodiscard]] double totalNs(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;
  /// Sum of durations of top-level spans (no parent).
  [[nodiscard]] double topLevelNs() const;
  void write(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t nowNs() const noexcept;
  static int threadId();

  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; inert when the tracer is null.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int parent = -1,
            std::int64_t request = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(name, parent, request) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// --- report -----------------------------------------------------------------

/// Per-request timings of one run, summarised into the end-to-end metrics
/// every workload reports.  A "request" is one call into the workload's
/// entry point: a daemon request (serve_mix), an mc::runCampaign call
/// (snm_yield, grid_ir64) or an extract::FitCampaign::run batch
/// (extract_batch).
struct RunTimings {
  std::vector<double> setupS;     ///< one entry per set-up repetition
  std::vector<double> requestMs;  ///< call -> final result
  std::vector<double> ttfsMs;     ///< call -> first result the caller gets
  std::vector<double> coldTtfsMs; ///< ttfs of calls that built their state
  double samples = 0.0;           ///< samples (fits) completed
  double completed = 0.0;         ///< requests that returned a result
  double wallS = 0.0;             ///< timed-phase wall time
  double peakRssMiB = 0.0;        ///< high-water mark when timing ended
};

class Report {
 public:
  /// Records one output check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  /// Free-form line printed before the verdict (counts, thread numbers).
  void note(const std::string& line);

  /// Adds the end-to-end metrics from the run's timings.
  void endToEnd(const RunTimings& t);
  /// Adds every per-layer metric, taking `values` where present and 0
  /// (layer not exercised or not probed on this workload) elsewhere.
  void perLayer(const std::map<std::string, double>& values);

  long attempted = 0;
  long failed = 0;

  /// Prints the notes and the one-line JSON verdict (the last stdout line).
  void print() const;

 private:
  bool correct_ = true;
  std::vector<std::string> notes_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// Layer metrics shared by every workload (name, unit), in report order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& layerMetrics();

// --- workloads ----------------------------------------------------------------

void runSnmYield(const Options& options, Report& report, Tracer* tracer);
void runGridIr64(const Options& options, Report& report, Tracer* tracer);
void runExtractBatch(const Options& options, Report& report, Tracer* tracer);
void runServeMix(const Options& options, Report& report, Tracer* tracer);

/// Tiny-geometry self-test: every output check must pass on a clean run
/// and reject a corrupted copy of its outputs.  Returns the exit code.
int runSelfTest(const Options& options);
/// Per-module parts of the self-test; each returns true when every check
/// held on its clean outputs and rejected the corrupted ones.
bool selfTestCampaigns(const Options& options);
bool selfTestExtract(const Options& options);
bool selfTestServe(const Options& options);
/// Prints one self-test line; true when `clean` holds and `corrupted`
/// does not.
bool expectCheck(const std::string& what, bool clean, bool corrupted);

}  // namespace e2e

#endif  // E2EBENCH_BENCH_HPP
