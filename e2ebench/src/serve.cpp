// serve_mix: kClients closed-loop clients on a unix socket to an
// in-process serve::CampaignServer.  Each client waits for a request's
// final frame before it sends the next, the way scripted campaign clients
// use the daemon.
//
// The seeded request stream mixes inverter, inverter-chain, supply-ladder
// and resistive-mesh op decks over 12 topologies, 20 distinct (topology,
// mode) session-cache keys -- more than the cache's capacity of 8, so
// requests hit, miss and evict -- and sends about a quarter of its
// requests with fast / reusePivot / statistical modes.  Requests follow a
// fixed 52-request block composition, shuffled per block by the seed, so
// every seed offers the same load and the figures stay comparable across
// seeds.  Each client also sends one bulk request of ~1e5 samples at a
// seeded point of the run.
//
// The traced run replays the same streams through the server's public
// chain (parseJson -> parseCampaignRequest -> SessionCache::deckPlan ->
// CampaignPlan -> SessionCache::acquire -> CampaignPlan::run) with its own
// SessionCache, timing each step from outside.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/session_cache.hpp"
#include "stats/rng.hpp"

namespace e2e {
namespace {

using namespace vsstat;

constexpr int kSetupRepeats = 101;
constexpr int kStreamEvery = 8;
constexpr int kBulkStreamEvery = 8192;
/// Threads of the (untimed) output-check replays.
const unsigned kReplayThreads =
    std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

// --- decks ------------------------------------------------------------------

struct Topology {
  std::string deck;
  std::string probe;
  bool tran = false;
};

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

std::string inverterDeck(double wp, double wn, double vin) {
  return "VDD vdd 0 0.9\nVIN in 0 " + num(vin) + "\nMP out in vdd pch W=" +
         num(wp) + "n L=40n\nMN out in 0 nch W=" + num(wn) +
         "n L=40n\n.model nch vs_nmos\n.model pch vs_pmos\n.end\n";
}

/// Inverter chain; node n<i> is stage i's output.  The transient variant
/// drives a pulse through the chain with a load capacitor per stage.
std::string chainDeck(int stages, double wp, double wn, bool tran,
                      double loadF) {
  std::string deck = "VDD vdd 0 0.9\n";
  deck += tran ? "VIN n0 0 PULSE(0 0.9 10p 10p 10p 200p)\n" : "VIN n0 0 0\n";
  for (int i = 1; i <= stages; ++i) {
    const std::string in = "n" + std::to_string(i - 1);
    const std::string out = "n" + std::to_string(i);
    deck += "MP" + std::to_string(i) + " " + out + " " + in + " vdd pch W=" +
            num(wp) + "n L=40n\n";
    deck += "MN" + std::to_string(i) + " " + out + " " + in + " 0 nch W=" +
            num(wn) + "n L=40n\n";
    if (tran)
      deck += "C" + std::to_string(i) + " " + out + " 0 " + num(loadF) + "\n";
  }
  if (tran) deck += ".tran 5p 60p\n";
  deck += ".model nch vs_nmos\n.model pch vs_pmos\n.end\n";
  return deck;
}

/// Supply rail of series resistors feeding a diode-connected leakage NMOS.
std::string ladderDeck(int segments, double ohms) {
  std::string deck = "VDD s0 0 0.9\n";
  for (int i = 1; i <= segments; ++i)
    deck += "R" + std::to_string(i) + " s" + std::to_string(i - 1) + " s" +
            std::to_string(i) + " " + num(ohms) + "\n";
  const std::string far = "s" + std::to_string(segments);
  deck += "MLEAK " + far + " " + far + " 0 nch W=1u L=40n\n.model nch vs_nmos\n.end\n";
  return deck;
}

/// edge x edge resistive mesh fed at one corner, a leakage NMOS at each of
/// the other three corners.
std::string meshDeck(int edge, double ohms) {
  const auto node = [](int r, int c) {
    return "g" + std::to_string(r) + "_" + std::to_string(c);
  };
  std::string deck = "VDD " + node(0, 0) + " 0 0.9\n";
  int k = 0;
  for (int r = 0; r < edge; ++r)
    for (int c = 0; c < edge; ++c) {
      if (c + 1 < edge)
        deck += "R" + std::to_string(++k) + " " + node(r, c) + " " +
                node(r, c + 1) + " " + num(ohms) + "\n";
      if (r + 1 < edge)
        deck += "R" + std::to_string(++k) + " " + node(r, c) + " " +
                node(r + 1, c) + " " + num(ohms) + "\n";
    }
  const int e = edge - 1;
  const std::pair<int, int> corners[] = {{0, e}, {e, 0}, {e, e}};
  int m = 0;
  for (const auto& [r, c] : corners)
    deck += "ML" + std::to_string(++m) + " " + node(r, c) + " " + node(r, c) +
            " 0 nch W=1u L=40n\n";
  deck += ".model nch vs_nmos\n.end\n";
  return deck;
}

/// The 14 topologies (the two .tran chains serve the self-test only).  The
/// seed picks element values, so every seed sends different deck texts of
/// the same cost.
std::vector<Topology> makeCatalog(std::uint64_t seed) {
  stats::Rng rng(mixSeed(seed, 0xDEC4));
  const auto w = [&rng](double lo, double hi) {
    return std::round(rng.uniform(lo, hi) / 10.0) * 10.0;
  };
  std::vector<Topology> t;
  for (int i = 0; i < 3; ++i)
    t.push_back({inverterDeck(w(400, 800), w(200, 400),
                              rng.uniform(0.3, 0.6)),
                 "out", false});
  for (const int stages : {4, 8, 16})
    t.push_back({chainDeck(stages, w(400, 800), w(200, 400), false, 0),
                 "n" + std::to_string(stages), false});
  for (const int stages : {3, 6})
    t.push_back({chainDeck(stages, w(400, 800), w(200, 400), true,
                           rng.uniform(0.5e-15, 2e-15)),
                 "n" + std::to_string(stages), true});
  for (const int segments : {100, 400, 200})
    t.push_back({ladderDeck(segments, rng.uniform(0.02, 0.08)),
                 "s" + std::to_string(segments), false});
  for (const int edge : {6, 10, 16})
    t.push_back({meshDeck(edge, rng.uniform(2.0, 8.0)),
                 "g" + std::to_string(edge - 1) + "_" + std::to_string(edge - 1),
                 false});
  return t;
}

/// One block of the request stream: (topology index, mode JSON or null).
/// 38 default-mode and 14 fast / reusePivot / statistical entries.  The
/// .tran chains (topologies 6 and 7) are left out: every transient
/// campaign fails at this revision, and a workload must not fail.  The
/// self-test still sends one to check the error-frame path.
struct Entry {
  int topology;
  const char* mode;
};
constexpr const char* kFast = "{\"numerics\":\"fast\"}";
constexpr const char* kReuse = "{\"solver\":\"reusePivot\"}";
constexpr const char* kStat =
    "{\"numerics\":\"fast\",\"solver\":\"reusePivot\",\"tier\":\"statistical\"}";

std::vector<Entry> blockSchedule() {
  struct Row {
    int topology;
    const char* mode;  ///< null = default modes
    int count;
  };
  // Seven hot keys take 39 of the 52 requests; 13 tail keys share the
  // rest.  14 requests run with fast / reusePivot / statistical modes.
  const Row rows[] = {
      // hot
      {0, nullptr, 10}, {0, kFast, 5}, {9, nullptr, 6}, {3, nullptr, 5},
      {11, nullptr, 5}, {1, kReuse, 3}, {4, nullptr, 5},
      // tail, default modes
      {1, nullptr, 1}, {2, nullptr, 1}, {5, nullptr, 1}, {8, nullptr, 1},
      {10, nullptr, 1}, {12, nullptr, 1}, {13, nullptr, 1},
      // tail, other modes
      {3, kStat, 1}, {4, kFast, 1}, {9, kFast, 1}, {10, kStat, 1},
      {11, kReuse, 1}, {12, kFast, 1}};
  std::vector<Entry> block;
  for (const Row& r : rows)
    for (int i = 0; i < r.count; ++i) block.push_back({r.topology, r.mode});
  return block;
}

std::string requestLine(const std::string& id, const Topology& t,
                        const char* mode, int samples, std::uint64_t seed,
                        int streamEvery) {
  std::string req = "{\"id\":";
  serve::appendJsonString(req, id);
  req += ",\"deck\":";
  serve::appendJsonString(req, t.deck);
  req += ",\"samples\":" + std::to_string(samples);
  // JSON numbers are doubles: keep the seed exactly representable.
  req += ",\"seed\":" + std::to_string(seed >> 12);
  req += ",\"threads\":1";
  if (mode != nullptr) req += std::string(",\"mode\":") + mode;
  req += ",\"stream_every\":" + std::to_string(streamEvery);
  req += ",\"measure\":{\"analysis\":\"";
  req += t.tran ? "tran" : "op";
  req += "\",\"probes\":[\"" + t.probe + "\"]}}";
  return req;
}

/// One client's seeded request stream.
class RequestStream {
 public:
  RequestStream(const std::vector<Topology>& catalog, std::uint64_t seed,
                unsigned client)
      : catalog_(catalog),
        rng_(mixSeed(seed, 0x5EED0000ULL + client)),
        client_(client) {}

  /// Next request line; `samples` receives its budget.
  std::string next(int& samples) {
    if (pos_ == block_.size()) {
      block_ = blockSchedule();
      for (std::size_t i = block_.size() - 1; i > 0; --i)
        std::swap(block_[i], block_[rng_.below(i + 1)]);
      pos_ = 0;
    }
    const Entry e = block_[pos_++];
    samples = 16 + static_cast<int>(rng_.below(33));
    return requestLine(id(), catalog_[static_cast<std::size_t>(e.topology)],
                       e.mode, samples, rng_.nextU64(), kStreamEvery);
  }

  /// The client's bulk request: ~1e5 samples of the hottest topology.
  std::string bulk(int& samples) {
    samples = 90000 + static_cast<int>(rng_.below(20001));
    return requestLine(id(), catalog_[0], nullptr, samples, rng_.nextU64(),
                       kBulkStreamEvery);
  }

  /// Fraction of the run after which the bulk request is sent.  Clients
  /// get disjoint windows, so two bulk requests never overlap and the peak
  /// RSS always holds exactly one bulk request's per-sample state.
  double bulkAt() { return 0.15 + 0.4 * client_ + rng_.uniform(0.0, 0.2); }

 private:
  std::string id() {
    return "c" + std::to_string(client_) + "-" + std::to_string(count_++);
  }

  const std::vector<Topology>& catalog_;
  stats::Rng rng_;
  unsigned client_;
  std::vector<Entry> block_;
  std::size_t pos_ = 0;
  long count_ = 0;
};

// --- socket client ------------------------------------------------------------

bool writeAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  /// Next newline-terminated line; false when the peer closed.
  bool next(std::string& line) {
    while (true) {
      const std::size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        line.assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

int connectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("socket path too long: " + path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    throw std::runtime_error("connect to " + path + " failed");
  }
  return fd;
}

bool isType(const std::string& frame, const char* type) {
  return frame.compare(0, 9, "{\"type\":\"") == 0 &&
         frame.compare(9, std::strlen(type), type) == 0;
}

/// One request's outcome.  The request line itself is not kept -- the
/// output check regenerates it from the seeded stream -- so the run's peak
/// RSS is the daemon's, not this bookkeeping's.
struct RequestRecord {
  long samples = 0;
  bool bulk = false;
  double ttfsMs = -1.0;   ///< written -> first progress frame read
  double totalMs = 0.0;   ///< written -> final (or error) frame read
  Clock::time_point firstFrame;
  Clock::time_point end;
  long progress = 0;
  checks::FinalFrame final;  ///< final.valid is false when none arrived
  std::string error;         ///< error frame or transport failure
};

/// Sends one request and reads its frames until the final or error frame.
RequestRecord roundTrip(int fd, LineReader& reader, const std::string& line,
                        long samples) {
  RequestRecord r;
  r.samples = samples;
  const Clock::time_point start = Clock::now();
  if (!writeAll(fd, line + "\n")) {
    r.error = "send failed";
    r.end = Clock::now();
    return r;
  }
  std::string frame;
  while (true) {
    if (!reader.next(frame)) {
      r.error = "connection closed before the final frame";
      break;
    }
    if (isType(frame, "progress")) {
      if (r.progress++ == 0) {
        r.firstFrame = Clock::now();
        r.ttfsMs = msBetween(start, r.firstFrame);
      }
    } else if (isType(frame, "final")) {
      r.end = Clock::now();
      r.final = checks::parseFinalFrame(frame);
      if (!r.final.valid) r.error = std::move(frame);
      break;
    } else if (isType(frame, "error")) {
      r.error = std::move(frame);
      break;
    }
  }
  if (!r.final.valid) r.end = Clock::now();
  r.totalMs = msBetween(start, r.end);
  return r;
}

/// A daemon on its own thread, listening at `path`; stopped and joined on
/// destruction.
class Daemon {
 public:
  explicit Daemon(std::string path) : path_(std::move(path)) {
    server_.listenUnix(path_);
    thread_ = std::thread([this] { server_.serve(); });
  }
  ~Daemon() {
    server_.stop();
    thread_.join();
    ::unlink(path_.c_str());
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

 private:
  std::string path_;
  serve::CampaignServer server_;
  std::thread thread_;
};

class Connection {
 public:
  explicit Connection(const std::string& path) : fd_(connectUnix(path)) {}
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_;
};

/// Daemon cold start: a fresh server until the first progress frame of a
/// request for a new topology (the 400-segment ladder).
double coldStartSeconds(const std::string& path, const Topology& t,
                        std::uint64_t seed) {
  const Clock::time_point start = Clock::now();
  const Daemon daemon(path);
  const Connection conn(path);
  LineReader reader(conn.fd());
  const RequestRecord r =
      roundTrip(conn.fd(), reader,
                requestLine("setup", t, nullptr, 32, seed, kStreamEvery), 32);
  if (!r.final.valid || r.ttfsMs < 0)
    throw std::runtime_error("set-up request failed: " + r.error);
  return secondsBetween(start, r.firstFrame);
}

// --- replay through the public chain ----------------------------------------

/// An independent in-process replay of `line` on a fresh pool: the final
/// frame's fingerprint, or the message of the exception the chain threw
/// (the daemon turns it into an error frame).
struct Replay {
  bool threw = false;
  std::string text;
};
Replay replay(const std::string& line) {
  try {
    serve::CampaignRequest request =
        serve::parseCampaignRequest(serve::parseJson(line));
    const serve::CampaignPlan plan(std::move(request));
    const auto pool = plan.makePool();
    return {false,
            checks::fingerprintText(plan.run(*pool, serve::FrameSink{}, false))};
  } catch (const std::exception& e) {
    return {true, e.what()};
  }
}

/// The output check of one request: a final frame must carry the replay's
/// fingerprint and account for every sample; an error frame must be the
/// replay's own failure.  A request left without either fails.
bool verified(const RequestRecord& r, const Replay& again) {
  if (r.final.valid)
    return !again.threw && r.progress >= 1 &&
           checks::finalFrameHolds(r.final, r.samples, again.text);
  return again.threw && checks::errorFrameMessage(r.error) == again.text;
}

/// Counters of the traced chain replay.
struct ChainCounters {
  double requests = 0;
  double firstFrameNs = 0;
  double frames = 0;
  double bytes = 0;
  double samples = 0;
  double newton = 0;
  double solves = 0;
  double deviceEvals = 0;
  double fullFactors = 0;
  double fastRefactors = 0;
  double fullFactorMicros = 0;
  double orderingMicros = 0;
  double fillRatio = 0;
  double sessionsBuilt = 0;
  mc::McResult failures;  ///< rescued + failures per class
};

/// Frames go to a socketpair drained by a reader thread, as the daemon
/// writes them to its client.
class FrameDrain {
 public:
  FrameDrain() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0)
      throw std::runtime_error("socketpair() failed");
    thread_ = std::thread([fd = fds_[1]] {
      char chunk[65536];
      while (true) {
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return;
      }
    });
  }
  ~FrameDrain() {
    ::shutdown(fds_[0], SHUT_WR);
    thread_.join();
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  FrameDrain(const FrameDrain&) = delete;
  FrameDrain& operator=(const FrameDrain&) = delete;
  [[nodiscard]] int fd() const noexcept { return fds_[0]; }

 private:
  int fds_[2] = {-1, -1};
  std::thread thread_;
};

/// One request through the server's chain.  With a tracer, every step is a
/// span and the worker session's counters are read around the campaign;
/// the first lease of a cold pool is forced so its session build is timed
/// on its own.  Returns the campaign's fingerprint, or "error: <message>"
/// when the campaign failed and an error frame went out instead.
std::string replayChain(const std::string& line, std::int64_t id,
                        serve::SessionCache& cache, int frameFd,
                        Tracer* tracer, ChainCounters* c) {
  std::string outcome;
  const SpanScope req(tracer, "serve.request", -1, id);
  std::optional<serve::CampaignRequest> request;
  {
    const SpanScope s(tracer, "serve.parse", req.id(), id);
    request.emplace(serve::parseCampaignRequest(serve::parseJson(line)));
  }
  std::optional<serve::CampaignPlan> plan;
  {
    const SpanScope s(tracer, "serve.deck_plan", req.id(), id);
    auto deck = cache.deckPlan(request->deck);
    plan.emplace(std::move(*request), std::move(deck));
  }
  serve::SessionCache::Acquired acquired;
  {
    const SpanScope s(tracer, "serve.acquire", req.id(), id);
    acquired = cache.acquire(*plan);
  }
  spice::SimSession::IterationTelemetry it0{};
  spice::SimSession::SolverTelemetry so0{};
  if (tracer != nullptr) {
    if (!acquired.warm) {
      const SpanScope s(tracer, "sim.session_build", req.id(), id);
      (void)acquired.pool->acquire();
    }
    auto lease = acquired.pool->acquire();
    it0 = lease->spice().iterationTelemetry();
    so0 = lease->spice().solverTelemetry();
  }

  bool first = true;
  const Clock::time_point runStart = Clock::now();
  const serve::FrameSink sink = [&](const std::string& frame) {
    if (tracer != nullptr && first) {
      c->firstFrameNs += static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               runStart)
              .count());
      first = false;
    }
    const SpanScope s(tracer, "serve.emit", req.id(), id);
    if (!writeAll(frameFd, frame + "\n"))
      throw std::runtime_error("frame drain closed");
    if (c != nullptr) {
      c->frames += 1;
      c->bytes += static_cast<double>(frame.size() + 1);
    }
  };
  mc::McResult result;
  {
    const SpanScope s(tracer, "serve.run", req.id(), id);
    try {
      result = plan->run(*acquired.pool, sink, acquired.warm);
      outcome = result.sampleCount() + static_cast<std::size_t>(result.failures) ==
                        static_cast<std::size_t>(plan->request().samples)
                    ? checks::fingerprintText(result)
                    : "error: ok + failures != samples";
    } catch (const std::exception& e) {
      // What CampaignServer::handleLine answers for a failed campaign.
      sink(serve::errorFrame(plan->request().id,
                             serve::RequestError::campaignError, e.what()));
      outcome = std::string("error: ") + e.what();
    }
  }
  if (tracer == nullptr) return outcome;

  auto lease = acquired.pool->acquire();
  const auto& it = lease->spice().iterationTelemetry();
  const auto so = lease->spice().solverTelemetry();
  const double samples = static_cast<double>(plan->request().samples);
  c->requests += 1;
  c->samples += samples;
  c->newton += static_cast<double>(it.newtonIterations - it0.newtonIterations);
  c->solves += static_cast<double>(it.solves - it0.solves);
  c->deviceEvals += static_cast<double>(it.newtonIterations -
                                        it0.newtonIterations) *
                    static_cast<double>(plan->zDimension() / 5);
  c->fullFactors += static_cast<double>(so.fullFactors - so0.fullFactors);
  c->fastRefactors += static_cast<double>(so.fastRefactors - so0.fastRefactors);
  c->fullFactorMicros +=
      static_cast<double>(so.fullFactorMicros - so0.fullFactorMicros);
  if (!acquired.warm) {
    c->orderingMicros += static_cast<double>(so.orderingMicros);
    c->fillRatio += so.fillRatio;
    c->sessionsBuilt += 1;
  }
  c->failures.rescued += result.rescued;
  for (std::size_t k = 0; k < result.failuresByClass.size(); ++k)
    c->failures.failuresByClass[k] += result.failuresByClass[k];
  return outcome;
}

void runTraced(const std::vector<Topology>& catalog, const Options& o,
               Report& report, Tracer* tracer) {
  // Plain phase: the interleaved streams through the chain, untraced, for
  // half the run; each client's bulk request goes in at its seeded point.
  std::vector<RequestStream> streams;
  std::vector<double> bulkAt;
  std::vector<bool> bulkSent(kClients, false);
  for (unsigned c = 0; c < kClients; ++c) {
    streams.emplace_back(catalog, o.seed, c);
    bulkAt.push_back(streams.back().bulkAt() * o.seconds / 2);
  }
  {
    // Warm-up: allocator, page faults and thread pool reach steady state
    // before either phase is timed.
    RequestStream warm(catalog, mixSeed(o.seed, 0xA11), 0);
    serve::SessionCache cache(8);
    const FrameDrain drain;
    int samples = 0;
    for (int k = 0; k < 100; ++k)
      (void)replayChain(warm.next(samples), k, cache, drain.fd(), nullptr,
                        nullptr);
  }
  std::vector<std::string> lines;
  std::vector<std::string> plainOutcomes;
  double plainS = 0.0;
  {
    serve::SessionCache cache(8);
    const FrameDrain drain;
    const Clock::time_point start = Clock::now();
    for (std::size_t k = 0;; ++k) {
      const double elapsed = secondsBetween(start, Clock::now());
      if (elapsed >= o.seconds / 2) break;
      const std::size_t client = k % kClients;
      int samples = 0;
      if (!bulkSent[client] && elapsed >= bulkAt[client]) {
        bulkSent[client] = true;
        lines.push_back(streams[client].bulk(samples));
      } else {
        lines.push_back(streams[client].next(samples));
      }
      plainOutcomes.push_back(replayChain(lines.back(),
                                          static_cast<std::int64_t>(k), cache,
                                          drain.fd(), nullptr, nullptr));
    }
    plainS = secondsBetween(start, Clock::now());
  }

  serve::SessionCache cache(8);
  ChainCounters c;
  std::vector<std::string> tracedOutcomes;
  double tracedS = 0.0;
  {
    const FrameDrain drain;
    const Clock::time_point start = Clock::now();
    for (std::size_t k = 0; k < lines.size(); ++k)
      tracedOutcomes.push_back(replayChain(lines[k],
                                           static_cast<std::int64_t>(k), cache,
                                           drain.fd(), tracer, &c));
    tracedS = secondsBetween(start, Clock::now());
  }
  report.attempted = static_cast<long>(lines.size());
  report.failed = std::count_if(
      tracedOutcomes.begin(), tracedOutcomes.end(),
      [](const std::string& o) { return o.rfind("error: ", 0) == 0; });
  report.check(tracedOutcomes == plainOutcomes,
               "serve_mix: traced chain replays of " +
                   std::to_string(lines.size()) +
                   " requests equal the untraced ones (fingerprints and "
                   "failures)");

  const auto stats = cache.stats();
  const double n = c.requests;
  const auto fc = [&](FailureClass k) {
    return static_cast<double>(c.failures.failuresOf(k));
  };
  std::map<std::string, double> v;
  v["serve.parse_us"] = tracer->totalNs("serve.parse") / 1e3 / n;
  v["serve.deck_plan_us"] = tracer->totalNs("serve.deck_plan") / 1e3 / n;
  v["serve.pool_hits"] = static_cast<double>(stats.hits);
  v["serve.pool_misses"] = static_cast<double>(stats.misses);
  v["serve.pool_evictions"] = static_cast<double>(stats.evictions);
  v["serve.pool_hit_rate"] =
      static_cast<double>(stats.hits) /
      static_cast<double>(std::max<std::size_t>(stats.hits + stats.misses, 1));
  v["serve.first_frame_us"] = c.firstFrameNs / 1e3 / n;
  v["serve.emit_us"] = tracer->totalNs("serve.emit") / 1e3 / n;
  v["serve.frames"] = c.frames / n;
  v["serve.frame_bytes"] = c.bytes / n;
  v["sim.session_build_us"] =
      tracer->count("sim.session_build") == 0
          ? 0.0
          : tracer->totalNs("sim.session_build") / 1e3 /
                static_cast<double>(tracer->count("sim.session_build"));
  v["mc.rescued"] = c.failures.rescued;
  v["mc.failures.singular"] = fc(FailureClass::singular);
  v["mc.failures.non_convergence"] = fc(FailureClass::nonConvergence);
  v["mc.failures.non_finite"] = fc(FailureClass::nonFinite);
  v["mc.failures.metric_domain"] = fc(FailureClass::metricDomain);
  v["mc.failures.unclassified"] = fc(FailureClass::unclassified);
  v["spice.newton_iters_per_sample"] = c.newton / c.samples;
  v["spice.solves_per_sample"] = c.solves / c.samples;
  v["linalg.ordering_ms"] =
      c.sessionsBuilt == 0 ? 0.0 : c.orderingMicros / 1e3 / c.sessionsBuilt;
  v["linalg.full_factor_ms"] = c.fullFactorMicros / 1e3 / c.samples;
  v["linalg.full_factors_per_sample"] = c.fullFactors / c.samples;
  v["linalg.fast_refactors_per_sample"] = c.fastRefactors / c.samples;
  v["linalg.fill_ratio"] =
      c.sessionsBuilt == 0 ? 0.0 : c.fillRatio / c.sessionsBuilt;
  v["models.evals_per_sample"] = c.deviceEvals / c.samples;
  v["trace.closure"] = tracer->topLevelNs() / 1e9 / tracedS;
  v["trace.overhead"] = tracedS / plainS;
  report.note("serve_mix traced: untraced " + std::to_string(plainS) +
              " s, traced " + std::to_string(tracedS) + " s");
  report.perLayer(v);
}

}  // namespace

void runServeMix(const Options& o, Report& report, Tracer* tracer) {
  const std::vector<Topology> catalog = makeCatalog(o.seed);
  if (tracer != nullptr) {
    runTraced(catalog, o, report, tracer);
    return;
  }
  const std::string path =
      o.workDir + "/serve-" + std::to_string(::getpid()) + ".sock";

  RunTimings t;
  for (int i = 0; i < kSetupRepeats; ++i)
    t.setupS.push_back(coldStartSeconds(path, catalog[9],
                                        mixSeed(o.seed, 0x5E70 + i)));

  std::vector<std::vector<RequestRecord>> records(kClients);
  Clock::time_point start;
  {
    const Daemon daemon(path);
    start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(o.seconds));
    std::vector<std::thread> clients;
    std::vector<std::string> errors(kClients);
    for (unsigned c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        try {
          RequestStream stream(catalog, o.seed, c);
          const Clock::time_point bulkAt =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(stream.bulkAt() *
                                                        o.seconds));
          bool bulkSent = false;
          const Connection conn(path);
          LineReader reader(conn.fd());
          while (Clock::now() < deadline) {
            int samples = 0;
            const bool bulk = !bulkSent && Clock::now() >= bulkAt;
            const std::string line =
                bulk ? stream.bulk(samples) : stream.next(samples);
            bulkSent = bulkSent || bulk;
            records[c].push_back(roundTrip(conn.fd(), reader, line, samples));
            records[c].back().bulk = bulk;
            if (!records[c].back().final.valid &&
                records[c].back().error.rfind("{", 0) != 0)
              break;  // transport failure: the connection is gone
          }
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    for (std::thread& th : clients) th.join();
    for (const std::string& e : errors)
      if (!e.empty()) throw std::runtime_error("client: " + e);
  }

  t.peakRssMiB = peakRssMiB();  // before the replays allocate

  // Flatten, regenerating each client's request lines from its seeded
  // stream, then verify every request against a fresh-pool replay.
  std::vector<const RequestRecord*> all;
  std::vector<std::string> lines;
  Clock::time_point last = start;
  for (unsigned c = 0; c < kClients; ++c) {
    RequestStream stream(catalog, o.seed, c);
    (void)stream.bulkAt();
    for (const RequestRecord& r : records[c]) {
      int samples = 0;
      lines.push_back(r.bulk ? stream.bulk(samples) : stream.next(samples));
      all.push_back(&r);
      last = std::max(last, r.end);
    }
  }
  std::vector<char> holds(all.size(), 0);
  std::atomic<std::size_t> nextIndex{0};
  std::vector<std::thread> replayers;
  for (unsigned w = 0; w < kReplayThreads; ++w)
    replayers.emplace_back([&] {
      for (std::size_t i; (i = nextIndex.fetch_add(1)) < all.size();)
        holds[i] = verified(*all[i], replay(lines[i])) ? 1 : 0;
    });
  for (std::thread& th : replayers) th.join();

  long verifiedCount = 0;
  long bulk = 0;
  long droppedSamples = 0;
  std::map<std::string, long> errors;
  report.attempted = static_cast<long>(all.size());
  report.failed = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const RequestRecord& r = *all[i];
    verifiedCount += holds[i];
    bulk += r.bulk ? 1 : 0;
    const checks::FinalFrame& f = r.final;
    if (!f.valid) {
      // A failed request misses every latency limit.
      ++report.failed;
      ++errors[r.error.rfind("{", 0) == 0 ? checks::errorFrameMessage(r.error)
                                          : r.error];
      t.requestMs.push_back(std::numeric_limits<double>::infinity());
      t.ttfsMs.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    droppedSamples += f.failures;
    t.requestMs.push_back(r.totalMs);
    t.ttfsMs.push_back(r.ttfsMs);
    if (f.cache == "cold") t.coldTtfsMs.push_back(r.ttfsMs);
    t.samples += static_cast<double>(f.samples);
    t.completed += 1;
  }
  t.wallS = secondsBetween(start, last);
  report.check(verifiedCount == static_cast<long>(all.size()),
               "serve_mix: " + std::to_string(verifiedCount) + " of " +
                   std::to_string(all.size()) +
                   " requests verified against a fresh-pool in-process "
                   "replay (final frame: equal metrics_fnv1a, ok + failures "
                   "== samples; error frame: the replay fails with the same "
                   "message)");
  report.note("serve_mix: " + std::to_string(kClients) +
              " closed-loop clients, " + std::to_string(all.size()) +
              " requests (" + std::to_string(bulk) + " bulk, " +
              std::to_string(t.coldTtfsMs.size()) + " cold, " +
              std::to_string(report.failed) + " failed), " +
              std::to_string(droppedSamples) + " dropped samples");
  for (const auto& [message, count] : errors)
    report.note("serve_mix: " + std::to_string(count) +
                " requests failed: " + message);
  report.endToEnd(t);
}

bool selfTestServe(const Options& o) {
  const std::vector<Topology> catalog = makeCatalog(o.seed);
  const std::string path =
      o.workDir + "/selftest-" + std::to_string(::getpid()) + ".sock";
  const Daemon daemon(path);
  const Connection conn(path);
  LineReader reader(conn.fd());
  bool ok = true;
  // An op request (final frame) and a .tran request (at this revision an
  // error frame; a final frame once transient campaigns work).
  for (const int topology : {9, 6}) {
    const std::string line =
        requestLine("selftest", catalog[static_cast<std::size_t>(topology)],
                    nullptr, 24, mixSeed(o.seed, 11), kStreamEvery);
    const RequestRecord r = roundTrip(conn.fd(), reader, line, 24);
    const Replay again = replay(line);
    const bool clean = verified(r, again);
    if (r.final.valid) {
      RequestRecord digit = r;
      char& c = digit.final.hash.back();
      c = c == '0' ? '1' : '0';
      ok &= expectCheck("serve_mix final frame (one fingerprint digit flipped)",
                        clean, verified(digit, again));
      RequestRecord count = r;
      count.final.ok += 1;
      ok &= expectCheck("serve_mix final frame (ok count changed)", clean,
                        verified(count, again));
      RequestRecord missing = r;
      missing.final = checks::FinalFrame{};
      missing.error = "connection closed before the final frame";
      ok &= expectCheck("serve_mix final frame (final frame missing)", clean,
                        verified(missing, again));
    } else {
      RequestRecord message = r;
      message.error = serve::errorFrame("selftest",
                                        serve::RequestError::campaignError,
                                        "a different failure");
      ok &= expectCheck("serve_mix error frame (message not the replay's)",
                        clean, verified(message, again));
    }
  }
  return ok;
}

}  // namespace e2e
