// Campaign-server integration (serve/server.hpp): the protocol core end to
// end -- classified error frames, streamed campaigns whose final statistics
// are BIT-equal to a same-seed in-process mc::runCampaign at 1/2/4
// workers (a .tran request too, at 1/2), warm session-cache reuse, two
// campaigns interleaving through the shared thread pool, and the socket
// transport's line framing and request-line cap.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mc/circuit_campaign.hpp"
#include "mc/providers.hpp"
#include "spice/netlist.hpp"
#include "spice/waveform.hpp"
#include "stats/descriptive.hpp"

namespace vsstat::serve {
namespace {

constexpr const char* kInverterDeck =
    "VDD vdd 0 0.9\n"
    "VIN in 0 0.45\n"
    "MP out in vdd pch W=600n L=40n\n"
    "MN out in 0 nch W=300n L=40n\n"
    ".model nch vs_nmos\n"
    ".model pch vs_pmos\n"
    ".end\n";

constexpr const char* kDividerDeck =
    "VDD vdd 0 0.9\n"
    "MN1 mid vdd 0 nch W=300n L=40n\n"
    "MN2 vdd vdd mid nch W=300n L=40n\n"
    ".model nch vs_nmos\n"
    ".end\n";

std::string makeRequest(const std::string& id, const char* deck, int samples,
                        unsigned threads, int streamEvery) {
  std::string req = "{\"id\":";
  appendJsonString(req, id);
  req += ",\"deck\":";
  appendJsonString(req, deck);
  req += ",\"samples\":" + std::to_string(samples);
  req += ",\"seed\":11,\"threads\":" + std::to_string(threads);
  req += ",\"stream_every\":" + std::to_string(streamEvery);
  req += ",\"measure\":{\"probes\":[\"" +
         std::string(deck == kDividerDeck ? "mid" : "out") + "\"]}}";
  return req;
}

std::vector<std::string> runLine(CampaignServer& server,
                                 const std::string& line) {
  std::vector<std::string> frames;
  server.handleLine(line,
                    [&frames](const std::string& f) { frames.push_back(f); });
  return frames;
}

JsonValue finalFrameOf(const std::vector<std::string>& frames) {
  for (const std::string& f : frames) {
    const JsonValue frame = parseJson(f);
    const std::string type = frame.find("type")->string;
    if (type == "final" || type == "error") return frame;
  }
  ADD_FAILURE() << "no terminal frame";
  return JsonValue{};
}

int countProgress(const std::vector<std::string>& frames) {
  int n = 0;
  for (const std::string& f : frames)
    if (f.find("\"type\":\"progress\"") != std::string::npos) ++n;
  return n;
}

// --- error paths -----------------------------------------------------------

TEST(CampaignServer, BadJsonGetsAnErrorFrame) {
  CampaignServer server;
  const std::vector<std::string> frames = runLine(server, "{nope");
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(finalFrameOf(frames).find("code")->string, "bad_json");
}

TEST(CampaignServer, SchemaViolationGetsBadRequestWithIdEcho) {
  CampaignServer server;
  const std::vector<std::string> frames =
      runLine(server, R"({"id": "r9", "deck": "x"})");
  ASSERT_EQ(frames.size(), 1u);
  const JsonValue frame = finalFrameOf(frames);
  EXPECT_EQ(frame.find("code")->string, "bad_request");
  EXPECT_EQ(frame.find("id")->string, "r9");
}

TEST(CampaignServer, DeepNestingGetsBadRequestNotACrash) {
  // A million open brackets once overflowed the recursive parser's stack.
  CampaignServer server;
  const std::vector<std::string> frames =
      runLine(server, "{\"deck\":" + std::string(1000000, '['));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(finalFrameOf(frames).find("code")->string, "bad_request");
}

TEST(CampaignServer, MalformedDeckGetsLineClassifiedDeckError) {
  CampaignServer server;
  std::string req = R"({"deck": )";
  appendJsonString(req, "V1 a 0 1.0\nR1 a 0 bogus\n");
  req += R"(, "measure": {"probes": ["a"]}})";
  const std::vector<std::string> frames = runLine(server, req);
  ASSERT_EQ(frames.size(), 1u);
  const JsonValue frame = finalFrameOf(frames);
  EXPECT_EQ(frame.find("code")->string, "deck_error");
  EXPECT_DOUBLE_EQ(frame.find("line")->number, 2.0);
  EXPECT_NE(frame.find("message")->string.find("bogus"), std::string::npos);
}

TEST(CampaignServer, UnknownProbeGetsBadRequest) {
  CampaignServer server;
  std::string req = R"({"deck": )";
  appendJsonString(req, kInverterDeck);
  req += R"(, "measure": {"probes": ["nonexistent"]}})";
  const JsonValue frame = finalFrameOf(runLine(server, req));
  EXPECT_EQ(frame.find("code")->string, "bad_request");
  EXPECT_NE(frame.find("message")->string.find("nonexistent"),
            std::string::npos);
}

TEST(CampaignServer, BlankLinesAreIgnored) {
  CampaignServer server;
  EXPECT_TRUE(runLine(server, "").empty());
  EXPECT_TRUE(runLine(server, "  \t").empty());
}

// --- streamed statistics vs in-process campaigns ---------------------------

constexpr int kSamples = 48;

/// The reference: the same campaign through the public in-process API
/// (mc::runCampaign over a deck-built fixture), same seed and axes.
mc::McResult inProcessCampaign(unsigned threads) {
  spice::ParsedNetlist parsed = spice::parseNetlist(kInverterDeck);
  const spice::NodeId out = parsed.circuit.node("out");
  const models::VsParams nmos = *parsed.vsNmos;
  const models::VsParams pmos = *parsed.vsPmos;

  mc::McOptions opt;
  opt.samples = kSamples;
  opt.seed = 11;
  opt.threads = threads;
  return mc::runCampaign<DeckFixture>(
      opt, 1,
      [](circuits::DeviceProvider& p) {
        return DeckFixture{
            std::move(spice::parseNetlist(kInverterDeck, p).circuit)};
      },
      [nmos, pmos] {
        return std::make_unique<mc::VsStatisticalProvider>(
            nmos, pmos, defaultAlphas(), defaultAlphas(), stats::Rng(1));
      },
      [out](std::size_t, sim::CampaignSession<DeckFixture>& session,
            stats::Rng&, std::vector<double>& metrics) {
        metrics[0] = session.spice().dcOperatingPoint().v(out);
      });
}

TEST(CampaignServer, StreamedFinalStatsBitEqualInProcessCampaign) {
  const mc::McResult reference = inProcessCampaign(1);
  ASSERT_EQ(reference.sampleCount(), static_cast<std::size_t>(kSamples));
  const stats::Summary summary = stats::summarize(reference.metrics[0]);
  char refHash[32];
  std::snprintf(refHash, sizeof refHash, "0x%016" PRIx64,
                metricsFingerprint(reference));

  // The worker-count sweep doubles as the scheduling-independence check:
  // in-process campaigns are bit-identical across 1/2/4 workers, so one
  // reference serves all three server runs.
  for (const unsigned threads : {1u, 2u, 4u}) {
    const mc::McResult parallel = inProcessCampaign(threads);
    EXPECT_EQ(parallel.metrics[0], reference.metrics[0])
        << threads << " workers";

    CampaignServer server;
    const std::vector<std::string> frames = runLine(
        server, makeRequest("bits", kInverterDeck, kSamples, threads, 16));
    EXPECT_GE(countProgress(frames), 3) << threads << " workers";

    const JsonValue frame = finalFrameOf(frames);
    ASSERT_EQ(frame.find("type")->string, "final") << threads << " workers";
    // %.17g serialization round-trips exactly: parsed values must be
    // BIT-equal to the in-process statistics.
    EXPECT_EQ(frame.find("mean")->number, summary.mean);
    EXPECT_EQ(frame.find("sigma")->number, summary.stddev);
    EXPECT_EQ(frame.find("median")->number, summary.median);
    EXPECT_EQ(frame.find("metrics_fnv1a")->string, refHash);
    EXPECT_DOUBLE_EQ(frame.find("ok")->number,
                     static_cast<double>(kSamples));
  }
}

// A two-stage inverter chain driven by a pulse, with a .tran card: the
// daemon's transient path (measure.analysis "tran").
constexpr const char* kTranChainDeck =
    "VDD vdd 0 0.9\n"
    "VIN n0 0 PULSE(0 0.9 10p 10p 10p 200p)\n"
    "MP1 n1 n0 vdd pch W=600n L=40n\n"
    "MN1 n1 n0 0 nch W=300n L=40n\n"
    "C1 n1 0 1f\n"
    "MP2 n2 n1 vdd pch W=600n L=40n\n"
    "MN2 n2 n1 0 nch W=300n L=40n\n"
    "C2 n2 0 1f\n"
    ".tran 5p 60p\n"
    ".model nch vs_nmos\n"
    ".model pch vs_pmos\n"
    ".end\n";

TEST(CampaignServer, TranRequestFinalFrameBitEqualsInProcessCampaign) {
  constexpr int kTranSamples = 16;
  spice::ParsedNetlist parsed = spice::parseNetlist(kTranChainDeck);
  const spice::NodeId n2 = parsed.circuit.node("n2");
  const models::VsParams nmos = *parsed.vsNmos;
  const models::VsParams pmos = *parsed.vsPmos;
  spice::TransientOptions topt;
  topt.dt = parsed.tran->first;
  topt.tStop = parsed.tran->second;

  for (const unsigned threads : {1u, 2u}) {
    mc::McOptions opt;
    opt.samples = kTranSamples;
    opt.seed = 11;
    opt.threads = threads;
    const mc::McResult reference = mc::runCampaign<DeckFixture>(
        opt, 1,
        [](circuits::DeviceProvider& p) {
          return DeckFixture{
              std::move(spice::parseNetlist(kTranChainDeck, p).circuit)};
        },
        [nmos, pmos] {
          return std::make_unique<mc::VsStatisticalProvider>(
              nmos, pmos, defaultAlphas(), defaultAlphas(), stats::Rng(1));
        },
        [n2, topt](std::size_t, sim::CampaignSession<DeckFixture>& session,
                   stats::Rng&, std::vector<double>& metrics) {
          spice::Waveform wf(1);
          session.spice().transient(topt, wf);
          metrics[0] = wf.finalValue(n2);
        });
    ASSERT_EQ(reference.sampleCount(), static_cast<std::size_t>(kTranSamples))
        << threads << " workers";
    const stats::Summary summary = stats::summarize(reference.metrics[0]);
    char refHash[32];
    std::snprintf(refHash, sizeof refHash, "0x%016" PRIx64,
                  metricsFingerprint(reference));

    std::string req = "{\"id\":\"tran\",\"deck\":";
    appendJsonString(req, kTranChainDeck);
    req += ",\"samples\":" + std::to_string(kTranSamples) +
           ",\"seed\":11,\"threads\":" + std::to_string(threads) +
           ",\"stream_every\":8"
           ",\"measure\":{\"analysis\":\"tran\",\"probes\":[\"n2\"]}}";
    CampaignServer server;
    const JsonValue frame = finalFrameOf(runLine(server, req));
    ASSERT_EQ(frame.find("type")->string, "final") << threads << " workers";
    EXPECT_EQ(frame.find("mean")->number, summary.mean);
    EXPECT_EQ(frame.find("sigma")->number, summary.stddev);
    EXPECT_EQ(frame.find("metrics_fnv1a")->string, refHash);
    EXPECT_DOUBLE_EQ(frame.find("ok")->number,
                     static_cast<double>(kTranSamples));
  }
}

TEST(CampaignServer, RepeatRequestGoesWarmWithIdenticalBits) {
  CampaignServer server;
  const std::string request =
      makeRequest("warmth", kInverterDeck, kSamples, 2, 16);

  const JsonValue cold = finalFrameOf(runLine(server, request));
  ASSERT_EQ(cold.find("type")->string, "final");
  EXPECT_EQ(cold.find("cache")->string, "cold");

  const JsonValue warm = finalFrameOf(runLine(server, request));
  ASSERT_EQ(warm.find("type")->string, "final");
  EXPECT_EQ(warm.find("cache")->string, "warm");
  EXPECT_EQ(warm.find("metrics_fnv1a")->string,
            cold.find("metrics_fnv1a")->string);

  const auto stats = server.cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(CampaignServer, InterleavedCampaignsMatchTheirSoloRuns) {
  // Solo baselines, one per topology.
  std::string soloInvHash;
  std::string soloDivHash;
  {
    CampaignServer solo;
    soloInvHash = finalFrameOf(runLine(solo, makeRequest("a", kInverterDeck,
                                                         kSamples, 2, 12)))
                      .find("metrics_fnv1a")
                      ->string;
    soloDivHash = finalFrameOf(runLine(solo, makeRequest("b", kDividerDeck,
                                                         kSamples, 2, 12)))
                      .find("metrics_fnv1a")
                      ->string;
  }

  // Two concurrent connections, two topologies: campaigns interleave at
  // chunk granularity on the shared worker pool and session cache.
  CampaignServer server;
  std::vector<std::string> invFrames;
  std::vector<std::string> divFrames;
  std::thread invThread([&] {
    invFrames =
        runLine(server, makeRequest("a", kInverterDeck, kSamples, 2, 12));
  });
  std::thread divThread([&] {
    divFrames =
        runLine(server, makeRequest("b", kDividerDeck, kSamples, 2, 12));
  });
  invThread.join();
  divThread.join();

  EXPECT_GE(countProgress(invFrames), 3);
  EXPECT_GE(countProgress(divFrames), 3);
  const JsonValue invFinal = finalFrameOf(invFrames);
  const JsonValue divFinal = finalFrameOf(divFrames);
  ASSERT_EQ(invFinal.find("type")->string, "final");
  ASSERT_EQ(divFinal.find("type")->string, "final");
  EXPECT_EQ(invFinal.find("id")->string, "a");
  EXPECT_EQ(divFinal.find("id")->string, "b");
  // Concurrency must not leak into results: same bits as the solo runs.
  EXPECT_EQ(invFinal.find("metrics_fnv1a")->string, soloInvHash);
  EXPECT_EQ(divFinal.find("metrics_fnv1a")->string, soloDivHash);
}

// --- statistical tier over the wire ----------------------------------------

TEST(CampaignServer, StatisticalTierStreamsBlockedChunks) {
  CampaignServer server;
  std::string req = "{\"id\":\"st\",\"deck\":";
  appendJsonString(req, kInverterDeck);
  req += ",\"samples\":96,\"seed\":3,\"threads\":2"
         ",\"mode\":{\"tier\":\"statistical\",\"solver\":\"reusePivot\"}"
         ",\"stream_every\":24,\"kde_every\":48,\"kde_points\":16"
         ",\"measure\":{\"probes\":[\"out\"],\"spec\":{\"min\":0.2}}}";
  const std::vector<std::string> frames = runLine(server, req);

  // stream_every=24 rounds up to the 32-sample warm-chain block: 3 chunks.
  EXPECT_EQ(countProgress(frames), 3);
  int kdeFrames = 0;
  for (const std::string& f : frames)
    if (f.find("\"type\":\"kde\"") != std::string::npos) ++kdeFrames;
  EXPECT_GE(kdeFrames, 1);

  const JsonValue frame = finalFrameOf(frames);
  ASSERT_EQ(frame.find("type")->string, "final");
  EXPECT_EQ(frame.find("health")->string, "OK");
  ASSERT_NE(frame.find("yield"), nullptr);
  EXPECT_FALSE(frame.find("yield")->isNull());
}

// --- socket transport --------------------------------------------------------

/// A server accepting on a fresh unix socket, and one connected client.
class SocketSession {
 public:
  SocketSession()
      : path_(testing::TempDir() + "vsstat_serve_" +
              std::to_string(::getpid()) + ".sock") {
    server_.listenUnix(path_);
    serving_ = std::thread([this] { server_.serve(); });
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);
  }
  ~SocketSession() {
    ::close(fd_);
    server_.stop();
    serving_.join();
    ::unlink(path_.c_str());
  }

  /// Sends `bytes`; false once the server has closed the connection.
  bool send(const std::string& bytes) const {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }
  /// Reads until `lines` frames arrived or the server closed; returns the
  /// frames without their newlines.
  std::vector<std::string> receive(std::size_t lines) const {
    std::string text;
    char buf[4096];
    while (static_cast<std::size_t>(
               std::count(text.begin(), text.end(), '\n')) < lines) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) break;
      text.append(buf, static_cast<std::size_t>(n));
    }
    std::vector<std::string> frames;
    for (std::size_t start = 0, end; (end = text.find('\n', start)) !=
                                     std::string::npos;
         start = end + 1)
      frames.push_back(text.substr(start, end - start));
    return frames;
  }
  int fd() const noexcept { return fd_; }

 private:
  std::string path_;
  CampaignServer server_;
  std::thread serving_;
  int fd_ = -1;
};

TEST(CampaignServer, SocketSplitsLinesAcrossAndWithinReads) {
  const SocketSession session;
  const std::string a = makeRequest("a", kInverterDeck, 8, 1, 8);
  const std::string b = makeRequest("b", kDividerDeck, 8, 1, 8);
  // Two requests in one write, then one split mid-line across two writes.
  ASSERT_TRUE(session.send(a + "\n" + b + "\n" + a.substr(0, 10)));
  ASSERT_TRUE(session.send(a.substr(10) + "\n"));
  std::vector<std::string> finals;
  for (const std::string& f : session.receive(6))
    if (f.find("\"type\":\"final\"") != std::string::npos) finals.push_back(f);
  ASSERT_EQ(finals.size(), 3u);
  EXPECT_EQ(parseJson(finals[0]).find("id")->string, "a");
  EXPECT_EQ(parseJson(finals[1]).find("id")->string, "b");
  EXPECT_EQ(parseJson(finals[2]).find("cache")->string, "warm");
}

TEST(CampaignServer, OverlongRequestLineIsRefusedAndClosed) {
  const SocketSession session;
  // 64 MiB with no newline, written from its own thread: the server stops
  // reading at kMaxRequestLineBytes, so the writer sees the peer go away.
  std::thread writer([&session] {
    const std::string block(std::size_t{1} << 20, 'x');
    for (int i = 0; i < 64 && session.send(block); ++i) {
    }
  });
  const std::vector<std::string> frames = session.receive(2);
  writer.join();
  ASSERT_EQ(frames.size(), 1u) << "one error frame, then the close";
  const JsonValue frame = parseJson(frames[0]);
  EXPECT_EQ(frame.find("type")->string, "error");
  EXPECT_EQ(frame.find("code")->string, "bad_request");
  char byte;
  EXPECT_LE(::recv(session.fd(), &byte, 1, 0), 0) << "connection closed";
}

}  // namespace
}  // namespace vsstat::serve
