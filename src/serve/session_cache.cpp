#include "serve/session_cache.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>

#include "mc/providers.hpp"
#include "spice/waveform.hpp"
#include "util/fnv1a.hpp"

namespace vsstat::serve {

namespace {

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

void mixString(util::Fnv1a& hash, const std::string& s) {
  hash.mix(s.size());
  for (const char c : s)
    hash.mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
}

void mixAlphas(util::Fnv1a& hash, const models::PelgromAlphas& a) {
  hash.mixDouble(a.aVt0);
  hash.mixDouble(a.aLeff);
  hash.mixDouble(a.aWeff);
  hash.mixDouble(a.aMu);
  hash.mixDouble(a.aCinv);
}

/// Cache-key text: the 64-bit hash plus the deck length.
std::string keyText(const util::Fnv1a& hash, std::size_t deckBytes) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx-%zu",
                static_cast<unsigned long long>(hash.value()), deckBytes);
  return buf;
}

/// Hashes everything that determines a pool's identity: deck text, the
/// three session-mode axes, the variability spec, and the sampling scheme
/// (generator schemes need FixedZProvider sessions, so they cannot share a
/// pool with provider-RNG requests).
std::string cacheKeyOf(const CampaignRequest& req) {
  util::Fnv1a hash;
  mixString(hash, req.deck);
  hash.mix(static_cast<std::uint64_t>(req.mode.numerics));
  hash.mix(static_cast<std::uint64_t>(req.mode.solver));
  hash.mix(static_cast<std::uint64_t>(req.mode.tier));
  hash.mix(static_cast<std::uint64_t>(req.scheme));
  mixAlphas(hash, req.nmosAlphas);
  mixAlphas(hash, req.pmosAlphas);
  return keyText(hash, req.deck.size());
}

/// Deck-plan cache key: content hash of the deck text alone (the DeckPlan
/// depends on nothing else).
std::string deckKeyOf(const std::string& deck) {
  util::Fnv1a hash;
  mixString(hash, deck);
  return keyText(hash, deck.size());
}

double millisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::shared_ptr<const DeckPlan> parseDeckPlan(const std::string& deck) {
  // Validation parse: classified deck rejects surface here with their
  // 1-based line (spice::NetlistParseError propagates to the server's
  // deck_error frame), before any pool or session is touched.
  const spice::ParsedNetlist parsed = spice::parseNetlist(deck);
  auto plan = std::make_shared<DeckPlan>();
  plan->vsMosfets = parsed.vsMosfets;
  if (parsed.vsNmos) plan->nmos = *parsed.vsNmos;
  if (parsed.vsPmos) plan->pmos = *parsed.vsPmos;
  plan->tran = parsed.tran;
  plan->ground = parsed.circuit.ground();
  // Snapshot the node table: NodeIds are contiguous and first-mention-
  // ordered, so every worker's parse of this deck assigns the same ids.
  const std::size_t nodes = parsed.circuit.nodeCount();
  plan->nodeByName.reserve(nodes);
  for (std::size_t id = 0; id < nodes; ++id)
    plan->nodeByName.emplace(
        parsed.circuit.nodeName(static_cast<spice::NodeId>(id)),
        static_cast<spice::NodeId>(id));
  return plan;
}

CampaignPlan::CampaignPlan(CampaignRequest request)
    : request_(std::move(request)),
      key_(cacheKeyOf(request_)),
      deck_(parseDeckPlan(request_.deck)) {
  resolveMeasure();
}

CampaignPlan::CampaignPlan(CampaignRequest request,
                           std::shared_ptr<const DeckPlan> deck)
    : request_(std::move(request)),
      key_(cacheKeyOf(request_)),
      deck_(std::move(deck)) {
  require(deck_ != nullptr, "CampaignPlan: null deck plan");
  resolveMeasure();
}

void CampaignPlan::resolveMeasure() {
  if (request_.measure.analysis == MeasureSpec::Analysis::tran &&
      !deck_->tran)
    throw RequestValidationError(
        RequestError::badRequest,
        "measure.analysis is 'tran' but the deck has no .tran card");

  // Resolve probe names against the deck plan's node-table snapshot (no
  // Circuit mutation: the DeckPlan is shared across concurrent requests).
  probeNodes_.reserve(request_.measure.probes.size());
  for (const std::string& probe : request_.measure.probes) {
    const std::string name = lowercase(probe);
    if (name == "0" || name == "gnd") {
      probeNodes_.push_back(deck_->ground);
      continue;
    }
    const auto it = deck_->nodeByName.find(name);
    if (it == deck_->nodeByName.end())
      throw RequestValidationError(
          RequestError::badRequest,
          "measure.probes: unknown node '" + probe + "'");
    probeNodes_.push_back(it->second);
  }
}

std::size_t CampaignPlan::zDimension() const noexcept {
  return deck_->vsMosfets * mc::VsFixedZProvider::kDimsPerDevice;
}

std::shared_ptr<sim::SessionPool<DeckFixture>> CampaignPlan::makePool() const {
  const std::string deck = request_.deck;
  const sim::SessionPool<DeckFixture>::Builder build =
      [deck](circuits::DeviceProvider& provider) {
        spice::ParsedNetlist parsed = spice::parseNetlist(deck, provider);
        return DeckFixture{std::move(parsed.circuit)};
      };

  const models::VsParams nmos = deck_->nmos;
  const models::VsParams pmos = deck_->pmos;
  const models::PelgromAlphas nmosAlphas = request_.nmosAlphas;
  const models::PelgromAlphas pmosAlphas = request_.pmosAlphas;
  mc::ProviderFactory providerFactory;
  if (request_.scheme == mc::SamplingPlan::Scheme::providerRng) {
    providerFactory = [nmos, pmos, nmosAlphas, pmosAlphas]() {
      // Initial seed is irrelevant: bindSample reseeds per sample.
      return std::make_unique<mc::VsStatisticalProvider>(
          nmos, pmos, nmosAlphas, pmosAlphas, stats::Rng(1));
    };
  } else {
    providerFactory = [nmos, pmos, nmosAlphas, pmosAlphas]() {
      return std::make_unique<mc::VsFixedZProvider>(nmos, pmos, nmosAlphas,
                                                    pmosAlphas);
    };
  }
  return std::make_shared<sim::SessionPool<DeckFixture>>(
      build, providerFactory, request_.mode);
}

mc::McResult CampaignPlan::run(sim::SessionPool<DeckFixture>& pool,
                               const FrameSink& emit, bool warm) const {
  const auto start = std::chrono::steady_clock::now();

  mc::McOptions options;
  options.samples = request_.samples;
  options.seed = request_.seed;
  options.threads = request_.threads;

  mc::SamplingPlan plan;
  plan.scheme = request_.scheme;
  plan.dimension = zDimension();

  // Per-sample measurement: the fixture arrives rebound for the sample.
  const std::optional<std::pair<double, double>> tran = deck_->tran;
  const std::vector<spice::NodeId> probes = probeNodes_;
  const MeasureSpec::Analysis analysis = request_.measure.analysis;
  const mc::CircuitSampleFn<DeckFixture> measure =
      [tran, probes, analysis](std::size_t /*index*/,
                               sim::CampaignSession<DeckFixture>& session,
                               stats::Rng& /*rng*/,
                               std::vector<double>& out) {
        spice::SimSession& spice = session.spice();
        if (analysis == MeasureSpec::Analysis::op) {
          const spice::OperatingPoint op = spice.dcOperatingPoint();
          for (std::size_t m = 0; m < probes.size(); ++m)
            out[m] = op.v(probes[m]);
          return;
        }
        spice::TransientOptions topt;
        topt.dt = tran->first;
        topt.tStop = tran->second;
        // Any valid node count will do: transient() re-arms the record.
        static thread_local spice::Waveform wf(1);
        spice.transient(topt, wf);
        for (std::size_t m = 0; m < probes.size(); ++m)
          out[m] = wf.finalValue(probes[m]);
      };

  StreamingEstimator estimator(metricCount(), request_.measure.spec);
  double ttfsMs = -1.0;
  std::size_t lastKde = 0;
  const mc::ChunkFn onChunk = [&](const mc::McChunkView& view) {
    estimator.fold(view);
    if (ttfsMs < 0.0) ttfsMs = millisSince(start);
    if (emit) {
      emit(progressFrame(request_.id, estimator, millisSince(start)));
      if (request_.kdeEvery > 0 &&
          estimator.done() / static_cast<std::size_t>(request_.kdeEvery) >
              lastKde) {
        lastKde = estimator.done() / static_cast<std::size_t>(request_.kdeEvery);
        emit(kdeFrame(request_.id, estimator,
                      static_cast<std::size_t>(request_.kdePoints)));
      }
    }
  };

  mc::McResult result =
      mc::runCampaign(options, metricCount(), pool, measure,
                      sim::RescuePolicy{}, plan, request_.streamEvery, onChunk);
  if (ttfsMs < 0.0) ttfsMs = millisSince(start);
  if (emit)
    emit(finalFrame(request_.id, result,
                    static_cast<std::size_t>(request_.samples),
                    request_.measure.spec, warm, ttfsMs, millisSince(start)));
  return result;
}

std::shared_ptr<const DeckPlan> SessionCache::deckPlan(
    const std::string& deck) {
  return plans_.acquire(deckKeyOf(deck),
                        [&deck] { return parseDeckPlan(deck); });
}

SessionCache::Acquired SessionCache::acquire(const CampaignPlan& plan) {
  Acquired acquired;
  acquired.pool = cache_.acquire(
      plan.cacheKey(), [&plan] { return plan.makePool(); }, &acquired.warm);
  return acquired;
}

}  // namespace vsstat::serve
