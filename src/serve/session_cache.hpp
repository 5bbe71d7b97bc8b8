// Deck-driven campaigns and the server's multi-tenant session cache.
//
// The campaign server receives topology as TEXT (a SPICE deck inside the
// request JSON), so the build-once/rebind-per-sample machinery needs a
// fixture whose builder is "parse this deck through the worker's
// provider".  The one-time derivation work splits along cacheability:
//
//   DeckPlan     -- everything that depends on the deck TEXT alone: the
//                   validation parse (classified, line-numbered rejects),
//                   the node-name table snapshot, the .model cards, the
//                   .tran parameters.  Cached by SessionCache keyed on
//                   deck content, so a warm request never parses its deck.
//   CampaignPlan -- the per-request resolution against a DeckPlan:
//                   probe-name lookups, measure/deck consistency, the
//                   builder/provider-factory closures, and the cache key
//                   naming the topology+options combination.
//
// SessionCache keys sim::SessionPoolCache<DeckFixture> by that key: a
// repeat request (same deck text, session-mode axes, variability spec, and
// sampling scheme) leases the warm worker sessions the previous campaign
// built instead of re-parsing and re-priming.  Together the two cache
// levels are the server's warm-path speedup -- a warm request's
// time-to-first-stat pays neither deck parse nor session build, only the
// first chunk's samples -- and the bench gates it (warm_vs_cold_ttfs).
//
// Determinism: NodeIds are assigned in first-mention deck order, so the
// validation parse and every worker's build resolve identical ids; the
// campaign itself IS an mc::runCampaign call on the shared pool (results
// are bit-identical across 1/2/4/... workers and identical to an
// in-process campaign over the same deck, seed, and axes).
#ifndef VSSTAT_SERVE_SESSION_CACHE_HPP
#define VSSTAT_SERVE_SESSION_CACHE_HPP

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mc/circuit_campaign.hpp"
#include "serve/request.hpp"
#include "serve/stream.hpp"
#include "sim/session.hpp"
#include "spice/netlist.hpp"
#include "util/lru_cache.hpp"

namespace vsstat::serve {

/// Campaign fixture of a parsed deck (the `circuit` member is the
/// sim::CampaignSession fixture contract).
struct DeckFixture {
  spice::Circuit circuit;
};

/// Sink for outbound frames (one line each, no trailing newline).
using FrameSink = std::function<void(const std::string&)>;

/// Cached result of a deck's validation parse: everything a request needs
/// that depends only on the deck text.  Immutable once built, shared
/// across concurrent requests (probe resolution reads the node table, it
/// never mutates a Circuit).
struct DeckPlan {
  std::size_t vsMosfets = 0;       ///< vs_* MOSFET instances, deck order
  models::VsParams nmos;           ///< first vs_nmos card (default if none)
  models::VsParams pmos;           ///< first vs_pmos card (default if none)
  std::optional<std::pair<double, double>> tran;  ///< .tran {dt, tstop}
  /// Lowercase node name -> first-mention-ordered NodeId, snapshotted from
  /// the validation parse (ids match every worker's parse of this deck).
  std::unordered_map<std::string, spice::NodeId> nodeByName;
  spice::NodeId ground = 0;
};

/// Validation parse of a deck.  A malformed deck throws
/// spice::NetlistParseError carrying the 1-based deck line.
[[nodiscard]] std::shared_ptr<const DeckPlan> parseDeckPlan(
    const std::string& deck);

/// One validated request, resolved against its deck and ready to run.
/// The two-argument form resolves against an already-parsed (possibly
/// cached) DeckPlan and performs no deck parse at all; the single-argument
/// convenience form parses the deck first.  A malformed deck throws
/// spice::NetlistParseError (the server's deck_error frame); an unknown
/// probe or a measure/deck mismatch throws RequestValidationError with
/// code badRequest.
class CampaignPlan {
 public:
  explicit CampaignPlan(CampaignRequest request);
  CampaignPlan(CampaignRequest request, std::shared_ptr<const DeckPlan> deck);

  [[nodiscard]] const CampaignRequest& request() const noexcept {
    return request_;
  }
  /// Opaque key naming (deck text, mode axes, variability, scheme) -- the
  /// session-cache identity.  Requests differing only in samples / seed /
  /// threads / measure / streaming cadence share a pool.
  [[nodiscard]] const std::string& cacheKey() const noexcept { return key_; }
  /// Standardized mismatch dimensionality (vs_* devices x 5 coordinates).
  [[nodiscard]] std::size_t zDimension() const noexcept;
  [[nodiscard]] std::size_t metricCount() const noexcept {
    return request_.measure.probes.size();
  }

  /// Builds a fresh (cold) session pool for this plan.
  [[nodiscard]] std::shared_ptr<sim::SessionPool<DeckFixture>> makePool()
      const;

  /// Runs the campaign against `pool` (shared, possibly concurrently with
  /// other campaigns on other pools), emitting progress / kde / final
  /// frames through `emit` on the calling thread.  `warm` is echoed into
  /// the final frame's "cache" field.
  [[nodiscard]] mc::McResult run(sim::SessionPool<DeckFixture>& pool,
                                 const FrameSink& emit, bool warm) const;

 private:
  void resolveMeasure();

  CampaignRequest request_;
  std::string key_;
  std::shared_ptr<const DeckPlan> deck_;
  std::vector<spice::NodeId> probeNodes_;
};

/// Multi-tenant two-level cache, thread-safe, one util::LruCache per level
/// (same capacity):
///   deckPlan() -- validation-parse results keyed by deck content, so warm
///                 requests skip the deck parse;
///   acquire()  -- shared session pools keyed by CampaignPlan::cacheKey()
///                 (sim::SessionPoolCache), so warm requests lease
///                 already-built worker sessions.
/// The levels need no eviction coupling: a DeckPlan is keyed by content,
/// so a cached entry stays correct even after its pool is evicted.
class SessionCache {
 public:
  explicit SessionCache(std::size_t capacity = 8)
      : plans_(capacity), cache_(capacity) {}

  /// Cached validation parse of `deck` (parses and caches on miss).
  [[nodiscard]] std::shared_ptr<const DeckPlan> deckPlan(
      const std::string& deck);

  struct Acquired {
    std::shared_ptr<sim::SessionPool<DeckFixture>> pool;
    bool warm = false;  ///< key was resident (sessions already built)
  };

  [[nodiscard]] Acquired acquire(const CampaignPlan& plan);

  [[nodiscard]] sim::SessionPoolCache<DeckFixture>::Stats stats() const {
    return cache_.stats();
  }

 private:
  util::LruCache<const DeckPlan> plans_;
  sim::SessionPoolCache<DeckFixture> cache_;
};

}  // namespace vsstat::serve

#endif  // VSSTAT_SERVE_SESSION_CACHE_HPP
