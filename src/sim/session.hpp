// Build-once / rebind-per-sample campaign sessions.
//
// The paper's statistical flows (MC delay/SNM distributions, BPV variance
// measurement, tail-yield estimation) solve the *same circuit topology*
// tens of thousands of times with only device cards changing.  Rebuilding
// the Circuit, re-instantiating every MosfetElement, and re-capturing the
// assembler's sparsity pattern per sample throws away everything that is
// sample-invariant.  A CampaignSession builds a benchmark fixture exactly
// once and re-evaluates it per sample by *rebinding* device cards in place:
//
//   * the fixture build runs through a circuits::RecordingProvider, which
//     captures the builder's fixed documented device order;
//   * per sample, bindSample() reseeds the provider with the sample's
//     decorrelated child RNG and replays that order through
//     DeviceProvider::resample() -> MosfetElement::rebind();
//   * analyses run through a persistent spice::SimSession, so the MNA
//     pattern, Newton workspace, and factorization buffers live for the
//     whole campaign.
//
// Determinism: resample() consumes exactly the draws make() would, and
// SimSession pins its solver numerics per solve, so a session campaign is
// bit-identical to the legacy rebuild-per-sample path -- and independent
// of which worker session evaluates which sample (SessionPool hands
// sessions out lease-style to the persistent util::ThreadPool workers).
//
// Session modes ride along unchanged: spice::SessionOptions carries the
// NumericsMode (reference/fast) and linalg::SolverMode (fresh/reusePivot)
// axes into every per-worker SimSession.  Both opt-in modes keep the
// scheduling-independence half of the contract -- reuse-pivot sessions
// prime their canonical pivot order from the as-built fixture, which
// identically-built workers share -- they only trade away bit-identity
// with the rebuild path (tolerance-tested instead; see
// tests/sim/test_reuse_pivot_campaign.cpp and test_fast_campaign.cpp).
#ifndef VSSTAT_SIM_SESSION_HPP
#define VSSTAT_SIM_SESSION_HPP

#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "circuits/provider.hpp"
#include "spice/circuit.hpp"
#include "spice/elements.hpp"
#include "spice/session.hpp"
#include "stats/rng.hpp"
#include "util/error.hpp"
#include "util/lru_cache.hpp"

namespace vsstat::sim {

/// One worker's build-once fixture state.  `Fixture` is any of the
/// circuits:: benchmark structs (or a user struct) exposing a `circuit`
/// member; the builder instantiates its transistors through the provider
/// it is handed, exactly as in the rebuild-per-sample flow.
template <class Fixture>
class CampaignSession {
 public:
  using Builder = std::function<Fixture(circuits::DeviceProvider&)>;

  CampaignSession(const Builder& build,
                  std::unique_ptr<circuits::DeviceProvider> provider,
                  spice::SessionOptions spiceOptions = {})
      : provider_(std::move(provider)) {
    require(provider_ != nullptr, "CampaignSession: null provider");
    circuits::RecordingProvider recorder(*provider_);
    fixture_ = std::make_unique<Fixture>(build(recorder));
    session_ =
        std::make_unique<spice::SimSession>(fixture_->circuit, spiceOptions);
    // Resolve the recorded build order to the built circuit's elements:
    // builders name each MOSFET after the instanceName they requested.
    const std::vector<circuits::DeviceRecord>& records = recorder.records();
    plan_.reserve(records.size());
    for (const circuits::DeviceRecord& r : records)
      plan_.push_back(Binding{&fixture_->circuit.mosfet(r.instanceName), r});
  }

  /// Rebinds every recorded device for the next sample: reseeds the
  /// provider with the sample's decorrelated RNG, then replays the build's
  /// device order.  Draw-for-draw identical to rebuilding the fixture with
  /// a fresh provider seeded from `rng`.
  void bindSample(const stats::Rng& rng) {
    provider_->reseed(rng);
    rebind();
  }

  /// Replays the rebind pass without reseeding -- for providers whose
  /// state is set externally (e.g. the fixed-z indicators of yield
  /// importance sampling).  The sampled parameters land in the session's
  /// device-bank lanes immediately afterwards (syncDeviceBank): the bank's
  /// struct-of-arrays blocks are re-derived once per sample, here, instead
  /// of inside the first Newton assembly of the sample's solves.
  void rebind() {
    for (Binding& b : plan_)
      provider_->resample(b.record.type, b.record.instanceName,
                          b.record.nominal, *b.element);
    session_->syncDeviceBank();
    // Statistical tier: a rebind marks the start of a sample's analysis
    // sequence, so rewind the warm-slot cursor (inert under perSample).
    session_->beginSampleWarmStart();
  }

  /// Statistical-tier cold-start rule: invalidates every warm slot so the
  /// next sample starts its warm chain from scratch.  Blocked campaigns
  /// call this at block boundaries; inert under perSample.
  void coldStart() noexcept { session_->clearWarmStarts(); }

  [[nodiscard]] Fixture& fixture() noexcept { return *fixture_; }
  [[nodiscard]] spice::SimSession& spice() noexcept { return *session_; }
  [[nodiscard]] circuits::DeviceProvider& provider() noexcept {
    return *provider_;
  }
  /// Number of transistors the per-sample rebind pass touches.
  [[nodiscard]] std::size_t deviceCount() const noexcept {
    return plan_.size();
  }

 private:
  struct Binding {
    spice::MosfetElement* element;
    circuits::DeviceRecord record;
  };

  std::unique_ptr<circuits::DeviceProvider> provider_;
  std::unique_ptr<Fixture> fixture_;
  std::unique_ptr<spice::SimSession> session_;
  std::vector<Binding> plan_;
};

/// Lease-based pool of per-worker sessions for parallel campaigns.
/// Sessions are built lazily on first acquisition (the pool size converges
/// to the number of concurrently active workers, not the sample count) and
/// handed out under a short lock; fixture construction runs outside it.
/// Because session numerics are sample-independent (see CampaignSession),
/// campaign results do not depend on which session served which sample.
template <class Fixture>
class SessionPool {
 public:
  using Builder = typename CampaignSession<Fixture>::Builder;
  using ProviderFactory =
      std::function<std::unique_ptr<circuits::DeviceProvider>()>;

  SessionPool(Builder build, ProviderFactory providerFactory,
              spice::SessionOptions spiceOptions = {})
      : build_(std::move(build)),
        providerFactory_(std::move(providerFactory)),
        spiceOptions_(spiceOptions) {}

  /// RAII lease: returns the session to the free list on destruction.
  class Lease {
   public:
    Lease(SessionPool& pool, CampaignSession<Fixture>& session)
        : pool_(&pool), session_(&session) {}
    ~Lease() {
      if (pool_ != nullptr) pool_->release(session_);
    }
    Lease(Lease&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          session_(std::exchange(other.session_, nullptr)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    [[nodiscard]] CampaignSession<Fixture>& operator*() noexcept {
      return *session_;
    }
    [[nodiscard]] CampaignSession<Fixture>* operator->() noexcept {
      return session_;
    }

   private:
    SessionPool* pool_;
    CampaignSession<Fixture>* session_;
  };

  [[nodiscard]] Lease acquire() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        CampaignSession<Fixture>* s = free_.back();
        free_.pop_back();
        return Lease(*this, *s);
      }
    }
    // First acquisition on this worker: build outside the lock (fixture
    // construction is the expensive part the pool exists to amortize).
    auto session = std::make_unique<CampaignSession<Fixture>>(
        build_, providerFactory_(), spiceOptions_);
    CampaignSession<Fixture>* raw = session.get();
    const std::lock_guard<std::mutex> lock(mutex_);
    sessions_.push_back(std::move(session));
    return Lease(*this, *raw);
  }

  /// Session modes every session of this pool is built with.
  [[nodiscard]] const spice::SessionOptions& options() const noexcept {
    return spiceOptions_;
  }

  /// Sessions built so far (telemetry: bounded by peak worker concurrency).
  [[nodiscard]] std::size_t sessionCount() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return sessions_.size();
  }

 private:
  void release(CampaignSession<Fixture>* session) {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(session);
  }

  Builder build_;
  ProviderFactory providerFactory_;
  spice::SessionOptions spiceOptions_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<CampaignSession<Fixture>>> sessions_;
  std::vector<CampaignSession<Fixture>*> free_;
};

/// Multi-tenant session-pool cache: a long-lived service (serve/) keys
/// shared pools by deck text + session-mode axes + variability spec, so a
/// repeat request leases already-built (warm) worker sessions.  Distinct
/// keys never share sessions, which keeps the per-key determinism contract
/// intact; eviction leaves a running campaign's pool alive until its last
/// lease returns.
template <class Fixture>
using SessionPoolCache = util::LruCache<SessionPool<Fixture>>;

}  // namespace vsstat::sim

#endif  // VSSTAT_SIM_SESSION_HPP
