#include "checks.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "models/vs_model.hpp"
#include "serve/request.hpp"
#include "serve/stream.hpp"

namespace e2e::checks {

bool sameCampaign(const mc::McResult& a, const mc::McResult& b) {
  return a.metrics == b.metrics && a.failures == b.failures &&
         a.failuresByClass == b.failuresByClass && a.rescued == b.rescued;
}

MomentTest momentsMatch(const std::vector<double>& values, double refMean,
                        double refSigma, double refCount) {
  MomentTest t;
  t.n = values.size();
  if (t.n < 2 || refCount < 2 || refSigma <= 0.0) return t;
  const double n = static_cast<double>(t.n);
  double sum = 0.0;
  for (double v : values) sum += v;
  t.mean = sum / n;
  double m2 = 0.0;
  double m4 = 0.0;
  for (double v : values) {
    const double d = (v - t.mean) * (v - t.mean);
    m2 += d;
    m4 += d * d;
  }
  m2 /= n;
  m4 /= n;
  t.sigma = std::sqrt(m2 * n / (n - 1.0));
  // Standard errors of the run's mean and sigma; the reference's errors
  // are the same quantities at its own sample count.
  const double widen = std::sqrt(1.0 + n / refCount);
  const double seMean = t.sigma / std::sqrt(n) * widen;
  const double seSigma =
      std::sqrt(std::max(m4 - m2 * m2, 0.0) / n) / (2.0 * t.sigma) * widen;
  t.zMean = std::fabs(t.mean - refMean) / seMean;
  t.zSigma = std::fabs(t.sigma - refSigma) / seSigma;
  t.ok = t.zMean <= 3.0 && t.zSigma <= 3.0;
  return t;
}

bool irDropsInRange(const std::vector<double>& drops, double supply) {
  return !drops.empty() &&
         std::all_of(drops.begin(), drops.end(), [supply](double d) {
           return d > 0.0 && d < supply;
         });
}

extract::FitCampaign::DatasetFn population(
    const extract::FitCampaign& campaign, const models::VsParams& seed) {
  return [&campaign, seed](std::size_t, stats::Rng& rng,
                           extract::FitDataset& d) {
    models::VsParams truth = seed;
    truth.vt0 += kVtSigma * rng.normal();
    const models::VsModel model(truth);
    campaign.synthesizeDataset(model, kNoiseRel, rng, d);
  };
}

double truthVt0(const models::VsParams& seed, std::uint64_t batchSeed,
                std::size_t lane) {
  // The lane's dataset callback receives root.fork(lane); its first normal
  // draw is the truth shift.
  stats::Rng rng = stats::Rng(batchSeed).fork(lane);
  return seed.vt0 + kVtSigma * rng.normal();
}

void CardError::add(const extract::FitCampaignResult& r,
                    const models::VsParams& seed, std::uint64_t batchSeed) {
  const double truthRest[7] = {0.0,     seed.delta0, seed.n0,  seed.vxo,
                               seed.mu, seed.beta,   seed.cinv};
  lanes += r.laneCount;
  for (std::size_t lane = 0; lane < r.laneCount; ++lane) {
    if (r.outcomes[lane] != extract::FitOutcome::converged &&
        r.outcomes[lane] != extract::FitOutcome::boundPinned)
      continue;
    ++extracted;
    const auto x = r.lane(lane);
    for (std::size_t j = 0; j < x.size() && j < 7; ++j) {
      const double truth = j == 0 ? truthVt0(seed, batchSeed, lane)
                                  : truthRest[j];
      const double rel = std::fabs(x[j] - truth) / std::fabs(truth);
      sum += rel;
      ++terms;
      max = std::max(max, rel);
    }
  }
}

FinalFrame parseFinalFrame(const std::string& frame) {
  FinalFrame f;
  try {
    const vsstat::serve::JsonValue doc = vsstat::serve::parseJson(frame);
    const auto* type = doc.find("type");
    if (type == nullptr || type->string != "final") return f;
    const auto num = [&doc](const char* key) -> long {
      const auto* v = doc.find(key);
      return v != nullptr && v->kind == vsstat::serve::JsonValue::Kind::number
                 ? static_cast<long>(v->number)
                 : -1;
    };
    f.samples = num("samples");
    f.ok = num("ok");
    if (const auto* fail = doc.find("failures"); fail != nullptr)
      if (const auto* total = fail->find("total"); total != nullptr)
        f.failures = static_cast<long>(total->number);
    if (const auto* h = doc.find("metrics_fnv1a"); h != nullptr)
      f.hash = h->string;
    if (const auto* c = doc.find("cache"); c != nullptr) f.cache = c->string;
    f.valid = true;
  } catch (const std::exception&) {
    f.valid = false;
  }
  return f;
}

std::string errorFrameMessage(const std::string& frame) {
  try {
    const vsstat::serve::JsonValue doc = vsstat::serve::parseJson(frame);
    const auto* type = doc.find("type");
    const auto* message = doc.find("message");
    if (type == nullptr || type->string != "error" || message == nullptr)
      return "";
    return message->string;
  } catch (const std::exception&) {
    return "";
  }
}

std::string fingerprintText(const mc::McResult& result) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64,
                vsstat::serve::metricsFingerprint(result));
  return buf;
}

bool finalFrameHolds(const FinalFrame& frame, long requestedSamples,
                     const std::string& replayHash) {
  return frame.valid && frame.samples == requestedSamples &&
         frame.ok >= 0 && frame.failures >= 0 &&
         frame.ok + frame.failures == frame.samples &&
         !frame.hash.empty() && frame.hash == replayHash;
}

}  // namespace e2e::checks
