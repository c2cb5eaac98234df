#include "scenario/plan_generator.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace fortress::scenario {

namespace {

// Cost ceilings for generated plans: they keep one (plan x 3-trial)
// campaign in the low-millisecond range, so the differential lane can
// afford dozens of plans times four campaign configurations.
constexpr std::uint64_t kMaxHorizonSteps = 5;
constexpr double kMaxStepDuration = 60.0;
constexpr double kMaxProbesPerStep = 24.0;
constexpr std::uint64_t kMaxServers = 4;
constexpr std::uint64_t kMaxProxies = 4;
constexpr std::uint64_t kMaxTrafficClients = 3;
constexpr double kMaxTrafficRate = 4.0;
constexpr std::uint64_t kMaxPopulation = 4096;
// Probability of opting into each optional plane.
constexpr double kPPartitions = 0.5;
constexpr double kPFaults = 0.6;
constexpr double kPService = 0.45;
constexpr double kPTraffic = 0.4;
constexpr double kPPopulation = 0.3;

/// Round a double to 6 significant-ish decimals so generated plans have
/// short canonical lexemes (files and digests stay readable); the value is
/// still an exact double, which is all determinism needs.
double rnd(double v) {
  return std::round(v * 1e6) / 1e6;
}

net::LatencySpec random_latency(Rng& rng, double floor_scale,
                                double span_scale) {
  const double a = rnd(floor_scale * rng.uniform01());
  switch (rng.below(3)) {
    case 0: return net::LatencySpec::fixed(a);
    case 1:
      return net::LatencySpec::uniform(a,
                                       rnd(a + span_scale * rng.uniform01()));
    default:
      // Heavy-tail-ish: exponential extra with mean up to span_scale.
      return net::LatencySpec::exponential(
          a, rnd(span_scale * (0.05 + rng.uniform01())));
  }
}

/// The address vocabulary partitions can name. Matching what each class's
/// LiveSystem interns makes windows bite; unknown members are inert in the
/// other classes (exactly how hand-authored cross-class plans are written).
std::vector<net::Address> address_pool(int n_servers, int n_proxies) {
  std::vector<net::Address> pool;
  for (int i = 0; i < std::max(4, n_servers); ++i) {
    pool.push_back("s0-replica-" + std::to_string(i));
  }
  for (int i = 0; i < n_servers; ++i) {
    pool.push_back("s1-server-" + std::to_string(i));
    pool.push_back("s2-server-" + std::to_string(i));
  }
  for (int i = 0; i < n_proxies; ++i) {
    pool.push_back("s2-proxy-" + std::to_string(i));
  }
  return pool;
}

}  // namespace

net::ScenarioPlan PlanGenerator::next() {
  // One independent substream per plan: plan i is a function of (seed, i)
  // alone, so a failing plan index reproduces without replaying the stream.
  Rng rng = Rng::substream(seed_, index_);

  net::ScenarioPlan p;
  p.name = "fuzz-" + std::to_string(seed_) + "-" + std::to_string(index_);
  ++index_;

  // --- deployment shape ------------------------------------------------------
  p.keyspace = 1ull << (5 + rng.below(6));  // 32 .. 1024
  p.step_duration = rnd(10.0 + (kMaxStepDuration - 10.0) * rng.uniform01());
  p.horizon_steps = 1 + rng.below(kMaxHorizonSteps);
  p.rerandomize = !rng.bernoulli(0.2);
  p.n_servers = 1 + static_cast<int>(rng.below(kMaxServers));
  p.n_proxies = 1 + static_cast<int>(rng.below(kMaxProxies));
  const double horizon = p.step_duration *
                         static_cast<double>(p.horizon_steps);

  // --- network behaviour -----------------------------------------------------
  p.latency = random_latency(rng, /*floor_scale=*/0.2, /*span_scale=*/1.0);
  p.drop_probability = rng.bernoulli(0.5) ? rnd(0.1 * rng.uniform01()) : 0.0;
  p.duplicate_probability =
      rng.bernoulli(0.3) ? rnd(0.05 * rng.uniform01()) : 0.0;

  if (rng.bernoulli(kPPartitions)) {
    std::vector<net::Address> pool = address_pool(p.n_servers, p.n_proxies);
    const std::uint64_t windows = 1 + rng.below(3);
    for (std::uint64_t i = 0; i < windows; ++i) {
      net::PartitionWindow w;
      w.start = rnd(horizon * rng.uniform01());
      w.end = rnd(w.start + horizon * 0.5 * rng.uniform01());
      const std::uint64_t members =
          1 + rng.below(std::min<std::uint64_t>(pool.size(), 5));
      for (std::uint64_t a : rng.sample_without_replacement(pool.size(),
                                                            members)) {
        w.island.push_back(pool[a]);
      }
      // Canonical member order within a window: determinism of the PLAN
      // bytes (sample_without_replacement's order is unspecified).
      std::sort(w.island.begin(), w.island.end());
      p.partitions.push_back(std::move(w));
    }
  }

  // --- fault schedule --------------------------------------------------------
  if (rng.bernoulli(kPFaults)) {
    const std::uint64_t events = 1 + rng.below(4);
    for (std::uint64_t i = 0; i < events; ++i) {
      net::FaultEvent f;
      const bool proxy = rng.bernoulli(0.4);
      f.target = proxy ? net::FaultEvent::Target::Proxy
                       : net::FaultEvent::Target::Server;
      f.index = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(proxy ? p.n_proxies
                                                     : p.n_servers)));
      // ~1 in 8 events lands at/past the horizon: the campaign must DROP it
      // (documented policy) identically on every configuration under test.
      f.at = rnd(horizon * (rng.bernoulli(0.125) ? 1.0 + rng.uniform01()
                                                 : rng.uniform01()));
      f.kind = rng.bernoulli(0.4) ? net::FaultEvent::Kind::Crash
                                  : net::FaultEvent::Kind::Recover;
      p.faults.push_back(f);
    }
  }

  // --- attack ----------------------------------------------------------------
  p.attack.enabled = !rng.bernoulli(0.15);
  if (p.attack.enabled) {
    p.attack.direct_enabled = !rng.bernoulli(0.25);
    p.attack.probes_per_step =
        rnd(1.0 + (kMaxProbesPerStep - 1.0) * rng.uniform01());
    p.attack.indirect_fraction = rnd(rng.uniform01());
    p.attack.start_time = rnd(0.2 * horizon * rng.uniform01());
    p.attack.sybil_identities = 1 + static_cast<unsigned>(rng.below(4));
  }

  // --- detection -------------------------------------------------------------
  if (rng.bernoulli(0.35)) {
    p.proxy_blacklist = true;
    p.detection_threshold = 2 + static_cast<std::uint32_t>(rng.below(8));
    p.detection_window = rnd(0.3 * horizon + 0.7 * horizon * rng.uniform01());
  }

  // --- service model ---------------------------------------------------------
  if (rng.bernoulli(kPService)) {
    p.service.enabled = true;
    p.service.request_service = random_latency(rng, 0.05, 0.1);
    p.service.response_service = random_latency(rng, 0.02, 0.05);
    p.service.other_service = random_latency(rng, 0.01, 0.02);
    p.service.verify_cost = rng.bernoulli(0.5) ? rnd(0.2 * rng.uniform01())
                                               : 0.0;
    p.service.queue_capacity = 4 + static_cast<std::uint32_t>(rng.below(61));
    switch (rng.below(3)) {
      case 0: p.service.policy = net::OverloadPolicy::DropTail; break;
      case 1: p.service.policy = net::OverloadPolicy::Backpressure; break;
      default: p.service.policy = net::OverloadPolicy::DegradeUnsigned; break;
    }
    p.service.degrade_watermark =
        1 + static_cast<std::uint32_t>(rng.below(p.service.queue_capacity));
    p.service.pushback_delay = rnd(0.1 + 0.9 * rng.uniform01());
    p.service.queue_control = rng.bernoulli(0.25);
  }

  // --- open-loop traffic -----------------------------------------------------
  if (rng.bernoulli(kPTraffic)) {
    p.traffic.clients = 1 + static_cast<int>(rng.below(kMaxTrafficClients));
    // 1-4 strictly ascending phases; ~half the multi-phase schedules include
    // a zero-rate pause (diurnal trough).
    const std::uint64_t phases = 1 + rng.below(4);
    double at = rnd(0.05 * horizon * rng.uniform01());
    for (std::uint64_t i = 0; i < phases; ++i) {
      net::RatePhase phase;
      phase.at = at;
      phase.rate = (i > 0 && rng.bernoulli(0.3))
                       ? 0.0
                       : rnd(0.2 + (kMaxTrafficRate - 0.2) * rng.uniform01());
      p.traffic.schedule.push_back(phase);
      at = rnd(at + 0.05 + (horizon / static_cast<double>(phases)) *
                               rng.uniform01());
    }
    p.traffic.write_fraction = rnd(rng.uniform01());
    p.traffic.distinct_keys = 1 + static_cast<unsigned>(rng.below(32));
    p.traffic.poisson = !rng.bernoulli(0.3);
    p.traffic.retry_base = rnd(0.5 + 4.0 * rng.uniform01());
    p.traffic.retry_multiplier = rnd(1.0 + rng.uniform01());
    p.traffic.retry_cap = rng.bernoulli(0.2)
                              ? 0.0
                              : rnd(p.traffic.retry_base *
                                    (1.0 + 4.0 * rng.uniform01()));
    p.traffic.retry_jitter = rnd(0.3 * rng.uniform01());
    p.traffic.retry_budget = static_cast<std::uint32_t>(rng.below(7));
    p.traffic.request_deadline =
        rng.bernoulli(0.2) ? 0.0 : rnd(5.0 + 0.5 * horizon * rng.uniform01());
  }

  // --- compact population ----------------------------------------------------
  if (rng.bernoulli(kPPopulation)) {
    p.population.clients = 64 + rng.below(kMaxPopulation - 63);
    p.population.cohort_size = 64u << rng.below(5);  // 64 .. 1024
    p.population.request_rate = rnd(0.0005 + 0.003 * rng.uniform01());
    p.population.write_fraction = rnd(rng.uniform01());
    p.population.distinct_keys = 1 + static_cast<unsigned>(rng.below(32));
    p.population.tick_interval = rnd(0.5 + 1.5 * rng.uniform01());
    p.population.retry_base = rnd(1.0 + 4.0 * rng.uniform01());
    p.population.retry_multiplier = rnd(1.0 + rng.uniform01());
    p.population.retry_cap =
        rng.bernoulli(0.2) ? 0.0
                           : rnd(p.population.retry_base *
                                 (1.0 + 4.0 * rng.uniform01()));
    p.population.retry_budget = static_cast<std::uint32_t>(rng.below(7));
    p.population.request_deadline =
        rng.bernoulli(0.2) ? 0.0 : rnd(5.0 + 0.5 * horizon * rng.uniform01());
  }

  p.validate();  // generator bug == loud failure, not a corrupt fuzz corpus
  return p;
}

}  // namespace fortress::scenario
