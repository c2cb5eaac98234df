#include "scenario/traffic.hpp"

#include <string>

#include "common/check.hpp"

namespace fortress::scenario {

TrafficGenerator::TrafficGenerator(sim::Simulator& sim, net::Network& network,
                                   const crypto::KeyRegistry& registry,
                                   const core::Directory& directory,
                                   const net::TrafficSpec& spec,
                                   sim::Time horizon, std::uint64_t seed)
    : sim_(sim), spec_(spec), horizon_(horizon) {
  FORTRESS_EXPECTS(spec_.enabled());
  spec_.validate();
  rng_.reset_substream(seed, 0);
  clients_.reserve(static_cast<std::size_t>(spec_.clients));
  for (int i = 0; i < spec_.clients; ++i) {
    core::ClientConfig cfg;
    cfg.address = "lg-" + std::to_string(i);
    cfg.retry_interval = spec_.retry_base;
    cfg.retry_multiplier = spec_.retry_multiplier;
    cfg.retry_cap = spec_.retry_cap;
    cfg.retry_jitter = spec_.retry_jitter;
    cfg.retry_budget = spec_.retry_budget;
    cfg.deadline = spec_.request_deadline;
    cfg.seed =
        seed ^ ((static_cast<std::uint64_t>(i) + 1) * 0x9E3779B97F4A7C15ULL);
    clients_.push_back(std::make_unique<core::Client>(sim_, network, registry,
                                                      directory, cfg));
  }
  const sim::Time first = spec_.schedule.front().at;
  if (first < horizon_) {
    sim_.schedule_at(first, [this] { arrive(); });
  }
}

void TrafficGenerator::arrive() {
  const sim::Time now = sim_.now();
  while (phase_ + 1 < spec_.schedule.size() &&
         spec_.schedule[phase_ + 1].at <= now) {
    ++phase_;
  }
  const double rate = spec_.schedule[phase_].rate;
  if (rate > 0.0) {
    submit_one();
    const sim::Time gap = spec_.poisson ? rng_.exponential(rate) : 1.0 / rate;
    if (now + gap < horizon_) {
      sim_.schedule_after(gap, [this] { arrive(); });
    }
    return;
  }
  // Zero-rate phase: arrivals pause until the next phase boundary (the
  // chain ends after the last phase).
  if (phase_ + 1 < spec_.schedule.size() &&
      spec_.schedule[phase_ + 1].at < horizon_) {
    sim_.schedule_at(spec_.schedule[phase_ + 1].at, [this] { arrive(); });
  }
}

void TrafficGenerator::submit_one() {
  core::Client& client = *clients_[next_client_];
  next_client_ = (next_client_ + 1) % clients_.size();
  const unsigned key = rng_.below(spec_.distinct_keys);
  const bool write = rng_.bernoulli(spec_.write_fraction);
  const std::string body = (write ? "PUT k" : "GET k") + std::to_string(key) +
                           (write ? " v" : "");
  const sim::Time t0 = sim_.now();
  client.submit(Bytes(body.begin(), body.end()),
                [this, t0](std::uint64_t, const Bytes&) {
                  latency_.add(sim_.now() - t0);
                });
}

TrafficStats TrafficGenerator::stats() const {
  TrafficStats out;
  for (const auto& c : clients_) {
    const core::ClientStats& cs = c->stats();
    out.offered += cs.submitted;
    out.completed += cs.completed;
    out.retries += cs.retries;
    out.rejected_responses += cs.rejected_responses;
    out.timed_out += cs.expired;
    out.gave_up += cs.gave_up;
  }
  out.latency = latency_;
  return out;
}

}  // namespace fortress::scenario
