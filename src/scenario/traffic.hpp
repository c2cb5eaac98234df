// traffic.hpp — the open-loop load generator for campaign trials.
//
// A TrafficGenerator owns a small population of core::Clients ("lg-0",
// "lg-1", ...) and submits requests at the TrafficSpec's piecewise-constant
// arrival rate, INDEPENDENT of completions — the open loop is what makes
// overload reachable: when the service tier saturates, arrivals keep coming
// and the bounded queues (osl::Machine's ServiceModel) must shed, park or
// degrade. Completion latencies land in a fixed-bin LatencyHistogram, so a
// trial's tail-latency digest is an exact, mergeable value.
//
// Arrival process: the first arrival fires exactly at schedule[0].at; each
// arrival draws the next inter-arrival gap from the phase rate in force at
// its own fire time (exponential gaps when `poisson`, 1/rate otherwise).
// An arrival that lands inside a zero-rate phase submits nothing and jumps
// to the next phase boundary (or ends the chain after the last phase).
// Everything is drawn from one seeded stream, so the arrival sequence — and
// every downstream observable — is deterministic in (spec, seed).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/client.hpp"
#include "net/scenario.hpp"
#include "scenario/campaign.hpp"
#include "sim/simulator.hpp"

namespace fortress::scenario {

class TrafficGenerator {
 public:
  /// Wires `spec.clients` clients against the deployment's directory and
  /// schedules the arrival chain. Arrivals at or past `horizon` never run
  /// (the trial driver stops the simulator there).
  TrafficGenerator(sim::Simulator& sim, net::Network& network,
                   const crypto::KeyRegistry& registry,
                   const core::Directory& directory,
                   const net::TrafficSpec& spec, sim::Time horizon,
                   std::uint64_t seed);
  TrafficGenerator(const TrafficGenerator&) = delete;
  TrafficGenerator& operator=(const TrafficGenerator&) = delete;

  /// Client-side aggregates at the current simulation time (service-plane
  /// fields and goodput are filled in by the trial driver, which owns the
  /// machines and the horizon).
  TrafficStats stats() const;

 private:
  void arrive();
  void submit_one();

  sim::Simulator& sim_;
  net::TrafficSpec spec_;
  sim::Time horizon_;
  Rng rng_;
  std::vector<std::unique_ptr<core::Client>> clients_;
  std::size_t next_client_ = 0;
  std::size_t phase_ = 0;
  LatencyHistogram latency_;
};

}  // namespace fortress::scenario
