// client.hpp — the client library (§3 acceptance rules).
//
// A client sends each request to all proxies (fortified) or all servers
// (1-tier) and accepts a response when the deployment's validity rule is
// met:
//   * S2/FORTRESS: the response carries TWO authentic signatures — one from
//     the proxy that forwarded it and one from a known server principal;
//   * S0/SMR:      f+1 matching responses signed by distinct server
//                  principals (one is guaranteed correct);
//   * S1/PB:       one authentic server-signed response (crash model).
// "Authentic" is core::authentic_response (directory.hpp), the signature
// rule ClientPopulation shares; the SMR f+1 vote is this class's own.
//
// Unanswered requests are re-sent under capped exponential backoff with
// optional deterministic jitter: the first retry fires retry_interval after
// submission, each later one retry_multiplier times later than the last,
// clamped at retry_cap. A request ends in exactly ONE of three ways —
// completion, deadline expiry or retry-budget exhaustion, counted in
// ClientStats::completed, expired and gave_up — and the retry/deadline timer
// is cancelled the moment a response completes the request, so a request
// that completes is never also counted as failed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "common/rng.hpp"
#include "core/directory.hpp"
#include "crypto/signature.hpp"
#include "net/network.hpp"
#include "replication/message.hpp"
#include "sim/simulator.hpp"

namespace fortress::core {

struct ClientConfig {
  net::Address address = "client";
  /// First retry delay (the backoff base).
  sim::Time retry_interval = 25.0;
  /// Backoff factor: each retry waits this much longer than the last.
  /// 1.0 restores the historical fixed-interval behaviour.
  double retry_multiplier = 2.0;
  /// Backoff ceiling (0 = uncapped).
  sim::Time retry_cap = 0.0;
  /// Deterministic jitter: each delay is scaled by a factor drawn uniformly
  /// from [1-retry_jitter, 1+retry_jitter] using the client's own seeded
  /// stream. 0 (default) draws nothing — bitwise-identical to no jitter.
  double retry_jitter = 0.0;
  /// Retries allowed per request; one further backoff interval after the
  /// last retry the request fails (counted in gave_up). 0 = unlimited.
  std::uint32_t retry_budget = 0;
  /// Give up (counted in expired) after this long. 0 = never.
  sim::Time deadline = 0.0;
  /// Seeds the jitter stream (only consulted when retry_jitter > 0).
  std::uint64_t seed = 0;
};

struct ClientStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t retries = 0;
  std::uint64_t rejected_responses = 0;  ///< failed a signature/validity rule
  std::uint64_t expired = 0;             ///< the deadline elapsed
  std::uint64_t gave_up = 0;             ///< the retry budget ran out
};

class Client final : public net::Handler {
 public:
  /// `on_response(seq, response)` once the request is accepted.
  using ResponseCallback = std::function<void(std::uint64_t, const Bytes&)>;

  Client(sim::Simulator& sim, net::Network& network,
         const crypto::KeyRegistry& registry, Directory directory,
         ClientConfig config);
  ~Client() override;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Submit a request; returns its client-local sequence number.
  std::uint64_t submit(Bytes request, ResponseCallback on_response);

  const ClientStats& stats() const { return stats_; }
  const net::Address& address() const { return config_.address; }

  /// Latency of completed requests (sum / count), for the overhead bench.
  double mean_latency() const;

  void on_message(const net::Envelope& env) override;

 private:
  struct Outstanding {
    Bytes request;
    ResponseCallback on_response;
    sim::Time submitted_at = 0.0;
    /// Delay the NEXT retry timer will use (advanced by retry_multiplier,
    /// clamped at retry_cap, after each retry).
    sim::Time next_delay = 0.0;
    std::uint32_t retries_used = 0;
    /// The live retry/deadline timer — cancelled on completion so a
    /// response and a timeout can never both fire for one request.
    sim::EventId retry_event = 0;
    /// SMR vote collection: response bytes (hex) -> signer principals.
    std::map<std::string, std::set<std::string>> votes;
  };

  void broadcast_request(std::uint64_t seq);
  void schedule_retry(std::uint64_t seq, Outstanding& out);
  bool acceptable(const replication::MessageView& msg, Outstanding& out);
  void complete(std::uint64_t seq, const Bytes& response);

  sim::Simulator& sim_;
  net::Network& network_;
  const crypto::KeyRegistry& registry_;
  Directory directory_;
  ClientConfig config_;
  net::HostId id_ = net::kInvalidHost;
  /// Request targets (proxies when fortified, servers otherwise), interned
  /// once at construction.
  std::vector<net::HostId> target_ids_;
  ClientStats stats_;
  Rng jitter_rng_{0};
  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, Outstanding> outstanding_;
  double latency_sum_ = 0.0;
};

}  // namespace fortress::core
