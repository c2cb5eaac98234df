// proxy_node.hpp — the FORTRESS proxy tier (§2.2, §3).
//
// Proxies are the only processes clients can reach. A proxy:
//   * forwards every well-formed client request to every server over its
//     own proxy->server connections (so that a server child crash is
//     observable by the PROXY, never by the client);
//   * collects server responses, verifies the server signature, over-signs
//     the first authentic one, and returns the doubly-signed response to the
//     client (§3's double-signature rule);
//   * logs malformed requests and correlates server child crashes with the
//     forwarding source, blacklisting sources that exceed the detection
//     threshold (§2.2's frequency analysis) when detection is enabled.
//
// Proxies do no processing of request payloads and never talk to each other.
//
// Hot-path layout: the server tier lives in one index-aligned table
// (ServerLink: dense id, open connection, last forwarded source, cached
// signature-verification schedule), sources are tracked by dense HostId,
// and wire bytes move through network-pooled buffers — the per-message path
// touches no string keys and allocates nothing in steady state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "crypto/signature.hpp"
#include "net/network.hpp"
#include "osl/machine.hpp"
#include "proxy/probe_log.hpp"
#include "replication/message.hpp"
#include "replication/request_table.hpp"
#include "sim/simulator.hpp"

namespace fortress::proxy {

struct ProxyConfig {
  net::Address address;
  std::vector<net::Address> servers;
  /// Attack detection; when disabled the proxy only logs.
  bool blacklist_enabled = true;
  DetectionConfig detection;
};

/// Counters exposed for experiments.
struct ProxyStats {
  std::uint64_t requests_forwarded = 0;
  std::uint64_t requests_from_blacklisted = 0;
  std::uint64_t malformed_requests = 0;
  std::uint64_t server_crashes_observed = 0;
  std::uint64_t responses_delivered = 0;
  std::uint64_t invalid_signatures = 0;
  /// Server responses accepted WITHOUT signature verification because the
  /// proxy's machine dispatched them degraded (net::OverloadPolicy::
  /// DegradeUnsigned) — the verification coverage the policy trades away.
  std::uint64_t degraded_responses = 0;
};

class ProxyNode final : public osl::Application {
 public:
  ProxyNode(sim::Simulator& sim, net::Network& network,
            crypto::KeyRegistry& registry, ProxyConfig config);

  /// Dial the server tier. Call after this proxy's machine is booted.
  void start();

  /// Return to the just-constructed state for a fresh campaign trial under
  /// (possibly different) detection knobs: connections, pending requests,
  /// blacklist, stats and probe log forgotten. The signing key is KEPT —
  /// the pooled stack keeps its PKI across trials (see LiveSystem::reset).
  /// Caller resets the simulator/network first.
  void reset(bool blacklist_enabled, DetectionConfig detection);

  const ProxyStats& stats() const { return stats_; }
  const ProbeLog& probe_log() const { return log_; }
  bool blacklisted(net::HostId source) const {
    return blacklist_.contains(source);
  }
  bool blacklisted(const net::Address& source) const;
  /// Number of distinct sources this proxy has blacklisted.
  std::size_t blacklist_size() const { return blacklist_.size(); }
  const net::Address& address() const { return config_.address; }

  // osl::Application:
  void handle_message(const net::Envelope& env) override;
  void handle_connection_closed(net::ConnectionId id, net::HostId peer,
                                net::CloseReason reason) override;
  void handle_reboot() override;

 private:
  /// Everything the proxy tracks per server, index-aligned with
  /// config_.servers.
  struct ServerLink {
    net::HostId id = net::kInvalidHost;
    /// Open connection (absent while redialing).
    std::optional<net::ConnectionId> conn;
    /// Last source whose request was forwarded on `conn` — used to
    /// attribute a child crash to a client (§2.2 correlation heuristic).
    net::HostId last_source = net::kInvalidHost;
    /// Connections that died under a forward (the send failed because the
    /// server side already tore them down) whose closure NOTIFICATIONS have
    /// not arrived yet. Attribution state is parked here — one entry per
    /// connection, like the old per-conn map — so every §2.2 crash
    /// observation survives the race between redials and in-flight
    /// PeerCrashed notices. Bounded by notifications in flight; cleared on
    /// reboot (volatile state).
    std::vector<std::pair<net::ConnectionId, net::HostId>> dead_conns;
  };

  void handle_client_request(const net::Envelope& env,
                             const replication::MessageView& msg);
  void handle_server_response(const net::Envelope& env,
                              const replication::MessageView& msg);
  void dial_server(std::size_t index);
  void forward(const replication::MessageView& msg);
  void observe_server_closure(net::HostId source, net::CloseReason reason);
  /// Record one suspicious event against `source`, and blacklist it once
  /// its score reaches the detection threshold (when blacklisting is on).
  void suspect(net::HostId source);

  sim::Simulator& sim_;
  net::Network& network_;
  crypto::KeyRegistry& registry_;
  crypto::SigningKey key_;
  ProxyConfig config_;
  net::HostId self_id_ = net::kInvalidHost;
  std::vector<ServerLink> servers_;
  /// Cached verification schedules, index-aligned with config_.servers
  /// (resolved at start(); the pooled stack keeps its PKI, so pointers
  /// stay valid across trials). Fed to verify_from_indexed_peer.
  std::vector<const crypto::HmacKey*> server_schedules_;
  ProxyStats stats_;
  ProbeLog log_;

  /// Per-request fan-in state. Both id sets are ascending (see
  /// RequestTable::insert), so responses go out in HostId order.
  struct PendingRequest : replication::RequestKey {
    replication::IdSetRef clients;   ///< who asked
    replication::IdSetRef answered;  ///< who already got a response
  };
  /// Probed with the borrowed (client, seq) key of a MessageView — the
  /// per-message lookup allocates nothing.
  replication::RequestTable<PendingRequest> pending_;
  std::set<net::HostId> blacklist_;
  /// Splice target for over-signing (capacity reused across responses).
  Bytes sign_scratch_;
  bool started_ = false;
};

}  // namespace fortress::proxy
