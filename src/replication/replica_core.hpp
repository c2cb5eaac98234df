// replica_core.hpp — the plumbing the primary-backup and state-machine
// replicas share.
//
// Both protocols run one replica per index of a fixed tier, keep a reply
// cache per client request, sign every response, restore a pristine service
// between pooled trials, and drive two periodic timers: a heartbeat and a
// watchdog (PB's failover check, SMR's progress check). ReplicaCore owns all
// of that; PbReplica and SmrReplica derive from it and keep only their
// protocol handlers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "crypto/signature.hpp"
#include "net/network.hpp"
#include "osl/machine.hpp"
#include "replication/message.hpp"
#include "replication/request_table.hpp"
#include "replication/service.hpp"
#include "sim/simulator.hpp"

namespace fortress::replication {

/// One client request as a replica tracks it: the reply cache plus SMR's
/// ordering flags (PB leaves those unset). Flags flip where the old
/// per-fact maps erased; records are never removed within a trial.
struct RequestState : RequestKey {
  bool has_response = false;  ///< `response` holds the reply cache
  bool proposed = false;      ///< SMR: the leader assigned it a slot this view
  bool pending = false;       ///< SMR: buffered for (re-)proposal
  ByteRef response;
  ByteRef pending_request;
  /// Who asked, ascending (the old std::set iteration order).
  IdSetRef requesters;
};

class ReplicaCore : public osl::Application {
 public:
  ~ReplicaCore() override;
  ReplicaCore(const ReplicaCore&) = delete;
  ReplicaCore& operator=(const ReplicaCore&) = delete;

  /// Start the heartbeat and watchdog timers. Call after the machine is
  /// booted.
  void start();
  void stop();

  std::uint64_t view() const { return view_; }
  const Service& service() const { return *service_; }
  const net::Address& address() const { return replicas_[index_]; }

 protected:
  /// Enrol this replica's signing key, snapshot the service's pristine
  /// state and intern every replica address (index-aligned with
  /// `replicas`). The timers call `heartbeat` and `watchdog` once started.
  ReplicaCore(sim::Simulator& sim, net::Network& network,
              crypto::KeyRegistry& registry, std::unique_ptr<Service> service,
              std::vector<net::Address> replicas, std::uint32_t index,
              sim::Time heartbeat_period, std::function<void()> heartbeat,
              sim::Time watchdog_period, std::function<void()> watchdog);

  /// The shared half of a protocol's reset(): timers stopped, the service
  /// restored to its construction-time snapshot, view/seq/progress zeroed
  /// and the request table cleared. The signing key is KEPT — the pooled
  /// stack keeps its PKI across trials (see LiveSystem::reset).
  void reset_core();

  /// The index leading `view`.
  std::uint64_t leader_of(std::uint64_t view) const {
    return view % replicas_.size();
  }
  bool leads() const { return leader_of(view_) == index_; }

  /// Encode once (signed with key_ when `sign`) and send a copy to every
  /// peer.
  void broadcast(const MessageCore& msg, bool sign);

  /// Sign `req`'s cached response ONCE and splice a per-recipient wire copy
  /// for each recipient (response_) — byte-identical to signing each copy
  /// individually.
  void respond(const RequestState& req,
               std::span<const net::HostId> recipients);
  void respond(const RequestState& req, net::HostId to) {
    respond(req, std::span<const net::HostId>(&to, 1));
  }
  void respond_to_requesters(const RequestState& req) {
    respond(req, requests_.ids(req.requesters));
  }

  sim::Simulator& sim_;
  net::Network& network_;
  crypto::KeyRegistry& registry_;
  crypto::SigningKey key_;
  /// Addresses by index, and this replica's index among them.
  std::vector<net::Address> replicas_;
  std::uint32_t index_;
  /// This replica's dense id and every replica's (index-aligned with
  /// replicas_), interned once at construction.
  net::HostId id_ = net::kInvalidHost;
  std::vector<net::HostId> replica_ids_;
  std::unique_ptr<Service> service_;
  /// The service's construction-time state; reset_core() restores it so a
  /// pooled replica starts every trial with the same service state a
  /// factory-fresh one would.
  Bytes pristine_state_;

  std::uint64_t view_ = 0;
  /// The last sequence number applied to the service (PB: the last state
  /// update; SMR: the last executed slot) — the seq responses carry.
  std::uint64_t applied_seq_ = 0;
  /// The leader's last sign of life or progress; the watchdog measures
  /// silence from here.
  sim::Time last_progress_ = 0.0;

  /// Per-request state, hashed on (client, seq) and probed with borrowed
  /// MessageView keys — no allocation, no rb-tree string walks.
  RequestTable<RequestState> requests_;
  /// The response fan-out template, rebuilt in place per respond().
  SignedResponseTemplate response_;
  /// Reused buffers for execute() and snapshot() output.
  Bytes execute_scratch_;
  Bytes snapshot_scratch_;

 private:
  sim::PeriodicTimer heartbeat_timer_;
  sim::PeriodicTimer watchdog_timer_;
  bool running_ = false;
};

}  // namespace fortress::replication
