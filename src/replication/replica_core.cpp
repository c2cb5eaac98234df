#include "replication/replica_core.hpp"

#include "common/check.hpp"

namespace fortress::replication {

ReplicaCore::ReplicaCore(sim::Simulator& sim, net::Network& network,
                         crypto::KeyRegistry& registry,
                         std::unique_ptr<Service> service,
                         std::vector<net::Address> replicas,
                         std::uint32_t index, sim::Time heartbeat_period,
                         std::function<void()> heartbeat,
                         sim::Time watchdog_period,
                         std::function<void()> watchdog)
    : sim_(sim),
      network_(network),
      registry_(registry),
      key_(registry.enroll(replicas.at(index))),
      replicas_(std::move(replicas)),
      index_(index),
      service_(std::move(service)),
      heartbeat_timer_(sim, heartbeat_period, std::move(heartbeat)),
      watchdog_timer_(sim, watchdog_period, std::move(watchdog)) {
  FORTRESS_EXPECTS(service_ != nullptr);
  service_->snapshot(pristine_state_);
  replica_ids_.reserve(replicas_.size());
  for (const net::Address& addr : replicas_) {
    replica_ids_.push_back(network_.intern(addr));
  }
  id_ = replica_ids_[index_];
}

ReplicaCore::~ReplicaCore() { stop(); }

void ReplicaCore::reset_core() {
  stop();
  FORTRESS_CHECK(service_->restore(pristine_state_));
  view_ = 0;
  applied_seq_ = 0;
  last_progress_ = 0.0;
  requests_.clear();
}

void ReplicaCore::start() {
  FORTRESS_EXPECTS(!running_);
  running_ = true;
  last_progress_ = sim_.now();
  heartbeat_timer_.start();
  watchdog_timer_.start();
}

void ReplicaCore::stop() {
  if (!running_) return;
  running_ = false;
  heartbeat_timer_.stop();
  watchdog_timer_.stop();
}

void ReplicaCore::broadcast(const MessageCore& msg, bool sign) {
  // Encode once into a pooled buffer; each recipient gets a pooled copy.
  Bytes wire = network_.acquire_buffer();
  if (sign) {
    msg.encode_signed_into(wire, key_);
  } else {
    msg.encode_into(wire);
  }
  for (std::uint32_t i = 0; i < replica_ids_.size(); ++i) {
    if (i == index_) continue;
    network_.send_copy(id_, replica_ids_[i], wire);
  }
  network_.recycle_buffer(std::move(wire));
}

void ReplicaCore::respond(const RequestState& req,
                          std::span<const net::HostId> recipients) {
  FORTRESS_EXPECTS(req.has_response);
  if (recipients.empty()) return;
  // The Response signature covers the requester-blanked core, so every
  // recipient shares one HMAC: sign once, splice the requester into each
  // wire copy (SignedResponseTemplate).
  response_.rebuild(view_, applied_seq_, index_, requests_.client(req),
                    req.seq, requests_.bytes(req.response), key_);
  for (net::HostId to : recipients) {
    Bytes wire = network_.acquire_buffer();
    response_.emit_into(wire, network_.address_of(to));
    network_.send(id_, to, std::move(wire));
  }
}

}  // namespace fortress::replication
