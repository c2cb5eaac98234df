#include "replication/pb_replica.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"

namespace fortress::replication {

PbReplica::PbReplica(sim::Simulator& sim, net::Network& network,
                     crypto::KeyRegistry& registry,
                     std::unique_ptr<Service> service, PbConfig config)
    : sim_(sim),
      network_(network),
      registry_(registry),
      key_(registry.enroll(config.replicas.at(config.index))),
      service_(std::move(service)),
      config_(std::move(config)),
      heartbeat_timer_(sim, config_.heartbeat_interval,
                       [this] { send_heartbeat(); }),
      failover_timer_(sim, config_.failover_timeout / 4.0,
                      [this] { check_failover(); }) {
  FORTRESS_EXPECTS(service_ != nullptr);
  FORTRESS_EXPECTS(!config_.replicas.empty());
  FORTRESS_EXPECTS(config_.index < config_.replicas.size());
  FORTRESS_EXPECTS(config_.heartbeat_interval > 0);
  FORTRESS_EXPECTS(config_.failover_timeout > config_.heartbeat_interval);
  service_->snapshot(pristine_state_);
  replica_ids_.reserve(config_.replicas.size());
  for (const net::Address& addr : config_.replicas) {
    replica_ids_.push_back(network_.intern(addr));
  }
  id_ = replica_ids_[config_.index];
}

void PbReplica::reset() {
  stop();
  // key_ survives: the pooled stack keeps its PKI (see LiveSystem::reset).
  FORTRESS_CHECK(service_->restore(pristine_state_));
  view_ = 0;
  applied_seq_ = 0;
  executed_count_ = 0;
  last_primary_sign_of_life_ = 0.0;
  requests_.clear();
}

PbReplica::~PbReplica() { stop(); }

void PbReplica::start() {
  FORTRESS_EXPECTS(!running_);
  running_ = true;
  last_primary_sign_of_life_ = sim_.now();
  heartbeat_timer_.start();
  failover_timer_.start();
}

void PbReplica::stop() {
  if (!running_) return;
  running_ = false;
  heartbeat_timer_.stop();
  failover_timer_.stop();
}

void PbReplica::broadcast(const MessageCore& msg) {
  // Encode once into a pooled buffer; each recipient gets a pooled copy.
  Bytes wire = network_.acquire_buffer();
  msg.encode_into(wire);
  for (std::uint32_t i = 0; i < replica_ids_.size(); ++i) {
    if (i == config_.index) continue;
    network_.send_copy(id_, replica_ids_[i], wire);
  }
  network_.recycle_buffer(std::move(wire));
}

void PbReplica::handle_message(const net::Envelope& env) {
  // Zero-copy dispatch (see SmrReplica::handle_message).
  auto msg = MessageView::decode(env.payload);
  if (!msg) return;  // not protocol traffic; ignore
  switch (msg->type()) {
    case MsgType::Request:
      handle_request(env, *msg);
      break;
    case MsgType::StateUpdate:
      handle_state_update(*msg);
      break;
    case MsgType::Heartbeat:
      handle_heartbeat(*msg);
      break;
    case MsgType::ViewChange:
      handle_view_change(*msg);
      break;
    default:
      break;  // other planes (SMR/NS) are not ours
  }
}

void PbReplica::handle_request(const net::Envelope& env,
                               const MessageView& msg) {
  const std::uint64_t hash =
      request_key_hash(msg.request_client(), msg.request_seq());
  RequestState& req =
      requests_.find_or_insert(msg.request_client(), msg.request_seq(), hash);
  requests_.insert(req.requesters, env.from);

  if (req.has_response) {
    send_response(req, env.from);  // duplicate: re-reply from cache
    return;
  }
  if (!is_primary()) return;  // backups wait for the state update

  // Execute (the service may be non-deterministic; only the primary runs it).
  service_->execute(msg.payload(), execute_scratch_);
  requests_.assign(req.response, execute_scratch_);
  req.has_response = true;
  ++applied_seq_;
  ++executed_count_;

  // The update borrows the cached response and rid; the snapshot is
  // written into a reused buffer.
  service_->snapshot(snapshot_scratch_);
  broadcast(MessageCore{.type = MsgType::StateUpdate,
                        .view = view_,
                        .seq = applied_seq_,
                        .sender_index = config_.index,
                        .client = requests_.client(req),
                        .client_seq = req.seq,
                        .requester = network_.address_of(env.from),
                        .payload = requests_.bytes(req.response),
                        .aux = snapshot_scratch_});

  respond_to_all(req);
}

void PbReplica::handle_state_update(const MessageView& msg) {
  if (msg.view() < view_) return;  // stale primary
  if (msg.view() > view_) adopt_view(msg.view());
  if (msg.sender_index() != msg.view() % config_.replicas.size()) return;
  last_primary_sign_of_life_ = sim_.now();
  // Resolve the wire-carried requester WITHOUT interning: an address the
  // interner has never seen was never attachable on this network, so a
  // response to it could only be dropped — and a forged StateUpdate must
  // not grow the trial-persistent interner with garbage strings.
  const net::HostId requester = msg.requester().empty()
                                    ? net::kInvalidHost
                                    : network_.id_of(msg.requester());
  const std::uint64_t hash =
      request_key_hash(msg.request_client(), msg.request_seq());
  if (msg.seq() <= applied_seq_) {
    // Duplicate/old update; still make sure the requester gets an answer.
    RequestState* req =
        requests_.find(msg.request_client(), msg.request_seq(), hash);
    if (req != nullptr && req->has_response &&
        requester != net::kInvalidHost) {
      send_response(*req, requester);
    }
    return;
  }
  // The update is unsigned and its snapshot unchecked: one that does not
  // parse is dropped, leaving the service and applied_seq_ as they were.
  if (!service_->restore(msg.aux())) return;
  applied_seq_ = msg.seq();
  RequestState& req =
      requests_.find_or_insert(msg.request_client(), msg.request_seq(), hash);
  req.has_response = true;
  requests_.assign(req.response, msg.payload());
  if (requester != net::kInvalidHost) {
    requests_.insert(req.requesters, requester);
  }
  respond_to_all(req);
}

void PbReplica::send_response(const RequestState& req, net::HostId to) {
  respond_many(req, std::span<const net::HostId>(&to, 1));
}

void PbReplica::respond_to_all(const RequestState& req) {
  respond_many(req, requests_.ids(req.requesters));
}

void PbReplica::respond_many(const RequestState& req,
                             std::span<const net::HostId> recipients) {
  FORTRESS_EXPECTS(req.has_response);
  if (recipients.empty()) return;
  // The Response signature covers the requester-blanked core, so every
  // recipient shares one HMAC: sign once, splice the requester into each
  // wire copy (SignedResponseTemplate).
  response_.rebuild(view_, applied_seq_, config_.index, requests_.client(req),
                    req.seq, requests_.bytes(req.response), key_);
  for (net::HostId to : recipients) {
    Bytes wire = network_.acquire_buffer();
    response_.emit_into(wire, network_.address_of(to));
    network_.send(id_, to, std::move(wire));
  }
}

void PbReplica::send_heartbeat() {
  if (!is_primary()) return;
  broadcast(MessageCore{.type = MsgType::Heartbeat,
                        .view = view_,
                        .sender_index = config_.index});
}

void PbReplica::handle_heartbeat(const MessageView& msg) {
  if (msg.view() < view_) return;
  if (msg.view() > view_) adopt_view(msg.view());
  if (msg.sender_index() == msg.view() % config_.replicas.size()) {
    last_primary_sign_of_life_ = sim_.now();
  }
}

void PbReplica::check_failover() {
  if (is_primary()) return;
  if (sim_.now() - last_primary_sign_of_life_ < config_.failover_timeout) {
    return;
  }
  // Primary presumed crashed: move to the next view. PB tolerates crash
  // faults only, so an unilateral, gossiped view bump suffices.
  std::uint64_t next = view_ + 1;
  FORTRESS_LOG_INFO("pb") << address() << " suspects primary of view "
                          << view_ << "; moving to view " << next;
  broadcast(MessageCore{.type = MsgType::ViewChange,
                        .view = next,
                        .sender_index = config_.index});
  adopt_view(next);
}

void PbReplica::handle_view_change(const MessageView& msg) {
  if (msg.view() > view_) adopt_view(msg.view());
}

void PbReplica::adopt_view(std::uint64_t view) {
  FORTRESS_EXPECTS(view > view_);
  view_ = view;
  last_primary_sign_of_life_ = sim_.now();
  if (is_primary()) {
    FORTRESS_LOG_INFO("pb") << address() << " is primary of view " << view_;
    send_heartbeat();
  }
}

void PbReplica::handle_reboot() {
  // Durable state (service_, responses_) survives; only liveness bookkeeping
  // resets so a freshly rebooted backup does not instantly suspect the
  // primary it has not heard from while down.
  last_primary_sign_of_life_ = sim_.now();
}

}  // namespace fortress::replication
