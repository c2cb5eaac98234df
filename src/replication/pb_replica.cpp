#include "replication/pb_replica.hpp"

#include "common/check.hpp"

namespace fortress::replication {

PbReplica::PbReplica(sim::Simulator& sim, net::Network& network,
                     crypto::KeyRegistry& registry,
                     std::unique_ptr<Service> service, PbConfig config)
    : ReplicaCore(sim, network, registry, std::move(service),
                  std::move(config.replicas), config.index,
                  kPbHeartbeatInterval, [this] { send_heartbeat(); },
                  kPbFailoverTimeout / 4.0, [this] { check_failover(); }) {}

void PbReplica::reset() {
  reset_core();
  executed_count_ = 0;
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
      if (msg->view() > view_) adopt_view(msg->view());
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
    respond(req, env.from);  // duplicate: re-reply from cache
    return;
  }
  if (!leads()) return;  // backups wait for the state update

  // Execute (the service may be non-deterministic; only the primary runs it).
  service_->execute(msg.payload(), execute_scratch_);
  requests_.assign(req.response, execute_scratch_);
  req.has_response = true;
  ++applied_seq_;
  ++executed_count_;

  // The update borrows the cached response and rid; the snapshot is
  // written into a reused buffer.
  service_->snapshot(snapshot_scratch_);
  broadcast({.type = MsgType::StateUpdate,
             .view = view_,
             .seq = applied_seq_,
             .sender_index = index_,
             .client = requests_.client(req),
             .client_seq = req.seq,
             .requester = network_.address_of(env.from),
             .payload = requests_.bytes(req.response),
             .aux = snapshot_scratch_},
            false);

  respond_to_requesters(req);
}

void PbReplica::handle_state_update(const MessageView& msg) {
  if (msg.view() < view_) return;  // stale primary
  if (msg.view() > view_) adopt_view(msg.view());
  if (msg.sender_index() != leader_of(msg.view())) return;
  last_progress_ = sim_.now();
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
      respond(*req, requester);
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
  respond_to_requesters(req);
}

void PbReplica::send_heartbeat() {
  if (!leads()) return;
  broadcast({.type = MsgType::Heartbeat, .view = view_, .sender_index = index_},
            false);
}

void PbReplica::handle_heartbeat(const MessageView& msg) {
  if (msg.view() < view_) return;
  if (msg.view() > view_) adopt_view(msg.view());
  if (msg.sender_index() == leader_of(msg.view())) {
    last_progress_ = sim_.now();
  }
}

void PbReplica::check_failover() {
  if (leads()) return;
  if (sim_.now() - last_progress_ < kPbFailoverTimeout) return;
  // Primary presumed crashed: move to the next view. PB tolerates crash
  // faults only, so an unilateral, gossiped view bump suffices.
  std::uint64_t next = view_ + 1;
  broadcast({.type = MsgType::ViewChange, .view = next, .sender_index = index_},
            false);
  adopt_view(next);
}

void PbReplica::adopt_view(std::uint64_t view) {
  FORTRESS_EXPECTS(view > view_);
  view_ = view;
  last_progress_ = sim_.now();
  if (leads()) send_heartbeat();
}

void PbReplica::handle_reboot() {
  // Durable state (service_, requests_) survives; only liveness bookkeeping
  // resets so a freshly rebooted backup does not instantly suspect the
  // primary it has not heard from while down.
  last_progress_ = sim_.now();
}

}  // namespace fortress::replication
