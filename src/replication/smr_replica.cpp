#include "replication/smr_replica.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"

namespace fortress::replication {

SmrReplica::SmrReplica(sim::Simulator& sim, net::Network& network,
                       crypto::KeyRegistry& registry,
                       std::unique_ptr<DeterministicService> service,
                       SmrConfig config)
    : sim_(sim),
      network_(network),
      registry_(registry),
      key_(registry.enroll(config.replicas.at(config.index))),
      service_(std::move(service)),
      config_(std::move(config)),
      heartbeat_timer_(sim, config_.heartbeat_interval,
                       [this] {
                         if (is_leader() && !stale_) {
                           Message hb;
                           hb.type = MsgType::Heartbeat;
                           hb.view = view_;
                           hb.sender_index = config_.index;
                           broadcast(hb);
                         }
                       }),
      progress_timer_(sim, config_.progress_timeout / 4.0,
                      [this] { check_progress(); }) {
  FORTRESS_EXPECTS(service_ != nullptr);
  FORTRESS_EXPECTS(config_.f >= 1);
  FORTRESS_EXPECTS(config_.replicas.size() == 3 * config_.f + 1);
  FORTRESS_EXPECTS(config_.index < config_.replicas.size());
  pristine_state_ = service_->snapshot();
  replica_ids_.reserve(config_.replicas.size());
  for (const net::Address& addr : config_.replicas) {
    replica_ids_.push_back(network_.intern(addr));
  }
  id_ = replica_ids_[config_.index];
}

void SmrReplica::reset() {
  stop();
  // key_ survives: the pooled stack keeps its PKI (see LiveSystem::reset).
  FORTRESS_CHECK(service_->restore(pristine_state_));
  view_ = 0;
  next_seq_ = 0;
  executed_seq_ = 0;
  stale_ = false;
  slots_.clear();
  requests_.clear();
  pending_count_ = 0;
  view_votes_.clear();
  state_offers_.clear();
  last_progress_ = 0.0;
}

SmrReplica::~SmrReplica() { stop(); }

void SmrReplica::start() {
  FORTRESS_EXPECTS(!running_);
  running_ = true;
  last_progress_ = sim_.now();
  heartbeat_timer_.start();
  progress_timer_.start();
}

void SmrReplica::stop() {
  if (!running_) return;
  running_ = false;
  heartbeat_timer_.stop();
  progress_timer_.stop();
}

crypto::Digest SmrReplica::digest_of(const RequestId& rid, BytesView request) {
  // Streams rid.to_string() ("client#seq") without building it.
  const std::string seq = std::to_string(rid.seq);
  crypto::Sha256 h;
  h.update(bytes_view(rid.client));
  h.update(bytes_view("#"));
  h.update(bytes_view(seq));
  h.update(request);
  return h.finish();
}

void SmrReplica::broadcast(const Message& msg) {
  // Encode once into a pooled buffer; each recipient gets a pooled copy.
  Bytes wire = network_.acquire_buffer();
  msg.encode_into(wire);
  for (std::uint32_t i = 0; i < replica_ids_.size(); ++i) {
    if (i == config_.index) continue;
    network_.send_copy(id_, replica_ids_[i], wire);
  }
  network_.recycle_buffer(std::move(wire));
}

void SmrReplica::send_to(net::HostId to, const Message& msg) {
  Bytes wire = network_.acquire_buffer();
  msg.encode_into(wire);
  network_.send(id_, to, std::move(wire));
}

void SmrReplica::resolve_peer_schedules() const {
  // Schedules resolve lazily on first use: every peer of the tier is
  // enrolled by the time traffic flows, and the arena keeps its PKI, so
  // the cached pointers stay valid across pooled trials.
  if (!peer_schedules_.empty()) return;
  peer_schedules_.resize(config_.replicas.size(), nullptr);
  for (std::size_t i = 0; i < config_.replicas.size(); ++i) {
    peer_schedules_[i] = registry_.schedule_for(config_.replicas[i]);
  }
}

bool SmrReplica::verify_from_peer(const MessageView& msg) const {
  // Ordering traffic is signed by the replica the message's sender_index
  // names, so verification goes through the shared direct-indexed helper.
  resolve_peer_schedules();
  return verify_from_indexed_peer(msg, peer_schedules_, config_.replicas,
                                  registry_);
}

void SmrReplica::handle_message(const net::Envelope& env) {
  // Zero-copy dispatch: the view validates the whole record but borrows
  // every field from the pooled network buffer; nothing is materialized
  // until a handler must retain data past its return.
  auto msg = MessageView::decode(env.payload);
  if (!msg) return;
  switch (msg->type()) {
    case MsgType::Request:
      handle_request(env, *msg);
      break;
    case MsgType::PrePrepare:
      if (verify_from_peer(*msg)) handle_pre_prepare(*msg);
      break;
    case MsgType::PrepareAck:
      if (verify_from_peer(*msg)) handle_prepare_ack(*msg);
      break;
    case MsgType::ViewChange:
      if (verify_from_peer(*msg)) handle_view_change(*msg);
      break;
    case MsgType::Heartbeat:
      if (msg->view() >= view_) {
        if (msg->view() > view_) adopt_view(msg->view());
        if (msg->sender_index() == msg->view() % config_.replicas.size()) {
          last_progress_ = sim_.now();
        }
      }
      break;
    case MsgType::StateRequest:
      handle_state_request(*msg);
      break;
    case MsgType::StateReply:
      handle_state_reply(*msg);
      break;
    default:
      break;
  }
}

void SmrReplica::handle_request(const net::Envelope& env,
                                const MessageView& msg) {
  const std::uint64_t hash =
      request_key_hash(msg.request_client(), msg.request_seq());
  RequestState& req =
      requests_.find_or_insert(msg.request_client(), msg.request_seq(), hash);
  // Ascending insert keeps the old std::set<HostId> iteration order.
  insert_sorted_unique(req.requesters, env.from);
  if (req.has_response) {
    respond(req, env.from);
    return;
  }
  if (stale_) return;
  if (is_leader()) {
    if (!req.proposed) propose(req.rid, msg.payload());
  } else {
    if (!req.pending) ++pending_count_;
    req.pending = true;  // kept for re-proposal after view change
    req.pending_request.assign(msg.payload().begin(), msg.payload().end());
  }
}

void SmrReplica::propose(const RequestId& rid, BytesView request) {
  std::uint64_t seq = std::max(next_seq_, executed_seq_) + 1;
  next_seq_ = seq;

  // Copy the identity/payload into the proposal FIRST: marking the record
  // proposed may grow the table and invalidate whatever `rid`/`request`
  // borrow from.
  Message pp;
  pp.type = MsgType::PrePrepare;
  pp.view = view_;
  pp.seq = seq;
  pp.sender_index = config_.index;
  pp.request_id = rid;
  pp.payload.assign(request.begin(), request.end());

  const std::uint64_t hash = request_key_hash(rid.client, rid.seq);
  requests_.find_or_insert(rid.client, rid.seq, hash).proposed = true;

  sign_message(pp, key_);
  broadcast(pp);
  // Process our own pre-prepare locally.
  apply_pre_prepare(pp.view, pp.seq, pp.sender_index, pp.request_id.client,
                    pp.request_id.seq, pp.payload);
}

void SmrReplica::handle_pre_prepare(const MessageView& msg) {
  apply_pre_prepare(msg.view(), msg.seq(), msg.sender_index(),
                    msg.request_client(), msg.request_seq(), msg.payload());
}

void SmrReplica::apply_pre_prepare(std::uint64_t view, std::uint64_t seq,
                                   std::uint32_t sender,
                                   std::string_view client,
                                   std::uint64_t rid_seq, BytesView request) {
  if (view != view_ || stale_) return;
  if (sender != view_ % config_.replicas.size()) return;
  Slot& slot = slots_[seq];
  if (slot.pre_prepared) return;  // already have a proposal for this slot
  slot.pre_prepared = true;
  slot.rid.client.assign(client);
  slot.rid.seq = rid_seq;
  slot.request.assign(request.begin(), request.end());
  slot.digest = digest_of(slot.rid, request);
  // The old pending_.erase(rid): the buffered copy is superseded.
  const std::uint64_t hash = request_key_hash(client, rid_seq);
  if (RequestState* req = requests_.find(client, rid_seq, hash)) {
    if (req->pending) {
      req->pending = false;
      req->pending_request.clear();
      --pending_count_;
    }
  }

  Message ack;
  ack.type = MsgType::PrepareAck;
  ack.view = view_;
  ack.seq = seq;
  ack.sender_index = config_.index;
  ack.request_id = slot.rid;
  ack.aux = crypto::digest_bytes(slot.digest);
  sign_message(ack, key_);
  broadcast(ack);
  // Count our own endorsement.
  slot.acks.insert(config_.index);
  if (slot.acks.size() >= quorum()) slot.committed = true;
  try_execute();
}

void SmrReplica::handle_prepare_ack(const MessageView& msg) {
  if (msg.view() != view_ || stale_) return;
  Slot& slot = slots_[msg.seq()];
  // Acks may arrive before the pre-prepare; buffer them against the digest.
  if (slot.pre_prepared) {
    const BytesView aux = msg.aux();
    if (aux.size() != slot.digest.size() ||
        !std::equal(aux.begin(), aux.end(), slot.digest.begin())) {
      return;  // endorsement of a different proposal; drop
    }
  }
  slot.acks.insert(msg.sender_index());
  if (slot.pre_prepared && slot.acks.size() >= quorum()) {
    slot.committed = true;
    try_execute();
  }
}

void SmrReplica::try_execute() {
  while (true) {
    auto it = slots_.find(executed_seq_ + 1);
    if (it == slots_.end() || !it->second.committed || it->second.executed) {
      break;
    }
    Slot& slot = it->second;
    Bytes response = service_->execute(slot.request);
    slot.executed = true;
    ++executed_seq_;
    last_progress_ = sim_.now();
    const std::uint64_t hash =
        request_key_hash(slot.rid.client, slot.rid.seq);
    RequestState& req =
        requests_.find_or_insert(slot.rid.client, slot.rid.seq, hash);
    req.has_response = true;
    req.response = std::move(response);
    respond_many(req, req.requesters);
  }
}

void SmrReplica::respond(const RequestState& req, net::HostId to) {
  respond_many(req, std::span<const net::HostId>(&to, 1));
}

void SmrReplica::respond_many(const RequestState& req,
                              std::span<const net::HostId> recipients) {
  FORTRESS_EXPECTS(req.has_response);
  if (recipients.empty()) return;
  // The Response signature covers the requester-blanked core, so every
  // recipient shares one HMAC: sign once, splice the requester into each
  // wire copy (SignedResponseTemplate).
  response_.rebuild(view_, executed_seq_, config_.index, req.rid,
                    req.response, key_);
  for (net::HostId to : recipients) {
    Bytes wire = network_.acquire_buffer();
    response_.emit_into(wire, network_.address_of(to));
    network_.send(id_, to, std::move(wire));
  }
}

void SmrReplica::check_progress() {
  if (stale_) {
    request_state();  // keep retrying until f+1 matching offers arrive
    return;
  }
  // Only suspect the leader when there is work it should be doing.
  bool work_pending = pending_count_ > 0;
  for (const auto& [seq, slot] : slots_) {
    if (!slot.executed) work_pending = true;
  }
  if (!work_pending) {
    last_progress_ = sim_.now();
    return;
  }
  if (sim_.now() - last_progress_ < config_.progress_timeout) return;
  if (is_leader()) return;  // the leader cannot vote itself out

  std::uint64_t next = view_ + 1;
  Message vc;
  vc.type = MsgType::ViewChange;
  vc.view = next;
  vc.sender_index = config_.index;
  sign_message(vc, key_);
  broadcast(vc);
  view_votes_[next].insert(config_.index);
  last_progress_ = sim_.now();  // give the vote time to gather
  if (view_votes_[next].size() >= quorum()) adopt_view(next);
}

void SmrReplica::handle_view_change(const MessageView& msg) {
  if (msg.view() <= view_) return;
  view_votes_[msg.view()].insert(msg.sender_index());
  if (view_votes_[msg.view()].size() >= quorum()) {
    adopt_view(msg.view());
  }
}

void SmrReplica::adopt_view(std::uint64_t view) {
  FORTRESS_EXPECTS(view > view_);
  view_ = view;
  last_progress_ = sim_.now();
  // Un-executed slots from the old view are abandoned; their requests fall
  // back into the pending buffer for re-proposal.
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (!it->second.executed) {
      const Slot& slot = it->second;
      const std::uint64_t hash =
          request_key_hash(slot.rid.client, slot.rid.seq);
      RequestState& req =
          requests_.find_or_insert(slot.rid.client, slot.rid.seq, hash);
      if (!req.pending) ++pending_count_;
      req.pending = true;
      req.pending_request = slot.request;
      req.proposed = false;
      it = slots_.erase(it);
    } else {
      ++it;
    }
  }
  next_seq_ = executed_seq_;
  if (is_leader() && !stale_) {
    FORTRESS_LOG_INFO("smr") << address() << " leads view " << view_;
    // Re-propose everything outstanding, in the rid order the old
    // std::map snapshot iterated in.
    std::vector<std::pair<RequestId, Bytes>> pend;
    for (const RequestState& e : requests_.entries()) {
      if (e.pending) pend.emplace_back(e.rid, e.pending_request);
    }
    std::sort(pend.begin(), pend.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [rid, request] : pend) {
      const std::uint64_t hash = request_key_hash(rid.client, rid.seq);
      const RequestState* req = requests_.find(rid.client, rid.seq, hash);
      if (req == nullptr || !req->has_response) propose(rid, request);
    }
  }
}

void SmrReplica::request_state() {
  Message req;
  req.type = MsgType::StateRequest;
  req.view = view_;
  req.sender_index = config_.index;
  broadcast(req);
}

void SmrReplica::handle_state_request(const MessageView& msg) {
  if (stale_) return;  // cannot vouch for state we are still fetching
  if (msg.sender_index() >= replica_ids_.size()) return;  // hostile index
  Message reply;
  reply.type = MsgType::StateReply;
  reply.view = view_;
  reply.seq = executed_seq_;
  reply.sender_index = config_.index;
  reply.aux = service_->snapshot();
  sign_message(reply, key_);
  send_to(replica_ids_[msg.sender_index()], reply);
}

void SmrReplica::handle_state_reply(const MessageView& msg) {
  if (!stale_) return;
  if (!verify_from_peer(msg)) return;
  if (msg.seq() < executed_seq_) return;  // older than what we already have
  crypto::Digest d = crypto::Sha256::hash(msg.aux());
  auto key = std::make_pair(msg.seq(), to_hex(BytesView(d.data(), d.size())));
  StateOffer& offer = state_offers_[key];
  offer.senders.insert(msg.sender_index());
  offer.snapshot.assign(msg.aux().begin(), msg.aux().end());
  // f+1 identical offers guarantee at least one comes from a correct
  // replica (n = 3f+1, at most f faulty).
  if (offer.senders.size() >= config_.f + 1) {
    // A record that does not parse is dropped; the rejoin keeps waiting.
    if (!service_->restore(offer.snapshot)) {
      state_offers_.erase(key);
      return;
    }
    executed_seq_ = msg.seq();
    next_seq_ = std::max(next_seq_, executed_seq_);
    stale_ = false;
    state_offers_.clear();
    last_progress_ = sim_.now();
    FORTRESS_LOG_INFO("smr") << address() << " restored state at seq "
                             << executed_seq_;
  }
}

void SmrReplica::handle_reboot() {
  // Proactive recovery: the executable was replaced; treat local state as
  // untrusted and rejoin via state transfer (Roeder-Schneider §2.3).
  stale_ = true;
  slots_.clear();
  // The old proposed_.clear(): buffered/pending and answered state is
  // durable, the view's proposal bookkeeping is not.
  for (RequestState& req : requests_.entries()) req.proposed = false;
  view_votes_.clear();
  state_offers_.clear();
  last_progress_ = sim_.now();
  request_state();
}

}  // namespace fortress::replication
