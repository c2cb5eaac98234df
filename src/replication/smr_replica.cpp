#include "replication/smr_replica.hpp"

#include <algorithm>
#include <bit>
#include <charconv>

#include "common/check.hpp"

namespace fortress::replication {

namespace {

/// The bit a replica index sets in an ack/vote mask.
std::uint64_t peer_bit(std::uint32_t index) {
  FORTRESS_EXPECTS(index < 64);
  return std::uint64_t{1} << index;
}

std::uint32_t votes(std::uint64_t mask) {
  return static_cast<std::uint32_t>(std::popcount(mask));
}

/// The first slot at or after `seq` in the ascending ordering log.
template <typename Slots>
auto slot_lower_bound(Slots& slots, std::uint64_t seq) {
  return std::lower_bound(
      slots.begin(), slots.end(), seq,
      [](const auto& slot, std::uint64_t s) { return slot.seq < s; });
}

}  // namespace

SmrReplica::SmrReplica(sim::Simulator& sim, net::Network& network,
                       crypto::KeyRegistry& registry,
                       std::unique_ptr<DeterministicService> service,
                       SmrConfig config)
    : ReplicaCore(sim, network, registry, std::move(service),
                  std::move(config.replicas), config.index,
                  kSmrHeartbeatInterval,
                  [this] {
                    if (leads() && !stale_) {
                      broadcast({.type = MsgType::Heartbeat,
                                 .view = view_,
                                 .sender_index = index_},
                                false);
                    }
                  },
                  kSmrProgressTimeout / 4.0, [this] { check_progress(); }),
      f_(config.f) {
  FORTRESS_EXPECTS(f_ >= 1);
  FORTRESS_EXPECTS(replicas_.size() == 3 * f_ + 1);
  // Acks and votes are kept as one bit per replica index.
  FORTRESS_EXPECTS(replicas_.size() <= 64);
}

void SmrReplica::reset() {
  reset_core();
  next_seq_ = 0;
  stale_ = false;
  slots_.clear();
  slot_bytes_.clear();
  unexecuted_slots_ = 0;
  pending_count_ = 0;
  view_votes_.clear();
  state_offers_.clear();
}

crypto::Digest SmrReplica::digest_of(std::string_view client,
                                     std::uint64_t seq, BytesView request) {
  // Streams RequestId::to_string() ("client#seq") without building it.
  char digits[20];
  const char* end = std::to_chars(digits, digits + sizeof digits, seq).ptr;
  crypto::Sha256 h;
  h.update(bytes_view(client));
  h.update(bytes_view("#"));
  h.update(BytesView(reinterpret_cast<const std::uint8_t*>(digits),
                     static_cast<std::size_t>(end - digits)));
  h.update(request);
  return h.finish();
}

SmrReplica::Slot* SmrReplica::find_slot(std::uint64_t seq) {
  auto it = slot_lower_bound(slots_, seq);
  return it != slots_.end() && it->seq == seq ? &*it : nullptr;
}

SmrReplica::Slot& SmrReplica::slot_for(std::uint64_t seq) {
  Slot blank;
  blank.seq = seq;
  // Slots nearly always arrive in order: the append is the common case.
  if (slots_.empty() || slots_.back().seq < seq) {
    ++unexecuted_slots_;
    return slots_.emplace_back(blank);
  }
  auto it = slot_lower_bound(slots_, seq);
  if (it != slots_.end() && it->seq == seq) return *it;
  ++unexecuted_slots_;
  return *slots_.insert(it, blank);
}

bool SmrReplica::verify_from_peer(const MessageView& msg) const {
  // Ordering traffic is signed by the replica the message's sender_index
  // names — and only by it: acks, votes and state offers are counted per
  // index, so a peer signing under another's index must not verify.
  // Schedules resolve lazily on first use: every peer of the tier is
  // enrolled by the time traffic flows, and the arena keeps its PKI, so
  // the cached pointers stay valid across pooled trials.
  if (peer_schedules_.empty()) {
    for (const net::Address& peer : replicas_) {
      peer_schedules_.push_back(registry_.schedule_for(peer));
    }
  }
  return verify_from_indexed_peer(msg, peer_schedules_, replicas_, registry_);
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
      if (verify_from_peer(*msg)) {
        apply_pre_prepare(msg->view(), msg->seq(), msg->sender_index(),
                          msg->request_client(), msg->request_seq(),
                          msg->payload());
      }
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
        if (msg->sender_index() == leader_of(msg->view())) {
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
  requests_.insert(req.requesters, env.from);
  if (req.has_response) {
    respond(req, env.from);
    return;
  }
  if (stale_) return;
  if (leads()) {
    if (!req.proposed) propose(req, msg.payload());
  } else {
    if (!req.pending) ++pending_count_;
    req.pending = true;  // kept for re-proposal after view change
    requests_.assign(req.pending_request, msg.payload());
  }
}

void SmrReplica::propose(RequestState& req, BytesView request) {
  std::uint64_t seq = std::max(next_seq_, applied_seq_) + 1;
  next_seq_ = seq;
  req.proposed = true;

  // The proposal borrows the record's key and `request`; both stay valid
  // until apply_pre_prepare executes (which may grow the table).
  const std::string_view client = requests_.client(req);
  const std::uint64_t rid_seq = req.seq;
  broadcast({.type = MsgType::PrePrepare,
             .view = view_,
             .seq = seq,
             .sender_index = index_,
             .client = client,
             .client_seq = rid_seq,
             .payload = request},
            true);
  // Process our own pre-prepare locally.
  apply_pre_prepare(view_, seq, index_, client, rid_seq, request);
}

void SmrReplica::apply_pre_prepare(std::uint64_t view, std::uint64_t seq,
                                   std::uint32_t sender,
                                   std::string_view client,
                                   std::uint64_t rid_seq, BytesView request) {
  if (view != view_ || stale_) return;
  if (sender != leader_of(view_)) return;
  Slot& slot = slot_for(seq);
  if (slot.pre_prepared) return;  // already have a proposal for this slot
  slot.pre_prepared = true;
  slot_bytes_.assign(slot.client, client);
  slot.rid_seq = rid_seq;
  slot_bytes_.assign(slot.request, request);
  slot.digest = digest_of(client, rid_seq, request);
  // The old pending_.erase(rid): the buffered copy is superseded.
  const std::uint64_t hash = request_key_hash(client, rid_seq);
  if (RequestState* req = requests_.find(client, rid_seq, hash)) {
    if (req->pending) {
      req->pending = false;
      req->pending_request = {};
      --pending_count_;
    }
  }

  broadcast({.type = MsgType::PrepareAck,
             .view = view_,
             .seq = seq,
             .sender_index = index_,
             .client = client,
             .client_seq = rid_seq,
             .aux = BytesView(slot.digest.data(), slot.digest.size())},
            true);
  // Count our own endorsement.
  slot.acks |= peer_bit(index_);
  if (votes(slot.acks) >= quorum()) slot.committed = true;
  try_execute();
}

void SmrReplica::handle_prepare_ack(const MessageView& msg) {
  if (msg.view() != view_ || stale_) return;
  Slot& slot = slot_for(msg.seq());
  // Acks may arrive before the pre-prepare; buffer them against the digest.
  if (slot.pre_prepared) {
    const BytesView aux = msg.aux();
    if (aux.size() != slot.digest.size() ||
        !std::equal(aux.begin(), aux.end(), slot.digest.begin())) {
      return;  // endorsement of a different proposal; drop
    }
  }
  slot.acks |= peer_bit(msg.sender_index());
  if (slot.pre_prepared && votes(slot.acks) >= quorum()) {
    slot.committed = true;
    try_execute();
  }
}

void SmrReplica::try_execute() {
  while (true) {
    Slot* slot = find_slot(applied_seq_ + 1);
    if (slot == nullptr || !slot->committed || slot->executed) break;
    service_->execute(slot_bytes_.view(slot->request), execute_scratch_);
    slot->executed = true;
    --unexecuted_slots_;
    ++applied_seq_;
    last_progress_ = sim_.now();
    const std::string_view client = slot_bytes_.chars(slot->client);
    const std::uint64_t hash = request_key_hash(client, slot->rid_seq);
    RequestState& req = requests_.find_or_insert(client, slot->rid_seq, hash);
    req.has_response = true;
    requests_.assign(req.response, execute_scratch_);
    respond_to_requesters(req);
  }
}

void SmrReplica::check_progress() {
  if (stale_) {
    request_state();  // keep retrying until f+1 matching offers arrive
    return;
  }
  // Only suspect the leader when there is work it should be doing.
  if (pending_count_ == 0 && unexecuted_slots_ == 0) {
    last_progress_ = sim_.now();
    return;
  }
  if (sim_.now() - last_progress_ < kSmrProgressTimeout) return;
  if (leads()) return;  // the leader cannot vote itself out

  std::uint64_t next = view_ + 1;
  broadcast({.type = MsgType::ViewChange, .view = next, .sender_index = index_},
            true);
  view_votes_[next] |= peer_bit(index_);
  last_progress_ = sim_.now();  // give the vote time to gather
  if (votes(view_votes_[next]) >= quorum()) adopt_view(next);
}

void SmrReplica::handle_view_change(const MessageView& msg) {
  if (msg.view() <= view_) return;
  view_votes_[msg.view()] |= peer_bit(msg.sender_index());
  if (votes(view_votes_[msg.view()]) >= quorum()) {
    adopt_view(msg.view());
  }
}

void SmrReplica::adopt_view(std::uint64_t view) {
  FORTRESS_EXPECTS(view > view_);
  view_ = view;
  last_progress_ = sim_.now();
  // Un-executed slots from the old view are abandoned; their requests fall
  // back into the pending buffer for re-proposal.
  for (const Slot& slot : slots_) {
    if (slot.executed) continue;
    const std::string_view client = slot_bytes_.chars(slot.client);
    const std::uint64_t hash = request_key_hash(client, slot.rid_seq);
    RequestState& req = requests_.find_or_insert(client, slot.rid_seq, hash);
    if (!req.pending) ++pending_count_;
    req.pending = true;
    requests_.assign(req.pending_request, slot_bytes_.view(slot.request));
    req.proposed = false;
  }
  std::erase_if(slots_, [](const Slot& slot) { return !slot.executed; });
  unexecuted_slots_ = 0;
  next_seq_ = applied_seq_;
  if (leads() && !stale_) {
    // Re-propose everything outstanding, in the rid order the old
    // std::map snapshot iterated in. Records are addressed by position:
    // each proposal may grow the table.
    repropose_.clear();
    for (std::uint32_t i = 0; i < requests_.size(); ++i) {
      if (requests_.entries()[i].pending) repropose_.push_back(i);
    }
    std::sort(repropose_.begin(), repropose_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                const RequestState& x = requests_.entries()[a];
                const RequestState& y = requests_.entries()[b];
                const std::string_view cx = requests_.client(x);
                const std::string_view cy = requests_.client(y);
                return cx != cy ? cx < cy : x.seq < y.seq;
              });
    for (const std::uint32_t i : repropose_) {
      RequestState& req = requests_.entries()[i];
      if (!req.has_response) {
        propose(req, requests_.bytes(req.pending_request));
      }
    }
  }
}

void SmrReplica::request_state() {
  broadcast(
      {.type = MsgType::StateRequest, .view = view_, .sender_index = index_},
      false);
}

void SmrReplica::handle_state_request(const MessageView& msg) {
  if (stale_) return;  // cannot vouch for state we are still fetching
  if (msg.sender_index() >= replica_ids_.size()) return;  // hostile index
  service_->snapshot(snapshot_scratch_);
  Bytes wire = network_.acquire_buffer();
  MessageCore{.type = MsgType::StateReply,
              .view = view_,
              .seq = applied_seq_,
              .sender_index = index_,
              .aux = snapshot_scratch_}
      .encode_signed_into(wire, key_);
  network_.send(id_, replica_ids_[msg.sender_index()], std::move(wire));
}

void SmrReplica::handle_state_reply(const MessageView& msg) {
  if (!stale_) return;
  if (!verify_from_peer(msg)) return;
  if (msg.seq() < applied_seq_) return;  // older than what we already have
  const auto key = std::make_pair(msg.seq(), crypto::Sha256::hash(msg.aux()));
  StateOffer& offer = state_offers_[key];
  offer.senders |= peer_bit(msg.sender_index());
  offer.snapshot.assign(msg.aux().begin(), msg.aux().end());
  // f+1 identical offers guarantee at least one comes from a correct
  // replica (n = 3f+1, at most f faulty).
  if (votes(offer.senders) >= f_ + 1) {
    // A record that does not parse is dropped; the rejoin keeps waiting.
    if (!service_->restore(offer.snapshot)) {
      state_offers_.erase(key);
      return;
    }
    applied_seq_ = msg.seq();
    next_seq_ = std::max(next_seq_, applied_seq_);
    stale_ = false;
    state_offers_.clear();
    last_progress_ = sim_.now();
  }
}

void SmrReplica::handle_reboot() {
  // Proactive recovery: the executable was replaced; treat local state as
  // untrusted and rejoin via state transfer (Roeder-Schneider §2.3).
  stale_ = true;
  slots_.clear();
  slot_bytes_.clear();
  unexecuted_slots_ = 0;
  // The old proposed_.clear(): buffered/pending and answered state is
  // durable, the view's proposal bookkeeping is not.
  for (RequestState& req : requests_.entries()) req.proposed = false;
  view_votes_.clear();
  state_offers_.clear();
  last_progress_ = sim_.now();
  request_state();
}

}  // namespace fortress::replication
