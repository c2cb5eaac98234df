#include "net/network.hpp"

#include <algorithm>
#include <utility>

namespace fortress::net {

Network::Network(sim::Simulator& sim, NetworkConfig config)
    : sim_(sim), config_(std::move(config)), rng_(config_.rng_seed) {
  config_.latency.validate();
}

NetworkConfig NetworkConfig::from_plan(const ScenarioPlan& plan,
                                       std::uint64_t rng_seed) {
  plan.validate();
  NetworkConfig cfg;
  cfg.latency = plan.latency;
  cfg.drop_probability = plan.drop_probability;
  cfg.duplicate_probability = plan.duplicate_probability;
  cfg.partitions = plan.partitions;
  cfg.rng_seed = rng_seed;
  return cfg;
}

void Network::reset(NetworkConfig config) {
  config.latency.validate();
  config_ = std::move(config);
  rng_ = Rng(config_.rng_seed);
  // Interner and buffer pool survive (the arena-reuse contract); the host
  // and connection tables restart exactly as freshly constructed.
  std::fill(hosts_.begin(), hosts_.end(), nullptr);
  conns_.clear();
  conn_free_head_ = kNilSlot;
  open_conns_ = 0;
  conn_seq_ = 0;
  delivered_ = 0;
  // The new config's windows need fresh membership bitsets (the interner
  // survives, so they rebuild lazily over the same ids).
  partition_bits_.clear();
  partition_ids_synced_ = 0;
}

void Network::sync_partition_bits() const {
  // Windows declare membership by address (the plan's vocabulary); the
  // per-message check wants a bit test on dense ids. Classify each id once,
  // the first time a partition check sees it — new ids only appear at the
  // tail, so this walks each address exactly once per reset.
  if (partition_bits_.size() != config_.partitions.size()) {
    partition_bits_.assign(config_.partitions.size(), {});
    partition_ids_synced_ = 0;
  }
  const std::size_t total = interner_.size();
  const std::size_t words = (total + 63) / 64;
  for (std::size_t w = 0; w < config_.partitions.size(); ++w) {
    partition_bits_[w].resize(words, 0);
    for (std::size_t id = partition_ids_synced_; id < total; ++id) {
      if (config_.partitions[w].contains(
              interner_.name(static_cast<HostId>(id)))) {
        partition_bits_[w][id / 64] |= 1ull << (id % 64);
      }
    }
  }
  partition_ids_synced_ = total;
}

bool Network::link_blocked(HostId x, HostId y) const {
  // Only reached when partitions exist.
  if (partition_ids_synced_ < interner_.size() ||
      partition_bits_.size() != config_.partitions.size()) {
    sync_partition_bits();
  }
  const sim::Time now = sim_.now();
  for (std::size_t w = 0; w < config_.partitions.size(); ++w) {
    if (!config_.partitions[w].active_at(now)) continue;
    const std::vector<std::uint64_t>& bits = partition_bits_[w];
    const bool in_x = (bits[x / 64] >> (x % 64)) & 1;
    const bool in_y = (bits[y / 64] >> (y % 64)) & 1;
    if (in_x != in_y) return true;
  }
  return false;
}

HostId Network::attach(const Address& addr, Handler& handler) {
  const HostId id = interner_.intern(addr);
  attach(id, handler);
  return id;
}

void Network::attach(HostId id, Handler& handler) {
  FORTRESS_EXPECTS(id < interner_.size());
  if (hosts_.size() < interner_.size()) hosts_.resize(interner_.size());
  FORTRESS_EXPECTS(hosts_[id] == nullptr);
  hosts_[id] = &handler;
}

void Network::detach(HostId id, CloseReason reason) {
  if (!attached(id)) return;
  hosts_[id] = nullptr;

  // Close every connection with this endpoint; notify the surviving peer in
  // connection-creation order (the order the old id-ordered map walk
  // produced, which the RNG draw sequence of the notifications depends on).
  // The member scratch list is safe to reuse: nothing below re-enters
  // detach (notify_closed only schedules the notification).
  std::vector<ClosingConn>& to_notify = closing_scratch_;
  to_notify.clear();
  for (std::uint32_t slot = 0; slot < conns_.size(); ++slot) {
    ConnSlot& c = conns_[slot];
    if (!c.open || (c.a != id && c.b != id)) continue;
    to_notify.push_back(
        {c.opened_seq, make_conn_id(slot, c.gen), c.a == id ? c.b : c.a});
  }
  std::sort(to_notify.begin(), to_notify.end(),
            [](const ClosingConn& x, const ClosingConn& y) {
              return x.seq < y.seq;
            });
  for (const ClosingConn& m : to_notify) {
    release_conn(m.id);
    notify_closed(m.peer, m.id, id, reason);
  }
}

Bytes Network::acquire_buffer() {
  if (pool_.empty()) return Bytes{};
  Bytes buf = std::move(pool_.back());
  pool_.pop_back();
  return buf;
}

void Network::recycle_buffer(Bytes&& buf) {
  buf.clear();
  pool_.push_back(std::move(buf));
}

void Network::deliver(HostId from, HostId to, Bytes payload,
                      std::optional<ConnectionId> conn) {
  // Partitioned links lose traffic at send time (nothing enters the pipe).
  if (!config_.partitions.empty() && link_blocked(from, to)) {
    recycle_buffer(std::move(payload));
    return;
  }
  sim::Time delay = config_.latency.sample(rng_);
  sim_.schedule_after(
      delay, [this, from, to, conn, payload = std::move(payload)]() mutable {
        Handler* handler = to < hosts_.size() ? hosts_[to] : nullptr;
        if (handler == nullptr ||               // host gone before delivery
            (conn && conn_at(*conn) == nullptr)) {  // torn down in flight
          recycle_buffer(std::move(payload));
          return;
        }
        ++delivered_;
        handler->on_message(
            Envelope{from, to, BytesView(payload), conn, false});
        recycle_buffer(std::move(payload));
      });
}

void Network::send(HostId from, HostId to, Bytes payload) {
  // A detached host has no network presence: traffic from an application
  // whose machine crashed or is mid-reboot is dropped at the source.
  if (!attached(from)) {
    recycle_buffer(std::move(payload));
    return;
  }
  if (config_.drop_probability > 0 &&
      rng_.bernoulli(config_.drop_probability)) {
    recycle_buffer(std::move(payload));
    return;
  }
  if (config_.duplicate_probability > 0 &&
      rng_.bernoulli(config_.duplicate_probability)) {
    // The one place on the event path a payload is copied.
    Bytes dup = acquire_buffer();
    dup.assign(payload.begin(), payload.end());
    deliver(from, to, std::move(dup), std::nullopt);
  }
  deliver(from, to, std::move(payload), std::nullopt);
}

void Network::send_copy(HostId from, HostId to, BytesView payload) {
  Bytes buf = acquire_buffer();
  buf.assign(payload.begin(), payload.end());
  send(from, to, std::move(buf));
}

void Network::send_batch(HostId from, HostId to, Bytes frames,
                         std::uint32_t count) {
  if (count == 0 || !attached(from)) {
    recycle_buffer(std::move(frames));
    return;
  }
  if (!config_.partitions.empty() && link_blocked(from, to)) {
    recycle_buffer(std::move(frames));
    return;
  }
  sim::Time delay = config_.latency.sample(rng_);
  sim_.schedule_after(
      delay, [this, from, to, count, frames = std::move(frames)]() mutable {
        Handler* handler = to < hosts_.size() ? hosts_[to] : nullptr;
        if (handler == nullptr) {
          recycle_buffer(std::move(frames));
          return;
        }
        const BytesView whole(frames);
        std::size_t off = 0;
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::uint32_t len = read_u32_be(whole, off);
          off += 4;
          FORTRESS_CHECK(off + len <= whole.size());
          const BytesView frame = whole.subspan(off, len);
          off += len;
          // Batch divergence: the drop coin for each frame is drawn here,
          // at delivery, not at send — same RNG, different draw point.
          if (config_.drop_probability > 0 &&
              rng_.bernoulli(config_.drop_probability)) {
            continue;
          }
          ++delivered_;
          handler->on_message(
              Envelope{from, to, frame, std::nullopt, false});
        }
        recycle_buffer(std::move(frames));
      });
}

std::optional<ConnectionId> Network::connect(HostId from, HostId to) {
  // Refused if either end lacks network presence (caller mid-reboot, or
  // callee down) or an active partition separates the endpoints.
  if (!attached(from)) return std::nullopt;
  if (!attached(to)) return std::nullopt;
  if (!config_.partitions.empty() && link_blocked(from, to)) {
    return std::nullopt;
  }
  std::uint32_t slot;
  if (conn_free_head_ != kNilSlot) {
    slot = conn_free_head_;
    conn_free_head_ = conns_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(conns_.size());
    conns_.emplace_back();
  }
  ConnSlot& c = conns_[slot];
  c.a = from;
  c.b = to;
  c.open = true;
  c.opened_seq = ++conn_seq_;
  ++open_conns_;
  const ConnectionId id = make_conn_id(slot, c.gen);
  sim::Time delay = config_.latency.sample(rng_);
  sim_.schedule_after(delay, [this, id, from, to] {
    if (conn_at(id) == nullptr) return;
    Handler* handler = to < hosts_.size() ? hosts_[to] : nullptr;
    if (handler == nullptr) return;
    handler->on_connection_opened(id, from);
  });
  return id;
}

bool Network::send_on(ConnectionId id, HostId from, Bytes payload) {
  const ConnSlot* c = conn_at(id);
  if (c == nullptr || (c->a != from && c->b != from)) {
    recycle_buffer(std::move(payload));
    return false;
  }
  deliver(from, c->a == from ? c->b : c->a, std::move(payload), id);
  return true;
}

bool Network::send_on_copy(ConnectionId id, HostId from, BytesView payload) {
  Bytes buf = acquire_buffer();
  buf.assign(payload.begin(), payload.end());
  return send_on(id, from, std::move(buf));
}

void Network::release_conn(ConnectionId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id >> 32);
  ConnSlot& c = conns_[slot];
  c.open = false;
  ++c.gen;  // stale ids (and in-flight messages on this conn) go dead
  c.next_free = conn_free_head_;
  conn_free_head_ = slot;
  --open_conns_;
}

void Network::teardown(ConnectionId id, HostId endpoint, CloseReason reason) {
  const ConnSlot* c = conn_at(id);
  if (c == nullptr) return;
  FORTRESS_EXPECTS(c->a == endpoint || c->b == endpoint);
  const HostId peer = c->a == endpoint ? c->b : c->a;
  release_conn(id);
  notify_closed(peer, id, endpoint, reason);
}

void Network::close(ConnectionId id, HostId closer) {
  teardown(id, closer, CloseReason::PeerClosed);
}

void Network::abort(ConnectionId id, HostId crasher) {
  teardown(id, crasher, CloseReason::PeerCrashed);
}

void Network::notify_closed(HostId endpoint, ConnectionId id, HostId peer,
                            CloseReason reason) {
  sim::Time delay = config_.latency.sample(rng_);
  sim_.schedule_after(delay, [this, endpoint, id, peer, reason] {
    Handler* handler = endpoint < hosts_.size() ? hosts_[endpoint] : nullptr;
    if (handler == nullptr) return;
    handler->on_connection_closed(id, peer, reason);
  });
}

}  // namespace fortress::net
