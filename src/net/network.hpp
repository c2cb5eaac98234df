// network.hpp — simulated message network with observable connections.
//
// Models exactly the network behaviour the paper's attack analysis relies
// on:
//  * datagram-style delivery with a declarative latency distribution;
//  * TCP-like connections: when the process behind one endpoint crashes or
//    closes, the peer receives a Closed notification. This closure signal is
//    the side channel that de-randomization attacks [Shacham04, Sovarel05]
//    use to observe remote crashes, and what FORTRESS's proxy tier removes.
//
// Hosts attach to the network at an Address and implement net::Handler.
// Detaching a host (process crash) drops in-flight messages addressed to it
// and closes all its connections.
//
// Hot-path design (campaign trials deliver hundreds of millions of protocol
// messages): the live event path is dense-id and allocation-free.
//  * Addresses are interned to HostId once, at registration; the host table
//    is a flat vector indexed by id and Envelope carries ids, not strings.
//    Strings appear only at the configuration boundary (attach/intern,
//    ScenarioPlan, logging).
//  * Connections live in a slot table with free-list reuse; ConnectionId
//    encodes (slot, generation) so lookup is an O(1) indexed check immune to
//    slot-reuse ABA.
//  * Payload buffers are pooled: send()/send_on() take a Bytes the network
//    moves end-to-end into the scheduled delivery, hands to the handler as a
//    BytesView, and recycles. acquire_buffer() lets senders build messages
//    directly in a pooled buffer; the datagram-duplication path is the only
//    place a payload is copied.
//
// Behaviour (latency distribution, loss, duplication, partitions) is one
// NetworkConfig; NetworkConfig::from_plan derives it from a declarative
// net::ScenarioPlan (see scenario.hpp), which is how every live deployment
// builds its network.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "net/interner.hpp"
#include "net/scenario.hpp"
#include "sim/simulator.hpp"

namespace fortress::net {

/// Identifier of an established connection (shared by both endpoints).
/// Encodes (slot << 32 | generation); never 0.
using ConnectionId = std::uint64_t;

/// A delivered message. `payload` is a view into a network-owned pooled
/// buffer that is recycled when the handler returns — handlers that need
/// the bytes later must copy them.
struct Envelope {
  HostId from = kInvalidHost;
  HostId to = kInvalidHost;
  BytesView payload;
  /// Set when the message arrived over a connection.
  std::optional<ConnectionId> connection;
  /// Set by an overloaded machine operating under the DegradeUnsigned
  /// policy: the application should skip signature verification for this
  /// dispatch (see net::OverloadPolicy). Never set by the network itself.
  bool degraded = false;
};

/// Why a connection went away — the attacker distinguishes these.
enum class CloseReason {
  PeerClosed,   ///< the remote application closed the connection
  PeerCrashed,  ///< the remote process crashed (the probe side channel)
  LocalDetach,  ///< this endpoint's own host detached
};

/// Callbacks a host implements to use the network. Peers are identified by
/// HostId; Network::address_of() recovers the string when needed (logging,
/// wire fields).
class Handler {
 public:
  virtual ~Handler() = default;

  /// A datagram or connection message arrived.
  virtual void on_message(const Envelope& env) = 0;

  /// A connection this host participated in was closed.
  virtual void on_connection_closed(ConnectionId id, HostId peer,
                                    CloseReason reason) {
    (void)id;
    (void)peer;
    (void)reason;
  }

  /// An inbound connection was accepted (after the initiator's connect()).
  virtual void on_connection_opened(ConnectionId id, HostId peer) {
    (void)id;
    (void)peer;
  }
};

/// Network configuration.
struct NetworkConfig {
  /// Per-delivery latency distribution (Network's constructor and reset()
  /// validate it).
  LatencySpec latency = LatencySpec::uniform(0.1, 0.5);
  /// Probability an individual datagram is dropped (connections are
  /// reliable; drops model UDP-style client traffic).
  double drop_probability = 0.0;
  /// Probability a datagram is delivered twice, with independent latencies
  /// (connections stay exactly-once).
  double duplicate_probability = 0.0;
  /// Scheduled partitions. While a window separates two hosts: datagrams
  /// and connection messages between them are lost, new connections are
  /// refused (the SYN never arrives). Connection-closure notifications are
  /// still delivered — a reboot's RST is observed once the link heals, and
  /// modelling that as delayed-but-delivered keeps protocol timers and the
  /// attacker's probe loop live across windows.
  std::vector<PartitionWindow> partitions;
  std::uint64_t rng_seed = 1;

  /// THE mapping from a plan's network-behaviour fields, and the one place
  /// a deployment's plan is validated: core::LiveSystem builds its network
  /// through here both on construction and on every pooled reset(), so a
  /// new field added to the plan is wired up in exactly one place.
  static NetworkConfig from_plan(const ScenarioPlan& plan,
                                 std::uint64_t rng_seed);
};

/// The simulated network.
class Network {
 public:
  /// Throws PlanValidationError if `config.latency` is invalid.
  Network(sim::Simulator& sim, NetworkConfig config);

  /// Return to the freshly-constructed state under a new behaviour
  /// (validated as by the constructor): all hosts detach silently (no closure
  /// notifications — the simulation they belonged to is over), all
  /// connections drop, counters and the RNG stream restart. The address
  /// interner and the payload-buffer pool survive — that is the campaign
  /// trial-arena reuse path: a rebuilt deployment re-interns the same
  /// addresses to the same ids. The simulator should be reset by the
  /// caller as well, since in-flight deliveries are scheduled events.
  void reset(NetworkConfig config);

  // --- the address/id boundary ---------------------------------------------

  /// Intern `addr` (idempotent registration). Components resolve their own
  /// and their peers' ids once, at construction/start, and use ids on every
  /// message after that.
  HostId intern(const Address& addr) { return interner_.intern(addr); }

  /// The id of `addr`, or kInvalidHost if never interned. Accepts a
  /// borrowed name (a MessageView's wire-carried requester).
  HostId id_of(std::string_view addr) const { return interner_.find(addr); }

  /// The address behind an interned id (logging / wire-format boundary).
  const Address& address_of(HostId id) const { return interner_.name(id); }

  const AddressInterner& interner() const { return interner_; }

  // --- attachment ----------------------------------------------------------

  /// Attach a host at `addr`, interning it; returns the host's id.
  /// Precondition: the address is free. The handler must stay alive until
  /// detach.
  HostId attach(const Address& addr, Handler& handler);

  /// Attach at an already-interned id. Precondition: the slot is free.
  void attach(HostId id, Handler& handler);

  /// Detach the host (process exit/crash). All its connections close;
  /// `reason` tells peers whether this looked like a crash. No-op if not
  /// attached.
  void detach(HostId id, CloseReason reason = CloseReason::PeerClosed);

  /// True if a host is currently attached.
  bool attached(HostId id) const {
    return id < hosts_.size() && hosts_[id] != nullptr;
  }

  // --- payload buffers -----------------------------------------------------

  /// An empty Bytes from the recycle pool (or fresh). Senders that build
  /// messages into one hand it to send()/send_on(), which moves it through
  /// delivery and recycles it — the whole hop allocates nothing in steady
  /// state.
  Bytes acquire_buffer();

  /// Return a buffer to the pool (for callers that acquired one and ended
  /// up not sending it).
  void recycle_buffer(Bytes&& buf);

  // --- messaging -----------------------------------------------------------

  /// Send a datagram. Silently dropped if `to` is not attached at delivery
  /// time or the drop coin fires. The payload buffer is consumed (recycled
  /// after delivery).
  void send(HostId from, HostId to, Bytes payload);

  /// Datagram from a pooled copy of `payload` — the multi-recipient
  /// broadcast path (encode once, send_copy per recipient).
  void send_copy(HostId from, HostId to, BytesView payload);

  /// Deliver `count` length-prefixed datagram frames ([u32-be length][frame
  /// bytes] repeated) from `from` to `to` as ONE scheduled simulator event —
  /// the population-plane fan-in path: a cohort tick hands the network N
  /// requests without N timer events. Batch semantics vs N send() calls
  /// (documented divergences of the compact plane):
  ///  * one latency sample covers the whole batch (frames travel together);
  ///  * per-frame drop coins are drawn at DELIVERY time, in frame order,
  ///    from the same network RNG (the scalar path draws at send time);
  ///  * frames are never duplicated (duplicate_probability is a per-datagram
  ///    model; a batch models one wire transfer).
  /// Partitioned links lose the whole batch at send time, like send(). The
  /// buffer is consumed and recycled after delivery.
  void send_batch(HostId from, HostId to, Bytes frames, std::uint32_t count);

  /// Open a connection from `from` to `to`. Returns the connection id; the
  /// acceptor learns about it via on_connection_opened after one latency.
  /// Returns nullopt if `to` is not attached (connection refused) or the
  /// link is currently partitioned (the SYN is lost).
  std::optional<ConnectionId> connect(HostId from, HostId to);

  /// Send on an established connection: exempt from datagram drop and
  /// duplication, ordered by delivery time — but NOT partition-proof. A
  /// message sent while a PartitionWindow separates the endpoints is lost
  /// at send time with no notification; `true` only means the connection
  /// existed and `from` was an endpoint (false otherwise).
  bool send_on(ConnectionId id, HostId from, Bytes payload);

  /// send_on from a pooled copy of `payload` (multi-recipient fan-out over
  /// connections; see send_copy).
  bool send_on_copy(ConnectionId id, HostId from, BytesView payload);

  /// Close a connection from one side; the peer is notified (PeerClosed).
  void close(ConnectionId id, HostId closer);

  /// Tear down a connection because the process (child) behind `crasher`
  /// crashed; the peer is notified with PeerCrashed — the observable signal
  /// a de-randomization attacker relies on.
  void abort(ConnectionId id, HostId crasher);

  /// Diagnostics/testing: whether an active partition window separates
  /// `x` and `y` right now (always false when the config has no windows).
  bool partitioned(HostId x, HostId y) const {
    return !config_.partitions.empty() && link_blocked(x, y);
  }

  /// Number of live connections (diagnostics).
  std::size_t open_connections() const { return open_conns_; }

  /// Total messages delivered (diagnostics).
  std::uint64_t delivered_count() const { return delivered_; }

  sim::Simulator& simulator() { return sim_; }

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  /// A connection slot. `gen` is bumped on release so stale ConnectionIds
  /// fail the open check; `opened_seq` preserves creation order, which
  /// detach() notification order (and therefore the RNG draw sequence) is
  /// defined by.
  struct ConnSlot {
    HostId a = kInvalidHost;  // initiator
    HostId b = kInvalidHost;  // acceptor
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNilSlot;
    std::uint64_t opened_seq = 0;
    bool open = false;
  };

  static ConnectionId make_conn_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<ConnectionId>(slot) << 32) | gen;
  }
  const ConnSlot* conn_at(ConnectionId id) const {
    const std::uint32_t slot = static_cast<std::uint32_t>(id >> 32);
    if (slot >= conns_.size()) return nullptr;
    const ConnSlot& c = conns_[slot];
    if (!c.open || c.gen != static_cast<std::uint32_t>(id)) return nullptr;
    return &c;
  }
  void release_conn(ConnectionId id);

  void deliver(HostId from, HostId to, Bytes payload,
               std::optional<ConnectionId> conn);
  void notify_closed(HostId endpoint, ConnectionId id, HostId peer,
                     CloseReason reason);
  void teardown(ConnectionId id, HostId endpoint, CloseReason reason);
  /// True when an active partition window separates `x` and `y` right now.
  bool link_blocked(HostId x, HostId y) const;
  /// Extend the per-window membership bitsets to cover every interned id
  /// (addresses may be interned at any time; ids only grow).
  void sync_partition_bits() const;

  sim::Simulator& sim_;
  NetworkConfig config_;
  Rng rng_;
  AddressInterner interner_;
  /// Flat host table indexed by HostId; nullptr = not attached.
  std::vector<Handler*> hosts_;
  /// Connection slot table + free list.
  std::vector<ConnSlot> conns_;
  std::uint32_t conn_free_head_ = kNilSlot;
  std::size_t open_conns_ = 0;
  std::uint64_t conn_seq_ = 0;
  /// Recycled payload buffers (see acquire_buffer).
  std::vector<Bytes> pool_;
  /// detach()'s list of connections to close, reused across calls.
  struct ClosingConn {
    std::uint64_t seq;
    ConnectionId id;
    HostId peer;
  };
  std::vector<ClosingConn> closing_scratch_;
  std::uint64_t delivered_ = 0;
  /// Per-window island membership as HostId bitsets, one per
  /// config_.partitions entry, built lazily from the interner (lazily
  /// because hosts keep interning after construction; mutable because the
  /// sync happens under const link_blocked). partition_ids_synced_ counts
  /// the interner entries already classified.
  mutable std::vector<std::vector<std::uint64_t>> partition_bits_;
  mutable std::size_t partition_ids_synced_ = 0;
};

}  // namespace fortress::net
