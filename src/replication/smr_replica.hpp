// smr_replica.hpp — state-machine replication (the paper's S0 class).
//
// A compact leader-based ordering protocol for n = 3f+1 replicas:
//   * the leader of view v (index v mod n) assigns a sequence number to each
//     fresh request and broadcasts a signed PrePrepare carrying the request;
//   * every replica that accepts the PrePrepare broadcasts a signed
//     PrepareAck over (view, seq, digest);
//   * a replica that collects 2f+1 matching PrepareAcks (its own included)
//     marks the slot committed and executes committed slots strictly in
//     sequence order, then signs and returns the response to every
//     requester. Correct replicas therefore produce identical responses —
//     which is precisely why the service must be a deterministic state
//     machine (DSM), the §1 requirement PB avoids.
//   * view change: a replica that sees no leader progress while work is
//     pending broadcasts ViewChange(v+1); on 2f+1 such messages the view
//     advances and the new leader re-proposes unexecuted requests.
//
// Proactive recovery/obfuscation support (§2.3, Roeder-Schneider): after a
// reboot the replica marks its state stale, broadcasts StateRequest, and
// resumes once f+1 replicas report an identical (seq, snapshot digest) at
// least as new as its own — the "f+1 correct replicas supply the state"
// rule.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "crypto/sha256.hpp"
#include "replication/replica_core.hpp"

namespace fortress::replication {

struct SmrConfig {
  std::uint32_t index = 0;
  std::uint32_t f = 1;                 ///< tolerated faults; n = 3f+1
  std::vector<net::Address> replicas;  ///< addresses by index (size 3f+1)
};

/// The leader's heartbeat period.
inline constexpr sim::Time kSmrHeartbeatInterval = 5.0;
/// How long a backup waits without progress on outstanding work before it
/// votes the leader out; it checks every quarter of this.
inline constexpr sim::Time kSmrProgressTimeout = 20.0;

class SmrReplica final : public ReplicaCore {
 public:
  /// SMR accepts only deterministic services — the DSM requirement.
  SmrReplica(sim::Simulator& sim, net::Network& network,
             crypto::KeyRegistry& registry,
             std::unique_ptr<DeterministicService> service, SmrConfig config);

  /// Return to the just-constructed state for a fresh campaign trial (see
  /// ReplicaCore::reset_core).
  void reset();

  std::uint64_t executed_seq() const { return applied_seq_; }
  bool state_stale() const { return stale_; }
  std::uint32_t quorum() const { return 2 * f_ + 1; }

  // osl::Application:
  void handle_message(const net::Envelope& env) override;
  void handle_reboot() override;

 private:
  /// One ordering slot. Trivially copyable: its rid and request bytes live
  /// in slot_bytes_.
  struct Slot {
    std::uint64_t seq = 0;
    ByteRef client;  ///< the proposal's request_id.client
    std::uint64_t rid_seq = 0;
    ByteRef request;
    crypto::Digest digest{};
    std::uint64_t acks = 0;  ///< bit i: replica i endorsed the proposal
    bool pre_prepared = false;
    bool committed = false;
    bool executed = false;
  };

  void handle_request(const net::Envelope& env, const MessageView& msg);
  void handle_prepare_ack(const MessageView& msg);
  void handle_view_change(const MessageView& msg);
  void handle_state_request(const MessageView& msg);
  void handle_state_reply(const MessageView& msg);
  /// The accept path for a peer's PrePrepare (borrowed fields from the
  /// wire) and for the leader's own proposal.
  void apply_pre_prepare(std::uint64_t view, std::uint64_t seq,
                         std::uint32_t sender, std::string_view client,
                         std::uint64_t rid_seq, BytesView request);
  /// Assign `req` the next slot and broadcast its signed PrePrepare.
  /// `request` may borrow from requests_.
  void propose(RequestState& req, BytesView request);
  void try_execute();
  void check_progress();
  void adopt_view(std::uint64_t view);
  void request_state();
  /// The slot for `seq`, or nullptr.
  Slot* find_slot(std::uint64_t seq);
  /// The slot for `seq`, inserted blank on first sight (the old map's
  /// operator[]). Invalidates other Slot references.
  Slot& slot_for(std::uint64_t seq);
  /// Verify a peer-signed ordering message: the signer must be the replica
  /// its sender_index names (verify_from_indexed_peer).
  bool verify_from_peer(const MessageView& msg) const;
  static crypto::Digest digest_of(std::string_view client, std::uint64_t seq,
                                  BytesView request);

  std::uint32_t f_;
  /// Per-peer verification schedules, resolved lazily on first use (every
  /// replica of the tier is enrolled by then; stable across pooled trials
  /// because the arena keeps its PKI).
  mutable std::vector<const crypto::HmacKey*> peer_schedules_;

  std::uint64_t next_seq_ = 0;  ///< leader-side allocator (last assigned)
  bool stale_ = false;          ///< awaiting state transfer after reboot

  /// Ordering slots, ascending by seq (the old std::map's order); their
  /// variable-length fields live in slot_bytes_. Executed slots are kept.
  std::vector<Slot> slots_;
  ByteArena slot_bytes_;
  std::size_t unexecuted_slots_ = 0;  ///< slots with executed == false
  std::size_t pending_count_ = 0;     ///< records with pending == true
  /// Reused re-proposal order (positions in requests_).
  std::vector<std::uint32_t> repropose_;

  /// View-change votes: view -> voter bitmask.
  std::map<std::uint64_t, std::uint64_t> view_votes_;
  /// State-transfer replies: (seq, snapshot digest) -> sender bitmask;
  /// snapshot kept.
  struct StateOffer {
    std::uint64_t senders = 0;
    Bytes snapshot;
  };
  std::map<std::pair<std::uint64_t, crypto::Digest>, StateOffer> state_offers_;
};

}  // namespace fortress::replication
