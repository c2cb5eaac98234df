// pb_replica.hpp — classical primary-backup replication (§1, §3).
//
// One primary executes requests and ships (response, state snapshot) updates
// to the backups; every replica — primary and backups alike — signs the
// response together with its index and returns it to the requester, exactly
// as §3 prescribes for the FORTRESS server tier. Because backups apply the
// primary's state instead of re-executing, the replicated service may be
// arbitrarily non-deterministic.
//
// Crash-fault tolerance only (that is PB's contract): primary liveness is
// monitored with heartbeats; on silence the next replica index takes over
// (view v -> primary index v mod n). Service state survives reboots (stable
// storage assumption of crash-tolerant replication).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "replication/replica_core.hpp"

namespace fortress::replication {

struct PbConfig {
  std::uint32_t index = 0;  ///< this replica's index (0-based)
  std::vector<net::Address> replicas;  ///< addresses by index
};

/// The primary's heartbeat period, and the silence after which a backup
/// suspects it (checked every quarter of the timeout).
inline constexpr sim::Time kPbHeartbeatInterval = 5.0;
inline constexpr sim::Time kPbFailoverTimeout = 20.0;

/// A primary-backup replica. Plug into an osl::Machine via set_application().
class PbReplica final : public ReplicaCore {
 public:
  PbReplica(sim::Simulator& sim, net::Network& network,
            crypto::KeyRegistry& registry, std::unique_ptr<Service> service,
            PbConfig config);

  /// Return to the just-constructed state for a fresh campaign trial (see
  /// ReplicaCore::reset_core). Caller resets the simulator/network first.
  void reset();

  bool is_primary() const { return leads(); }
  std::uint64_t applied_seq() const { return applied_seq_; }
  std::uint64_t executed_requests() const { return executed_count_; }

  // osl::Application:
  void handle_message(const net::Envelope& env) override;
  void handle_reboot() override;

 private:
  void handle_request(const net::Envelope& env, const MessageView& msg);
  void handle_state_update(const MessageView& msg);
  void handle_heartbeat(const MessageView& msg);
  void check_failover();
  void send_heartbeat();
  void adopt_view(std::uint64_t view);

  std::uint64_t executed_count_ = 0;
};

}  // namespace fortress::replication
