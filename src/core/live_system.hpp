// live_system.hpp — assembled, runnable deployments of the paper's three
// system classes (Definitions 1-3) on the simulation substrate.
//
// Each Live* owns its network, key registry, client directory, randomized
// machines, replica/proxy applications and obfuscation scheduler. The three
// classes differ only in tier shape and compromise predicate, which
// LiveSystem holds as data:
//   LiveS0: 4-replica SMR, distinct keys, staggered recovery; compromised
//           when >= 2 replicas are simultaneously controlled.
//   LiveS1: 3-replica primary-backup, one shared key, direct clients;
//           compromised when any replica is controlled.
//   LiveS2: FORTRESS — 3 proxies (distinct keys) fronting the LiveS1 server
//           tier (shared key); compromised when any server is controlled or
//           all proxies are simultaneously controlled.
//
// The compromise predicate is latched: the moment it first holds, failed()
// becomes true and failure_step() reports the step it latched in.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/directory.hpp"
#include "model/params.hpp"
#include "crypto/signature.hpp"
#include "net/network.hpp"
#include "osl/machine.hpp"
#include "osl/obfuscation.hpp"
#include "proxy/proxy_node.hpp"
#include "replication/pb_replica.hpp"
#include "replication/smr_replica.hpp"
#include "sim/simulator.hpp"

namespace fortress::core {

/// Factory for the replicated service instance each replica runs.
using ServiceFactory =
    std::function<std::unique_ptr<replication::Service>(std::uint32_t index)>;
using DeterministicServiceFactory =
    std::function<std::unique_ptr<replication::DeterministicService>(
        std::uint32_t index)>;

/// One deployment shape for all three classes: a server tier of machines
/// and replicas, an optional proxy tier, the number of compromised servers
/// that fails the system, and the machines an attacker reaches directly or
/// uses as launch pads. The LiveS0/LiveS1/LiveS2 constructors fill it in.
class LiveSystem {
 public:
  virtual ~LiveSystem() = default;
  LiveSystem(const LiveSystem&) = delete;
  LiveSystem& operator=(const LiveSystem&) = delete;

  net::Network& network() { return network_; }
  crypto::KeyRegistry& registry() { return registry_; }
  const Directory& directory() const { return directory_; }
  osl::ObfuscationScheduler& scheduler() { return scheduler_; }
  sim::Simulator& simulator() { return sim_; }

  /// Boot machines, start applications and the obfuscation clock.
  void start();

  /// Re-initialize this deployment for a NEW trial of (plan, seed) without
  /// reconstructing it: every component returns to the state a fresh
  /// construction with the same arguments would have — except the
  /// signature substrate, which keeps its construction-time PKI (no trial
  /// observable depends on it; see the note in the implementation) — but
  /// machines, replicas, proxies, the network and all their buffers are
  /// reused. The structural shape (system class, tier sizes) must match
  /// the plan this system was built from — per-trial knobs (keyspace, step
  /// duration, latency, detection, partitions, policy) may differ. The
  /// caller resets the owning Simulator FIRST (pending events reference
  /// it). After reset(), start() replays exactly as after
  /// make_live_system: a reset-then-run trial produces a TrialOutcome
  /// bit-identical to a freshly-constructed one (enforced by
  /// ArenaTrialsMatchFreshTrials).
  void reset(const net::ScenarioPlan& plan, std::uint64_t seed);

  /// Latched compromise predicate.
  bool failed() const { return failure_time_.has_value(); }
  /// Whole unit steps elapsed before compromise (the live EL sample).
  std::optional<std::uint64_t> failure_step() const;

  /// Invoked once, at the moment the compromise predicate first latches.
  /// Campaign trials use this to stop the simulation early.
  std::function<void()> on_failure;

  std::uint64_t steps_completed() const { return scheduler_.steps_completed(); }

  osl::Machine& server_machine(int i) { return *servers_.at(static_cast<std::size_t>(i)); }
  int n_servers() const { return static_cast<int>(servers_.size()); }

  // --- class-generic topology (the campaign runner drives every system
  // class through these) ---------------------------------------------------

  /// The machines a de-randomization attacker can probe directly: servers
  /// for the exposed classes (S0/S1), proxies for FORTRESS (S2).
  const std::vector<osl::Machine*>& direct_attack_surface() const {
    return attack_surface_;
  }

  /// Machines usable as launch pads against a hidden tier once compromised
  /// (S2 proxies); empty when every tier is directly reachable.
  const std::vector<osl::Machine*>& launchpad_machines() const {
    return launchpads_;
  }

  /// Addresses of the hidden server tier reachable only via launch pads
  /// (S2); empty otherwise.
  const std::vector<net::Address>& hidden_server_addresses() const {
    return hidden_servers_;
  }

  /// Resolve a scheduled fault's (tier, index) to a machine; nullptr when
  /// the tier does not exist or the index is out of range (the fault is
  /// ignored, letting one plan span system classes of different shapes).
  osl::Machine* fault_target(net::FaultEvent::Target tier, int index);

  /// Total distinct (source, proxy) blacklistings across the detection
  /// tier — the observable evidence that detection fired. 0 for classes
  /// without a detection tier.
  std::uint64_t blacklisted_sources() const;

  /// Every machine in the deployment (servers first, then proxies where
  /// present) — the campaign sums per-machine OverloadStats across these
  /// into the trial's overload aggregates.
  std::vector<const osl::Machine*> service_machines() const;

 protected:
  using Tier = std::vector<std::unique_ptr<osl::Machine>>;

  /// Build the network and obfuscation clock `plan` describes for trial
  /// `seed` (the plan is validated here, through NetworkConfig::from_plan).
  LiveSystem(sim::Simulator& sim, const net::ScenarioPlan& plan,
             std::uint64_t seed);

  /// Construct one tier: for each address the machine, then its
  /// application (`make_app(i)` stores it and returns it), wired together,
  /// watched, and given the service model under salt `first_salt + i`.
  template <typename MakeApp>
  void build_tier(Tier& tier, const std::vector<net::Address>& addrs,
                  const net::ScenarioPlan& plan, std::uint64_t first_salt,
                  bool processes_payloads, MakeApp make_app);
  /// The server tier of S1 and S2: `plan.n_servers` primary-backup
  /// replicas "<prefix>-server-i" sharing one key (§3). Returns their
  /// addresses.
  std::vector<net::Address> build_pb_servers(const char* prefix,
                                             const net::ScenarioPlan& plan,
                                             const ServiceFactory& factory);
  /// Fill the directory every client model is handed (the paper's trusted,
  /// read-only name server, §3). Clients of a 1-tier system learn the
  /// server addresses; clients of S2 learn only proxy addresses and server
  /// principal names.
  void publish(ReplicationType replication, std::uint32_t f,
               const std::vector<net::Address>& server_addrs,
               std::vector<net::Address> proxy_addrs);

  /// Machines currently controlled by the attacker in `tier`.
  static int count_compromised(const Tier& tier);

  sim::Simulator& sim_;
  std::uint64_t seed_;
  sim::Time step_duration_;
  crypto::KeyRegistry registry_;
  net::Network network_;
  osl::ObfuscationScheduler scheduler_;
  Directory directory_;
  std::optional<sim::Time> failure_time_;

  /// The tiers. Machines are declared before their applications, so the
  /// applications are destroyed first. Exactly one replica vector is
  /// non-empty: PB for S1/S2, SMR for S0.
  Tier servers_;
  Tier proxy_machines_;
  std::vector<std::unique_ptr<replication::PbReplica>> pb_replicas_;
  std::vector<std::unique_ptr<replication::SmrReplica>> smr_replicas_;
  std::vector<std::unique_ptr<proxy::ProxyNode>> proxies_;
  /// Compromised servers that fail the system (Definitions 1-3); with a
  /// proxy tier, all proxies compromised fail it too.
  int server_threshold_ = 1;
  std::vector<osl::Machine*> attack_surface_;
  std::vector<osl::Machine*> launchpads_;
  std::vector<net::Address> hidden_servers_;

 private:
  /// Return every machine of one tier to its just-constructed state for
  /// `plan`: reset under the plan's keyspace, re-watch, and re-install the
  /// service model under salts first_salt, first_salt + 1, ...
  void reset_tier(const Tier& tier, const net::ScenarioPlan& plan,
                  std::uint64_t first_salt);
  void watch(osl::Machine& machine);
  /// Install `service` on one machine under a per-machine seed derived from
  /// the trial seed and `salt` (a stable per-deployment machine index), so
  /// service-time draws are independent across machines yet bit-identical
  /// between a fresh construction and a pooled reset.
  void configure_machine_service(osl::Machine& machine,
                                 const net::ServiceModel& service,
                                 std::uint64_t salt);
  /// Called on every machine compromise: latch failure when the
  /// deployment's compromise predicate holds.
  bool compromise_rule() const;
  void latch_failure();
};

/// S1: 1-tier primary-backup (Definition 2).
class LiveS1 final : public LiveSystem {
 public:
  LiveS1(sim::Simulator& sim, const net::ScenarioPlan& plan,
         std::uint64_t seed, ServiceFactory factory);

  replication::PbReplica& server(int i) { return *pb_replicas_.at(static_cast<std::size_t>(i)); }
};

/// S0: 1-tier state-machine replication (Definition 1).
class LiveS0 final : public LiveSystem {
 public:
  /// Deploys the smallest SMR quorum 3f+1 >= max(4, plan.n_servers).
  LiveS0(sim::Simulator& sim, const net::ScenarioPlan& plan,
         std::uint64_t seed, DeterministicServiceFactory factory);

  replication::SmrReplica& server(int i) { return *smr_replicas_.at(static_cast<std::size_t>(i)); }
  int currently_compromised() const { return count_compromised(servers_); }
};

/// S2: the FORTRESS deployment (Definition 3).
class LiveS2 final : public LiveSystem {
 public:
  LiveS2(sim::Simulator& sim, const net::ScenarioPlan& plan,
         std::uint64_t seed, ServiceFactory factory);

  osl::Machine& proxy_machine(int i) { return *proxy_machines_.at(static_cast<std::size_t>(i)); }
  proxy::ProxyNode& proxy(int i) { return *proxies_.at(static_cast<std::size_t>(i)); }
  replication::PbReplica& server(int i) { return *pb_replicas_.at(static_cast<std::size_t>(i)); }
  int n_proxies() const { return static_cast<int>(proxy_machines_.size()); }
  /// The server addresses, which clients never learn (attack code uses them
  /// only through a compromised proxy's identity).
  const std::vector<net::Address>& server_addresses() const { return hidden_servers_; }
  int currently_compromised_proxies() const { return count_compromised(proxy_machines_); }
};

/// Build the deployment a ScenarioPlan describes for the given system class
/// (a KvService instance per replica).
std::unique_ptr<LiveSystem> make_live_system(sim::Simulator& sim,
                                             model::SystemKind kind,
                                             const net::ScenarioPlan& plan,
                                             std::uint64_t seed);

}  // namespace fortress::core
