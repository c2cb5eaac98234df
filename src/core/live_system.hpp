// live_system.hpp — assembled, runnable deployments of the paper's three
// system classes (Definitions 1-3) on the simulation substrate.
//
// Each Live* owns its network, key registry, name-server, randomized
// machines, replica/proxy applications and obfuscation scheduler, and
// exposes the class-specific compromise predicate:
//   LiveS0: 4-replica SMR, distinct keys, staggered recovery; compromised
//           when >= 2 replicas are simultaneously controlled.
//   LiveS1: 3-replica primary-backup, one shared key, direct clients;
//           compromised when any replica is controlled.
//   LiveS2: FORTRESS — 3 proxies (distinct keys) fronting the LiveS1 server
//           tier (shared key); compromised when any server is controlled or
//           all proxies are simultaneously controlled.
//
// The compromise predicate is latched: the moment it first holds, failed()
// becomes true and failure_time() records the simulation time.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/directory.hpp"
#include "model/params.hpp"
#include "core/nameserver.hpp"
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

/// Common machinery shared by the three deployments.
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
  virtual void start() = 0;

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
  std::optional<sim::Time> failure_time() const { return failure_time_; }
  /// Whole unit steps elapsed before compromise (the live EL sample).
  std::optional<std::uint64_t> failure_step() const;

  /// Invoked once, at the moment the compromise predicate first latches.
  /// Campaign trials use this to stop the simulation early.
  std::function<void()> on_failure;

  std::uint64_t steps_completed() const { return scheduler_.steps_completed(); }

  // --- class-generic topology hooks (the campaign runner drives every
  // system class through these) -------------------------------------------

  /// The machines a de-randomization attacker can probe directly: servers
  /// for the exposed classes (S0/S1), proxies for FORTRESS (S2).
  virtual std::vector<osl::Machine*> direct_attack_surface() = 0;

  /// Machines usable as launch pads against a hidden tier once compromised
  /// (S2 proxies); empty when every tier is directly reachable.
  virtual std::vector<osl::Machine*> launchpad_machines() { return {}; }

  /// Addresses of the hidden server tier reachable only via launch pads
  /// (S2); empty otherwise.
  virtual std::vector<net::Address> hidden_server_addresses() const {
    return {};
  }

  /// Resolve a scheduled fault's (tier, index) to a machine; nullptr when
  /// the tier does not exist or the index is out of range (the fault is
  /// ignored, letting one plan span system classes of different shapes).
  virtual osl::Machine* fault_target(net::FaultEvent::Target tier,
                                     int index) = 0;

  /// Total distinct (source, proxy) blacklistings across the detection
  /// tier — the observable evidence that detection fired. 0 for classes
  /// without a detection tier.
  virtual std::uint64_t blacklisted_sources() const { return 0; }

  /// Every machine in the deployment (servers first, then proxies where
  /// present) — the campaign sums per-machine OverloadStats across these
  /// into the trial's overload aggregates.
  virtual std::vector<const osl::Machine*> service_machines() const = 0;

 protected:
  /// Build the network and obfuscation clock `plan` describes for trial
  /// `seed` (the plan is validated here, through NetworkConfig::from_plan).
  LiveSystem(sim::Simulator& sim, const net::ScenarioPlan& plan,
             std::uint64_t seed);

  void latch_failure();
  /// Called on every machine compromise; subclasses evaluate their rule.
  virtual bool compromise_rule() const = 0;
  void watch(osl::Machine& machine);

  /// Install `service` on one machine under a per-machine seed derived from
  /// the trial seed and `salt` (a stable per-deployment machine index), so
  /// service-time draws are independent across machines yet bit-identical
  /// between a fresh construction and a pooled reset.
  void configure_machine_service(osl::Machine& machine,
                                 const net::ServiceModel& service,
                                 std::uint64_t salt);

  /// Return every machine of one tier to its just-constructed state for
  /// `plan`: reset under the plan's keyspace, re-watch, and re-install the
  /// service model under salts first_salt, first_salt + 1, ...
  void reset_tier(const std::vector<std::unique_ptr<osl::Machine>>& tier,
                  const net::ScenarioPlan& plan, std::uint64_t first_salt);

  /// Subclass half of reset(): return machines/replicas/proxies to their
  /// just-constructed state for `plan` under the already-updated seed_.
  virtual void reset_components(const net::ScenarioPlan& plan) = 0;

  sim::Simulator& sim_;
  std::uint64_t seed_;
  sim::Time step_duration_;
  crypto::KeyRegistry registry_;
  net::Network network_;
  osl::ObfuscationScheduler scheduler_;
  Directory directory_;
  std::unique_ptr<NameServer> nameserver_;
  std::optional<sim::Time> failure_time_;
};

/// S1: 1-tier primary-backup (Definition 2).
class LiveS1 final : public LiveSystem {
 public:
  LiveS1(sim::Simulator& sim, const net::ScenarioPlan& plan,
         std::uint64_t seed, ServiceFactory factory);

  void start() override;

  osl::Machine& server_machine(int i) { return *machines_.at(static_cast<std::size_t>(i)); }
  replication::PbReplica& server(int i) { return *replicas_.at(static_cast<std::size_t>(i)); }
  int n_servers() const { return static_cast<int>(machines_.size()); }

  std::vector<osl::Machine*> direct_attack_surface() override;
  osl::Machine* fault_target(net::FaultEvent::Target tier, int index) override;
  std::vector<const osl::Machine*> service_machines() const override;

 private:
  bool compromise_rule() const override;
  void reset_components(const net::ScenarioPlan& plan) override;

  std::vector<std::unique_ptr<osl::Machine>> machines_;
  std::vector<std::unique_ptr<replication::PbReplica>> replicas_;
};

/// S0: 1-tier state-machine replication (Definition 1).
class LiveS0 final : public LiveSystem {
 public:
  /// Deploys the smallest SMR quorum 3f+1 >= max(4, plan.n_servers).
  LiveS0(sim::Simulator& sim, const net::ScenarioPlan& plan,
         std::uint64_t seed, DeterministicServiceFactory factory);

  void start() override;

  osl::Machine& server_machine(int i) { return *machines_.at(static_cast<std::size_t>(i)); }
  replication::SmrReplica& server(int i) { return *replicas_.at(static_cast<std::size_t>(i)); }
  int n_servers() const { return static_cast<int>(machines_.size()); }
  int currently_compromised() const;

  std::vector<osl::Machine*> direct_attack_surface() override;
  osl::Machine* fault_target(net::FaultEvent::Target tier, int index) override;
  std::vector<const osl::Machine*> service_machines() const override;

 private:
  bool compromise_rule() const override;
  void reset_components(const net::ScenarioPlan& plan) override;

  std::vector<std::unique_ptr<osl::Machine>> machines_;
  std::vector<std::unique_ptr<replication::SmrReplica>> replicas_;
};

/// S2: the FORTRESS deployment (Definition 3).
class LiveS2 final : public LiveSystem {
 public:
  LiveS2(sim::Simulator& sim, const net::ScenarioPlan& plan,
         std::uint64_t seed, ServiceFactory factory);

  void start() override;

  osl::Machine& proxy_machine(int i) { return *proxy_machines_.at(static_cast<std::size_t>(i)); }
  osl::Machine& server_machine(int i) { return *server_machines_.at(static_cast<std::size_t>(i)); }
  proxy::ProxyNode& proxy(int i) { return *proxies_.at(static_cast<std::size_t>(i)); }
  replication::PbReplica& server(int i) { return *replicas_.at(static_cast<std::size_t>(i)); }
  int n_proxies() const { return static_cast<int>(proxy_machines_.size()); }
  int n_servers() const { return static_cast<int>(server_machines_.size()); }
  /// The server addresses, which clients never learn (attack code uses them
  /// only through a compromised proxy's identity).
  const std::vector<net::Address>& server_addresses() const { return server_addrs_; }
  int currently_compromised_proxies() const;

  std::vector<osl::Machine*> direct_attack_surface() override;
  std::vector<osl::Machine*> launchpad_machines() override;
  std::vector<net::Address> hidden_server_addresses() const override;
  osl::Machine* fault_target(net::FaultEvent::Target tier, int index) override;
  std::uint64_t blacklisted_sources() const override;
  std::vector<const osl::Machine*> service_machines() const override;

 private:
  bool compromise_rule() const override;
  void reset_components(const net::ScenarioPlan& plan) override;

  std::vector<std::unique_ptr<osl::Machine>> proxy_machines_;
  std::vector<std::unique_ptr<osl::Machine>> server_machines_;
  std::vector<std::unique_ptr<proxy::ProxyNode>> proxies_;
  std::vector<std::unique_ptr<replication::PbReplica>> replicas_;
  std::vector<net::Address> server_addrs_;
};

/// Build the deployment a ScenarioPlan describes for the given system class
/// (a KvService instance per replica).
std::unique_ptr<LiveSystem> make_live_system(sim::Simulator& sim,
                                             model::SystemKind kind,
                                             const net::ScenarioPlan& plan,
                                             std::uint64_t seed);

}  // namespace fortress::core
