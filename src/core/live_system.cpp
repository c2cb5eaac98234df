#include "core/live_system.hpp"

#include "common/check.hpp"
#include "replication/service.hpp"

namespace fortress::core {

namespace {

// Protocol timers every deployment runs with. The PB values are PbConfig's
// defaults; the SMR progress timeout is deliberately shorter than
// SmrConfig's default of 30.
constexpr sim::Time kPbHeartbeat = 5.0;
constexpr sim::Time kPbFailoverTimeout = 20.0;
constexpr sim::Time kSmrHeartbeat = 5.0;
constexpr sim::Time kSmrProgressTimeout = 20.0;

// Address prefixes of the three deployments' tiers ("s1-server-0", ...).
constexpr const char* kS0Prefix = "s0";
constexpr const char* kS1Prefix = "s1";
constexpr const char* kS2Prefix = "s2";

// The network and obfuscation configs a (plan, seed) implies — shared by
// construction and reset() so the seed-derivation scheme lives in one
// place. network_config validates the plan (NetworkConfig::from_plan).
net::NetworkConfig network_config(const net::ScenarioPlan& plan,
                                  std::uint64_t seed) {
  return net::NetworkConfig::from_plan(plan, seed ^ 0xABCDULL);
}

osl::ObfuscationConfig obfuscation_config(const net::ScenarioPlan& plan,
                                          std::uint64_t seed) {
  osl::ObfuscationConfig obf_cfg;
  obf_cfg.step_duration = plan.step_duration;
  obf_cfg.policy = plan.rerandomize ? osl::ObfuscationPolicy::Rerandomize
                                    : osl::ObfuscationPolicy::Recover;
  obf_cfg.keyspace = plan.keyspace;
  obf_cfg.rng_seed = seed ^ 0x5EEDULL;
  return obf_cfg;
}

proxy::DetectionConfig detection_config(const net::ScenarioPlan& plan) {
  proxy::DetectionConfig detection;
  detection.threshold = plan.detection_threshold;
  detection.window = plan.detection_window;
  return detection;
}

std::vector<net::Address> tier_addresses(const char* prefix,
                                         const char* role, int count) {
  std::vector<net::Address> addrs;
  for (int i = 0; i < count; ++i) {
    addrs.push_back(std::string(prefix) + "-" + role + "-" +
                    std::to_string(i));
  }
  return addrs;
}

// Shared fault-target resolution: bounds-checked lookup into one tier's
// machine vector (out-of-range plan indices are ignored, not errors).
osl::Machine* machine_at(
    const std::vector<std::unique_ptr<osl::Machine>>& tier, int index) {
  if (index < 0 || static_cast<std::size_t>(index) >= tier.size()) {
    return nullptr;
  }
  return tier[static_cast<std::size_t>(index)].get();
}

}  // namespace

LiveSystem::LiveSystem(sim::Simulator& sim, const net::ScenarioPlan& plan,
                       std::uint64_t seed)
    : sim_(sim),
      seed_(seed),
      step_duration_(plan.step_duration),
      registry_(seed ^ 0xF0F0F0F0ULL),
      network_(sim, network_config(plan, seed)),
      scheduler_(sim, obfuscation_config(plan, seed)) {}

void LiveSystem::reset(const net::ScenarioPlan& plan, std::uint64_t seed) {
  // Mirrors construction: same config derivations, same seed XORs — EXCEPT
  // the signature substrate. The KeyRegistry keeps the master it was
  // constructed with (the pooled stack keeps its PKI across trials the way
  // a real testbed keeps its CA): signing secrets are substrate-internal
  // (signature.hpp's SUBSTITUTION NOTE — the paper's analysis does not
  // depend on the signature scheme), signatures are fixed-size, and
  // sign/verify outcomes depend only on key CONSISTENCY, so no trial
  // observable depends on the master seed. Skipping the re-key avoids
  // recomputing one HMAC key schedule per principal per trial — the
  // dominant reset cost at small horizons.
  network_.reset(network_config(plan, seed));
  seed_ = seed;
  step_duration_ = plan.step_duration;
  scheduler_.reset(obfuscation_config(plan, seed));
  failure_time_.reset();
  on_failure = nullptr;
  nameserver_->reset();
  reset_components(plan);
}

std::optional<std::uint64_t> LiveSystem::failure_step() const {
  if (!failure_time_) return std::nullopt;
  return static_cast<std::uint64_t>(*failure_time_ / step_duration_);
}

void LiveSystem::latch_failure() {
  if (failure_time_) return;
  failure_time_ = sim_.now();
  if (on_failure) on_failure();
}

void LiveSystem::watch(osl::Machine& machine) {
  machine.add_compromise_listener([this](osl::Machine&) {
    if (compromise_rule()) latch_failure();
  });
}

void LiveSystem::configure_machine_service(osl::Machine& machine,
                                           const net::ServiceModel& service,
                                           std::uint64_t salt) {
  machine.configure_service(
      service, seed_ ^ 0x5E41CEULL ^ (salt * 0x9E3779B97F4A7C15ULL));
}

void LiveSystem::reset_tier(
    const std::vector<std::unique_ptr<osl::Machine>>& tier,
    const net::ScenarioPlan& plan, std::uint64_t first_salt) {
  std::uint64_t salt = first_salt;
  for (const auto& m : tier) {
    m->reset(plan.keyspace);
    watch(*m);
    configure_machine_service(*m, plan.service, salt++);
  }
}

// --- LiveS1 -----------------------------------------------------------------

LiveS1::LiveS1(sim::Simulator& sim, const net::ScenarioPlan& plan,
               std::uint64_t seed, ServiceFactory factory)
    : LiveSystem(sim, plan, seed) {
  FORTRESS_EXPECTS(plan.n_servers >= 1);
  FORTRESS_EXPECTS(factory != nullptr);
  const std::vector<net::Address> addrs =
      tier_addresses(kS1Prefix, "server", plan.n_servers);
  replication::PbConfig pb;
  pb.replicas = addrs;
  pb.heartbeat_interval = kPbHeartbeat;
  pb.failover_timeout = kPbFailoverTimeout;

  std::vector<osl::Machine*> group;
  for (int i = 0; i < plan.n_servers; ++i) {
    auto machine = std::make_unique<osl::Machine>(
        network_, osl::MachineConfig{addrs[static_cast<std::size_t>(i)],
                                     plan.keyspace});
    pb.index = static_cast<std::uint32_t>(i);
    auto replica = std::make_unique<replication::PbReplica>(
        sim_, network_, registry_, factory(static_cast<std::uint32_t>(i)),
        pb);
    machine->set_application(replica.get());
    watch(*machine);
    configure_machine_service(*machine, plan.service,
                              1 + static_cast<std::uint64_t>(i));
    group.push_back(machine.get());
    machines_.push_back(std::move(machine));
    replicas_.push_back(std::move(replica));
  }
  // One shared key for the whole PB tier (§3).
  scheduler_.add_shared_group(group);

  directory_.replication = ReplicationType::PrimaryBackup;
  directory_.f = 0;
  directory_.server_addrs = addrs;
  directory_.server_principals = addrs;  // principals == addresses
  nameserver_ = std::make_unique<NameServer>(network_, registry_, directory_);
}

void LiveS1::start() {
  scheduler_.boot_all();
  for (auto& r : replicas_) r->start();
  scheduler_.start();
}

bool LiveS1::compromise_rule() const {
  for (const auto& m : machines_) {
    if (m->compromised()) return true;
  }
  return false;
}

void LiveS1::reset_components(const net::ScenarioPlan& plan) {
  reset_tier(machines_, plan, 1);
  for (auto& r : replicas_) r->reset();
}

std::vector<const osl::Machine*> LiveS1::service_machines() const {
  std::vector<const osl::Machine*> out;
  for (const auto& m : machines_) out.push_back(m.get());
  return out;
}

std::vector<osl::Machine*> LiveS1::direct_attack_surface() {
  // The whole tier shares one key (§3), so there is exactly ONE direct
  // channel (Definition 2): probing more machines with the same enumeration
  // would overcount the model's per-channel rate omega. The primary stands
  // in for the tier.
  return {machines_.front().get()};
}

osl::Machine* LiveS1::fault_target(net::FaultEvent::Target tier, int index) {
  if (tier != net::FaultEvent::Target::Server) return nullptr;
  return machine_at(machines_, index);
}

// --- LiveS0 -----------------------------------------------------------------

LiveS0::LiveS0(sim::Simulator& sim, const net::ScenarioPlan& plan,
               std::uint64_t seed, DeterministicServiceFactory factory)
    : LiveSystem(sim, plan, seed) {
  FORTRESS_EXPECTS(factory != nullptr);
  // S0 is an SMR quorum, so the deployment size must be a valid 3f+1.
  // Plans are swept across classes unchanged, so n_servers is treated as a
  // floor: deploy the smallest 3f+1 >= max(4, n_servers) (never fewer
  // machines than requested; 3 -> 4, 5 or 6 -> 7, ...).
  const std::uint32_t f =
      plan.n_servers >= 4 ? static_cast<std::uint32_t>((plan.n_servers + 1) / 3)
                          : 1;
  const std::uint32_t n = 3 * f + 1;
  const std::vector<net::Address> addrs =
      tier_addresses(kS0Prefix, "replica", static_cast<int>(n));
  replication::SmrConfig smr;
  smr.f = f;
  smr.replicas = addrs;
  smr.heartbeat_interval = kSmrHeartbeat;
  smr.progress_timeout = kSmrProgressTimeout;

  std::vector<osl::Machine*> batch;
  for (std::uint32_t i = 0; i < n; ++i) {
    auto machine = std::make_unique<osl::Machine>(
        network_, osl::MachineConfig{addrs[i], plan.keyspace});
    smr.index = i;
    auto replica = std::make_unique<replication::SmrReplica>(
        sim_, network_, registry_, factory(i), smr);
    machine->set_application(replica.get());
    watch(*machine);
    configure_machine_service(*machine, plan.service,
                              1 + static_cast<std::uint64_t>(i));
    batch.push_back(machine.get());
    machines_.push_back(std::move(machine));
    replicas_.push_back(std::move(replica));
  }
  // Distinct keys, staggered reboot batches (Roeder-Schneider).
  scheduler_.add_staggered_batch(batch);

  directory_.replication = ReplicationType::StateMachine;
  directory_.f = f;
  directory_.server_addrs = addrs;
  directory_.server_principals = addrs;
  nameserver_ = std::make_unique<NameServer>(network_, registry_, directory_);
}

void LiveS0::start() {
  scheduler_.boot_all();
  for (auto& r : replicas_) r->start();
  scheduler_.start();
}

int LiveS0::currently_compromised() const {
  int count = 0;
  for (const auto& m : machines_) {
    if (m->compromised()) ++count;
  }
  return count;
}

bool LiveS0::compromise_rule() const {
  // Definition 1: compromised as soon as more than one node is compromised.
  return currently_compromised() >= 2;
}

void LiveS0::reset_components(const net::ScenarioPlan& plan) {
  reset_tier(machines_, plan, 1);
  for (auto& r : replicas_) r->reset();
}

std::vector<const osl::Machine*> LiveS0::service_machines() const {
  std::vector<const osl::Machine*> out;
  for (const auto& m : machines_) out.push_back(m.get());
  return out;
}

std::vector<osl::Machine*> LiveS0::direct_attack_surface() {
  std::vector<osl::Machine*> out;
  for (const auto& m : machines_) out.push_back(m.get());
  return out;
}

osl::Machine* LiveS0::fault_target(net::FaultEvent::Target tier, int index) {
  if (tier != net::FaultEvent::Target::Server) return nullptr;
  return machine_at(machines_, index);
}

// --- LiveS2 -----------------------------------------------------------------

LiveS2::LiveS2(sim::Simulator& sim, const net::ScenarioPlan& plan,
               std::uint64_t seed, ServiceFactory factory)
    : LiveSystem(sim, plan, seed),
      server_addrs_(tier_addresses(kS2Prefix, "server", plan.n_servers)) {
  FORTRESS_EXPECTS(factory != nullptr);
  FORTRESS_EXPECTS(plan.n_servers >= 1 && plan.n_proxies >= 1);
  const std::vector<net::Address> proxy_addrs =
      tier_addresses(kS2Prefix, "proxy", plan.n_proxies);

  replication::PbConfig pb;
  pb.replicas = server_addrs_;
  pb.heartbeat_interval = kPbHeartbeat;
  pb.failover_timeout = kPbFailoverTimeout;

  std::vector<osl::Machine*> server_group;
  for (int i = 0; i < plan.n_servers; ++i) {
    auto machine = std::make_unique<osl::Machine>(
        network_,
        osl::MachineConfig{server_addrs_[static_cast<std::size_t>(i)],
                           plan.keyspace});
    pb.index = static_cast<std::uint32_t>(i);
    auto replica = std::make_unique<replication::PbReplica>(
        sim_, network_, registry_, factory(static_cast<std::uint32_t>(i)),
        pb);
    machine->set_application(replica.get());
    watch(*machine);
    configure_machine_service(*machine, plan.service,
                              1 + static_cast<std::uint64_t>(i));
    server_group.push_back(machine.get());
    server_machines_.push_back(std::move(machine));
    replicas_.push_back(std::move(replica));
  }
  scheduler_.add_shared_group(server_group);

  proxy::ProxyConfig pxy;
  pxy.servers = server_addrs_;
  pxy.blacklist_enabled = plan.proxy_blacklist;
  pxy.detection = detection_config(plan);
  for (int i = 0; i < plan.n_proxies; ++i) {
    pxy.address = proxy_addrs[static_cast<std::size_t>(i)];
    osl::MachineConfig mc{pxy.address, plan.keyspace};
    mc.processes_request_payloads = false;  // proxies do no processing (§3)
    auto machine = std::make_unique<osl::Machine>(network_, mc);
    auto node = std::make_unique<proxy::ProxyNode>(sim_, network_, registry_,
                                                   pxy);
    machine->set_application(node.get());
    watch(*machine);
    configure_machine_service(*machine, plan.service,
                              0x1000 + static_cast<std::uint64_t>(i));
    scheduler_.add_machine(*machine);  // individually distinct proxy keys
    proxy_machines_.push_back(std::move(machine));
    proxies_.push_back(std::move(node));
  }

  // Clients learn proxies' addresses and servers' principal names (indices)
  // — NOT server addresses (§3).
  directory_.replication = ReplicationType::PrimaryBackup;
  directory_.f = 0;
  directory_.proxies = proxy_addrs;
  directory_.server_principals = server_addrs_;
  nameserver_ = std::make_unique<NameServer>(network_, registry_, directory_);
}

void LiveS2::start() {
  scheduler_.boot_all();
  for (auto& r : replicas_) r->start();
  for (auto& p : proxies_) p->start();
  scheduler_.start();
}

int LiveS2::currently_compromised_proxies() const {
  int count = 0;
  for (const auto& m : proxy_machines_) {
    if (m->compromised()) ++count;
  }
  return count;
}

bool LiveS2::compromise_rule() const {
  for (const auto& m : server_machines_) {
    if (m->compromised()) return true;
  }
  return currently_compromised_proxies() ==
         static_cast<int>(proxy_machines_.size());
}

void LiveS2::reset_components(const net::ScenarioPlan& plan) {
  reset_tier(server_machines_, plan, 1);
  for (auto& r : replicas_) r->reset();
  reset_tier(proxy_machines_, plan, 0x1000);
  const proxy::DetectionConfig detection = detection_config(plan);
  for (auto& p : proxies_) p->reset(plan.proxy_blacklist, detection);
}

std::vector<const osl::Machine*> LiveS2::service_machines() const {
  std::vector<const osl::Machine*> out;
  for (const auto& m : server_machines_) out.push_back(m.get());
  for (const auto& m : proxy_machines_) out.push_back(m.get());
  return out;
}

std::vector<osl::Machine*> LiveS2::direct_attack_surface() {
  std::vector<osl::Machine*> out;
  for (const auto& m : proxy_machines_) out.push_back(m.get());
  return out;
}

std::vector<osl::Machine*> LiveS2::launchpad_machines() {
  return direct_attack_surface();
}

std::vector<net::Address> LiveS2::hidden_server_addresses() const {
  return server_addrs_;
}

osl::Machine* LiveS2::fault_target(net::FaultEvent::Target tier, int index) {
  return machine_at(tier == net::FaultEvent::Target::Server ? server_machines_
                                                            : proxy_machines_,
                    index);
}

std::uint64_t LiveS2::blacklisted_sources() const {
  std::uint64_t total = 0;
  for (const auto& p : proxies_) total += p->blacklist_size();
  return total;
}

std::unique_ptr<LiveSystem> make_live_system(sim::Simulator& sim,
                                             model::SystemKind kind,
                                             const net::ScenarioPlan& plan,
                                             std::uint64_t seed) {
  const auto kv = [](std::uint32_t) {
    return std::make_unique<replication::KvService>();
  };
  switch (kind) {
    case model::SystemKind::S0:
      return std::make_unique<LiveS0>(sim, plan, seed, kv);
    case model::SystemKind::S1:
      return std::make_unique<LiveS1>(sim, plan, seed, kv);
    case model::SystemKind::S2:
      return std::make_unique<LiveS2>(sim, plan, seed, kv);
  }
  FORTRESS_CHECK(false);
  return nullptr;
}

}  // namespace fortress::core
