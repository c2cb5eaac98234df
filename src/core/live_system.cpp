#include "core/live_system.hpp"

#include "common/check.hpp"
#include "replication/service.hpp"

namespace fortress::core {

namespace {

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

// Service-model salts: servers take 1 + i and proxies 0x1000 + i, so the
// two tiers' per-machine streams never collide.
constexpr std::uint64_t kServerSalt = 1;
constexpr std::uint64_t kProxySalt = 0x1000;

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
  reset_tier(servers_, plan, kServerSalt);
  for (auto& r : pb_replicas_) r->reset();
  for (auto& r : smr_replicas_) r->reset();
  reset_tier(proxy_machines_, plan, kProxySalt);
  const proxy::DetectionConfig detection = detection_config(plan);
  for (auto& p : proxies_) p->reset(plan.proxy_blacklist, detection);
}

void LiveSystem::start() {
  scheduler_.boot_all();
  for (auto& r : pb_replicas_) r->start();
  for (auto& r : smr_replicas_) r->start();
  for (auto& p : proxies_) p->start();
  scheduler_.start();
}

std::optional<std::uint64_t> LiveSystem::failure_step() const {
  if (!failure_time_) return std::nullopt;
  return static_cast<std::uint64_t>(*failure_time_ / step_duration_);
}

int LiveSystem::count_compromised(const Tier& tier) {
  int count = 0;
  for (const auto& m : tier) {
    if (m->compromised()) ++count;
  }
  return count;
}

bool LiveSystem::compromise_rule() const {
  if (count_compromised(servers_) >= server_threshold_) return true;
  return !proxy_machines_.empty() &&
         count_compromised(proxy_machines_) ==
             static_cast<int>(proxy_machines_.size());
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

template <typename MakeApp>
void LiveSystem::build_tier(Tier& tier, const std::vector<net::Address>& addrs,
                            const net::ScenarioPlan& plan,
                            std::uint64_t first_salt, bool processes_payloads,
                            MakeApp make_app) {
  for (std::uint32_t i = 0; i < addrs.size(); ++i) {
    osl::MachineConfig mc{addrs[i], plan.keyspace};
    mc.processes_request_payloads = processes_payloads;
    auto machine = std::make_unique<osl::Machine>(network_, mc);
    machine->set_application(&make_app(i));
    watch(*machine);
    configure_machine_service(*machine, plan.service, first_salt + i);
    tier.push_back(std::move(machine));
  }
}

void LiveSystem::reset_tier(const Tier& tier, const net::ScenarioPlan& plan,
                            std::uint64_t first_salt) {
  std::uint64_t salt = first_salt;
  for (const auto& m : tier) {
    m->reset(plan.keyspace);
    watch(*m);
    configure_machine_service(*m, plan.service, salt++);
  }
}

std::vector<net::Address> LiveSystem::build_pb_servers(
    const char* prefix, const net::ScenarioPlan& plan,
    const ServiceFactory& factory) {
  FORTRESS_EXPECTS(plan.n_servers >= 1);
  FORTRESS_EXPECTS(factory != nullptr);
  replication::PbConfig pb;
  pb.replicas = tier_addresses(prefix, "server", plan.n_servers);
  build_tier(servers_, pb.replicas, plan, kServerSalt, true,
             [&](std::uint32_t i) -> osl::Application& {
               pb.index = i;
               return *pb_replicas_.emplace_back(
                   std::make_unique<replication::PbReplica>(
                       sim_, network_, registry_, factory(i), pb));
             });
  // One shared key for the whole PB tier (§3).
  std::vector<osl::Machine*> group;
  for (const auto& m : servers_) group.push_back(m.get());
  scheduler_.add_shared_group(std::move(group));
  return std::move(pb.replicas);
}

void LiveSystem::publish(ReplicationType replication, std::uint32_t f,
                         const std::vector<net::Address>& server_addrs,
                         std::vector<net::Address> proxy_addrs) {
  directory_.replication = replication;
  directory_.f = f;
  if (proxy_addrs.empty()) directory_.server_addrs = server_addrs;
  directory_.proxies = std::move(proxy_addrs);
  directory_.server_principals = server_addrs;  // principals == addresses
}

osl::Machine* LiveSystem::fault_target(net::FaultEvent::Target tier,
                                       int index) {
  const Tier& machines =
      tier == net::FaultEvent::Target::Server ? servers_ : proxy_machines_;
  if (index < 0 || static_cast<std::size_t>(index) >= machines.size()) {
    return nullptr;
  }
  return machines[static_cast<std::size_t>(index)].get();
}

std::uint64_t LiveSystem::blacklisted_sources() const {
  std::uint64_t total = 0;
  for (const auto& p : proxies_) total += p->blacklist_size();
  return total;
}

std::vector<const osl::Machine*> LiveSystem::service_machines() const {
  std::vector<const osl::Machine*> out;
  for (const auto& m : servers_) out.push_back(m.get());
  for (const auto& m : proxy_machines_) out.push_back(m.get());
  return out;
}

// --- the three classes -------------------------------------------------------

LiveS1::LiveS1(sim::Simulator& sim, const net::ScenarioPlan& plan,
               std::uint64_t seed, ServiceFactory factory)
    : LiveSystem(sim, plan, seed) {
  const std::vector<net::Address> addrs =
      build_pb_servers(kS1Prefix, plan, factory);
  // The whole tier shares one key (§3), so there is exactly ONE direct
  // channel (Definition 2): probing more machines with the same enumeration
  // would overcount the model's per-channel rate omega. The primary stands
  // in for the tier.
  attack_surface_ = {servers_.front().get()};
  publish(ReplicationType::PrimaryBackup, 0, addrs, {});
}

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
  replication::SmrConfig smr;
  smr.f = f;
  smr.replicas =
      tier_addresses(kS0Prefix, "replica", static_cast<int>(3 * f + 1));
  build_tier(servers_, smr.replicas, plan, kServerSalt, true,
             [&](std::uint32_t i) -> osl::Application& {
               smr.index = i;
               return *smr_replicas_.emplace_back(
                   std::make_unique<replication::SmrReplica>(
                       sim_, network_, registry_, factory(i), smr));
             });
  // Distinct keys, staggered reboot batches (Roeder-Schneider).
  for (const auto& m : servers_) attack_surface_.push_back(m.get());
  scheduler_.add_staggered_batch(attack_surface_);
  // Definition 1: compromised as soon as more than one node is compromised.
  server_threshold_ = 2;
  publish(ReplicationType::StateMachine, f, smr.replicas, {});
}

LiveS2::LiveS2(sim::Simulator& sim, const net::ScenarioPlan& plan,
               std::uint64_t seed, ServiceFactory factory)
    : LiveSystem(sim, plan, seed) {
  FORTRESS_EXPECTS(plan.n_proxies >= 1);
  hidden_servers_ = build_pb_servers(kS2Prefix, plan, factory);

  proxy::ProxyConfig pxy;
  pxy.servers = hidden_servers_;
  pxy.blacklist_enabled = plan.proxy_blacklist;
  pxy.detection = detection_config(plan);
  const std::vector<net::Address> proxy_addrs =
      tier_addresses(kS2Prefix, "proxy", plan.n_proxies);
  // Proxies do no request processing (§3).
  build_tier(proxy_machines_, proxy_addrs, plan, kProxySalt, false,
             [&](std::uint32_t i) -> osl::Application& {
               pxy.address = proxy_addrs[i];
               return *proxies_.emplace_back(std::make_unique<proxy::ProxyNode>(
                   sim_, network_, registry_, pxy));
             });
  // Individually distinct proxy keys; the proxies are both the attack
  // surface and the launch pads against the hidden server tier.
  for (const auto& m : proxy_machines_) {
    scheduler_.add_machine(*m);
    attack_surface_.push_back(m.get());
  }
  launchpads_ = attack_surface_;
  publish(ReplicationType::PrimaryBackup, 0, hidden_servers_, proxy_addrs);
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
