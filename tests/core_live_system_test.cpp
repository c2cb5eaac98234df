// End-to-end tests of the assembled live deployments: request round-trips
// through every system class, failover, obfuscation clocking and the
// class-specific compromise predicates.
#include "core/live_system.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "osl/probe.hpp"
#include "replication/service.hpp"
#include "scheduler_test.hpp"

namespace fortress::core {
namespace {

constexpr std::uint64_t kSeed = 42;

/// Proxy detection is on (blacklisting at threshold 5), as these tests
/// expect; ScenarioPlan's own defaults leave it off.
net::ScenarioPlan test_config(osl::ObfuscationPolicy policy) {
  net::ScenarioPlan cfg;
  cfg.keyspace = 1 << 10;
  cfg.rerandomize = policy == osl::ObfuscationPolicy::Rerandomize;
  cfg.step_duration = 200.0;
  cfg.latency = net::LatencySpec::uniform(0.1, 0.3);
  cfg.proxy_blacklist = true;
  cfg.detection_threshold = 5;
  return cfg;
}

ServiceFactory kv_factory() {
  return [](std::uint32_t) { return std::make_unique<replication::KvService>(); };
}

DeterministicServiceFactory det_kv_factory() {
  return [](std::uint32_t) { return std::make_unique<replication::KvService>(); };
}

std::vector<std::string> collect_responses(sim::Simulator& sim, Client& client,
                                           const std::vector<std::string>& cmds,
                                           sim::Time budget_per_cmd = 60.0) {
  std::vector<std::string> out;
  for (const std::string& cmd : cmds) {
    bool done = false;
    client.submit(bytes_of(cmd), [&](std::uint64_t, const Bytes& resp) {
      out.push_back(string_of(resp));
      done = true;
    });
    sim::Time deadline = sim.now() + budget_per_cmd;
    while (!done && sim.now() < deadline) {
      sim.run_until(sim.now() + 1.0);
    }
    if (!done) out.push_back("<timeout>");
  }
  return out;
}

SCHEDULER_TEST(LiveS1Test, EndToEndRequests) {
  sim::Simulator sim(scheduler);
  LiveS1 system(sim, test_config(osl::ObfuscationPolicy::Rerandomize), kSeed,
                kv_factory());
  system.start();
  Client client(sim, system.network(), system.registry(), system.directory(),
                ClientConfig{"client"});
  auto replies = collect_responses(
      sim, client, {"PUT a 1", "GET a", "DEL a", "GET a"});
  EXPECT_EQ(replies,
            (std::vector<std::string>{"OK", "VALUE 1", "OK", "NOTFOUND"}));
  EXPECT_EQ(client.stats().completed, 4u);
}

SCHEDULER_TEST(LiveS1Test, SurvivesObfuscationBoundaries) {
  sim::Simulator sim(scheduler);
  net::ScenarioPlan cfg = test_config(osl::ObfuscationPolicy::Rerandomize);
  cfg.step_duration = 50.0;  // several reboots during the workload
  LiveS1 system(sim, cfg, kSeed, kv_factory());
  system.start();
  Client client(sim, system.network(), system.registry(), system.directory(),
                ClientConfig{"client"});
  auto before = collect_responses(sim, client, {"PUT a 1", "PUT b 2"}, 120.0);
  EXPECT_EQ(before, (std::vector<std::string>{"OK", "OK"}));
  // Cross several re-randomization boundaries, then read the state back.
  sim.run_until(sim.now() + 3.5 * cfg.step_duration);
  EXPECT_GE(system.steps_completed(), 3u);
  auto after = collect_responses(sim, client, {"GET a", "GET b"}, 120.0);
  EXPECT_EQ(after, (std::vector<std::string>{"VALUE 1", "VALUE 2"}));
}

SCHEDULER_TEST(LiveS1Test, CompromisePredicateIsAnyServer) {
  sim::Simulator sim(scheduler);
  LiveS1 system(sim, test_config(osl::ObfuscationPolicy::Rerandomize), kSeed,
                kv_factory());
  system.start();
  EXPECT_FALSE(system.failed());
  // Inject a correct probe at one backup.
  class Probe : public net::Handler {
   public:
    void on_message(const net::Envelope&) override {}
  } attacker;
  const net::HostId attacker_id =
      system.network().attach("attacker", attacker);
  system.network().send(attacker_id, system.server_machine(2).id(),
                        osl::encode_probe(system.server_machine(2).key()));
  sim.run_until(sim.now() + 5.0);
  EXPECT_TRUE(system.failed());
  ASSERT_TRUE(system.failure_step().has_value());
  EXPECT_EQ(*system.failure_step(), 0u);
}

SCHEDULER_TEST(LiveS0Test, EndToEndRequestsWithVoting) {
  sim::Simulator sim(scheduler);
  LiveS0 system(sim, test_config(osl::ObfuscationPolicy::Rerandomize), kSeed,
                det_kv_factory());
  system.start();
  Client client(sim, system.network(), system.registry(), system.directory(),
                ClientConfig{"client"});
  auto replies = collect_responses(sim, client, {"PUT a 1", "GET a"}, 120.0);
  EXPECT_EQ(replies, (std::vector<std::string>{"OK", "VALUE 1"}));
}

SCHEDULER_TEST(LiveS0Test, CompromiseNeedsTwoReplicas) {
  sim::Simulator sim(scheduler);
  LiveS0 system(sim, test_config(osl::ObfuscationPolicy::Rerandomize), kSeed,
                det_kv_factory());
  system.start();
  class Probe : public net::Handler {
   public:
    void on_message(const net::Envelope&) override {}
  } attacker;
  const net::HostId attacker_id =
      system.network().attach("attacker", attacker);

  system.network().send(attacker_id, system.server_machine(1).id(),
                        osl::encode_probe(system.server_machine(1).key()));
  sim.run_until(sim.now() + 5.0);
  EXPECT_EQ(system.currently_compromised(), 1);
  EXPECT_FALSE(system.failed());  // Definition 1: needs MORE than one

  system.network().send(attacker_id, system.server_machine(3).id(),
                        osl::encode_probe(system.server_machine(3).key()));
  sim.run_until(sim.now() + 5.0);
  EXPECT_TRUE(system.failed());
}

SCHEDULER_TEST(LiveS0Test, StaggeredRecoveryKeepsServiceAvailable) {
  sim::Simulator sim(scheduler);
  net::ScenarioPlan cfg = test_config(osl::ObfuscationPolicy::Rerandomize);
  cfg.step_duration = 100.0;
  LiveS0 system(sim, cfg, kSeed, det_kv_factory());
  system.start();
  Client client(sim, system.network(), system.registry(), system.directory(),
                ClientConfig{"client"});
  // Spread requests across several obfuscation steps; the staggered batches
  // mean at most one replica is mid-state-transfer at a time.
  std::vector<std::string> replies;
  for (int i = 0; i < 6; ++i) {
    auto r = collect_responses(
        sim, client, {"PUT k" + std::to_string(i) + " v"}, 150.0);
    replies.push_back(r[0]);
    sim.run_until(sim.now() + 0.7 * cfg.step_duration);
  }
  for (const auto& r : replies) EXPECT_EQ(r, "OK");
  EXPECT_GE(system.steps_completed(), 3u);
}

SCHEDULER_TEST(LiveS2Test, EndToEndThroughProxies) {
  sim::Simulator sim(scheduler);
  LiveS2 system(sim, test_config(osl::ObfuscationPolicy::Rerandomize), kSeed,
                kv_factory());
  system.start();
  sim.run_until(5.0);  // proxies dial the servers
  Client client(sim, system.network(), system.registry(), system.directory(),
                ClientConfig{"client"});
  auto replies = collect_responses(sim, client, {"PUT a 1", "GET a"});
  EXPECT_EQ(replies, (std::vector<std::string>{"OK", "VALUE 1"}));
}

SCHEDULER_TEST(LiveS2Test, DirectoryHidesServerAddresses) {
  sim::Simulator sim(scheduler);
  LiveS2 system(sim, test_config(osl::ObfuscationPolicy::Rerandomize), kSeed,
                kv_factory());
  EXPECT_TRUE(system.directory().fortified());
  EXPECT_TRUE(system.directory().server_addrs.empty());
  EXPECT_EQ(system.directory().proxies.size(), 3u);
  EXPECT_EQ(system.directory().server_principals.size(), 3u);
}

SCHEDULER_TEST(LiveS2Test, CompromisePredicateServerOrAllProxies) {
  sim::Simulator sim(scheduler);
  LiveS2 system(sim, test_config(osl::ObfuscationPolicy::Rerandomize), kSeed,
                kv_factory());
  system.start();
  class Probe : public net::Handler {
   public:
    void on_message(const net::Envelope&) override {}
  } attacker;
  const net::HostId attacker_id =
      system.network().attach("attacker", attacker);

  // Two of three proxies: not compromised yet.
  for (int i = 0; i < 2; ++i) {
    system.network().send(attacker_id, system.proxy_machine(i).id(),
                          osl::encode_probe(system.proxy_machine(i).key()));
  }
  sim.run_until(sim.now() + 5.0);
  EXPECT_EQ(system.currently_compromised_proxies(), 2);
  EXPECT_FALSE(system.failed());

  // Third proxy: all proxies fallen -> system compromised.
  system.network().send(attacker_id, system.proxy_machine(2).id(),
                        osl::encode_probe(system.proxy_machine(2).key()));
  sim.run_until(sim.now() + 5.0);
  EXPECT_TRUE(system.failed());
}

SCHEDULER_TEST(LiveS2Test, ServerCompromiseAloneFailsSystem) {
  sim::Simulator sim(scheduler);
  LiveS2 system(sim, test_config(osl::ObfuscationPolicy::Rerandomize), kSeed,
                kv_factory());
  system.start();
  class Probe : public net::Handler {
   public:
    void on_message(const net::Envelope&) override {}
  } attacker;
  const net::HostId attacker_id =
      system.network().attach("attacker", attacker);
  system.network().send(attacker_id, system.server_machine(0).id(),
                        osl::encode_probe(system.server_machine(0).key()));
  sim.run_until(sim.now() + 5.0);
  EXPECT_TRUE(system.failed());
}

SCHEDULER_TEST(LiveS2Test, ProxyCompromiseCleansedByRerandomization) {
  sim::Simulator sim(scheduler);
  net::ScenarioPlan cfg = test_config(osl::ObfuscationPolicy::Rerandomize);
  cfg.step_duration = 50.0;
  LiveS2 system(sim, cfg, kSeed, kv_factory());
  system.start();
  class Probe : public net::Handler {
   public:
    void on_message(const net::Envelope&) override {}
  } attacker;
  const net::HostId attacker_id =
      system.network().attach("attacker", attacker);
  system.network().send(attacker_id, system.proxy_machine(0).id(),
                        osl::encode_probe(system.proxy_machine(0).key()));
  sim.run_until(sim.now() + 5.0);
  ASSERT_TRUE(system.proxy_machine(0).compromised());
  sim.run_until(60.0);  // past the step boundary
  EXPECT_FALSE(system.proxy_machine(0).compromised());
  EXPECT_FALSE(system.failed());
}

SCHEDULER_TEST(LiveS2Test, SharedServerKeyDistinctProxyKeys) {
  sim::Simulator sim(scheduler);
  LiveS2 system(sim, test_config(osl::ObfuscationPolicy::Rerandomize), kSeed,
                kv_factory());
  system.start();
  EXPECT_EQ(system.server_machine(0).key(), system.server_machine(1).key());
  EXPECT_EQ(system.server_machine(1).key(), system.server_machine(2).key());
  std::set<osl::RandKey> keys;
  for (int i = 0; i < 3; ++i) keys.insert(system.proxy_machine(i).key());
  keys.insert(system.server_machine(0).key());
  EXPECT_EQ(keys.size(), 4u);  // np + 1 distinct keys (§3)
}

// §3: what each class tells its clients. A client of the fortified system
// learns the proxies and the server principals, never the server addresses;
// a client of a 1-tier system learns the server addresses, which are also
// the server principals. All three classes are built from one plan.
SCHEDULER_TEST(LiveSystemTest, DirectoryTellsClientsOnlyWhatTheirClassAllows) {
  net::ScenarioPlan plan = test_config(osl::ObfuscationPolicy::Rerandomize);
  plan.n_servers = 5;  // S0 deploys the smallest 3f+1 >= 5: f = 2, 7 replicas
  auto machine_addresses = [](LiveSystem& system) {
    std::vector<net::Address> out;
    for (int i = 0; i < system.n_servers(); ++i) {
      out.push_back(system.server_machine(i).address());
    }
    return out;
  };

  sim::Simulator sim2(scheduler);
  LiveS2 s2(sim2, plan, kSeed, kv_factory());
  const Directory& d2 = s2.directory();
  std::vector<net::Address> proxy_addrs;
  for (int i = 0; i < s2.n_proxies(); ++i) {
    proxy_addrs.push_back(s2.proxy_machine(i).address());
  }
  EXPECT_EQ(proxy_addrs.size(), 3u);
  EXPECT_EQ(d2.proxies, proxy_addrs);
  EXPECT_EQ(d2.server_principals, s2.server_addresses());
  EXPECT_EQ(d2.server_principals, machine_addresses(s2));
  EXPECT_TRUE(d2.server_addrs.empty());
  EXPECT_EQ(d2.replication, ReplicationType::PrimaryBackup);
  EXPECT_TRUE(d2.fortified());

  sim::Simulator sim1(scheduler);
  LiveS1 s1(sim1, plan, kSeed, kv_factory());
  const Directory& d1 = s1.directory();
  EXPECT_EQ(d1.server_addrs, d1.server_principals);
  EXPECT_EQ(d1.server_addrs, machine_addresses(s1));
  EXPECT_EQ(d1.server_addrs.size(), 5u);
  EXPECT_TRUE(d1.proxies.empty());
  EXPECT_EQ(d1.replication, ReplicationType::PrimaryBackup);
  EXPECT_FALSE(d1.fortified());

  sim::Simulator sim0(scheduler);
  LiveS0 s0(sim0, plan, kSeed, det_kv_factory());
  const Directory& d0 = s0.directory();
  EXPECT_EQ(d0.replication, ReplicationType::StateMachine);
  EXPECT_EQ(d0.f, 2u);
  EXPECT_EQ(s0.n_servers(), static_cast<int>(3 * d0.f + 1));
  EXPECT_EQ(d0.server_principals, machine_addresses(s0));
  EXPECT_EQ(d0.server_addrs, d0.server_principals);
  EXPECT_TRUE(d0.proxies.empty());
}

}  // namespace
}  // namespace fortress::core
