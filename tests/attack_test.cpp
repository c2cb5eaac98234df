// Live de-randomization attack tests: the attacker actually breaks the
// simulated systems through the mechanisms the paper describes, and the
// defences behave as §2/§3 argue.
#include "attack/derand_attacker.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/live_system.hpp"
#include "osl/probe.hpp"
#include "replication/message.hpp"
#include "replication/service.hpp"

namespace fortress::attack {
namespace {

constexpr std::uint64_t kSeed = 7;

/// Proxy detection is on (blacklisting at threshold 5), as these tests
/// expect; ScenarioPlan's own defaults leave it off.
net::ScenarioPlan live_config(osl::ObfuscationPolicy policy,
                              std::uint64_t chi = 64) {
  net::ScenarioPlan cfg;
  cfg.keyspace = chi;  // tiny keyspace so attacks land within test budget
  cfg.rerandomize = policy == osl::ObfuscationPolicy::Rerandomize;
  cfg.step_duration = 100.0;
  cfg.latency = net::LatencySpec::uniform(0.05, 0.1);
  cfg.proxy_blacklist = true;
  cfg.detection_threshold = 5;
  return cfg;
}

AttackerConfig attacker_config(std::uint64_t chi, double omega,
                               double kappa_omega) {
  AttackerConfig cfg;
  cfg.keyspace = chi;
  cfg.step_duration = 100.0;
  cfg.probes_per_step = omega;
  cfg.indirect_probes_per_step = kappa_omega;
  cfg.seed = 5;
  return cfg;
}

core::ServiceFactory kv_factory() {
  return [](std::uint32_t) { return std::make_unique<replication::KvService>(); };
}

TEST(AttackTest, DirectAttackBreaksS1UnderRecovery) {
  // SO: keys never change, so a full sweep of chi=64 candidates at 16
  // probes/step must compromise S1 within ~4-5 steps.
  sim::Simulator sim;
  auto cfg = live_config(osl::ObfuscationPolicy::Recover);
  core::LiveS1 system(sim, cfg, kSeed, kv_factory());
  system.start();

  DerandAttacker attacker(sim, system.network(),
                          attacker_config(cfg.keyspace, 16.0, 0.0));
  for (int i = 0; i < system.n_servers(); ++i) {
    attacker.add_direct_target(system.server_machine(i));
  }
  attacker.start();
  sim.run_until(100.0 * 30);

  EXPECT_TRUE(system.failed());
  ASSERT_TRUE(system.failure_step().has_value());
  EXPECT_LE(*system.failure_step(), 6u);
  EXPECT_GT(attacker.stats().crashes_caused, 0u);
  EXPECT_GT(attacker.stats().compromises, 0u);
}

TEST(AttackTest, AttackerObservesCrashesThroughItsConnection) {
  sim::Simulator sim;
  auto cfg = live_config(osl::ObfuscationPolicy::Recover);
  core::LiveS1 system(sim, cfg, kSeed, kv_factory());
  system.start();
  DerandAttacker attacker(sim, system.network(),
                          attacker_config(cfg.keyspace, 8.0, 0.0));
  attacker.add_direct_target(system.server_machine(0));
  attacker.start();
  sim.run_until(500.0);
  // Every wrong probe produced an observable crash (the [Shacham04] loop).
  EXPECT_GT(attacker.stats().crashes_caused, 10u);
}

TEST(AttackTest, RecoveryDoesNotEvictAttackerKnowledge) {
  // Once the key is learned under SO, each recovery is followed by instant
  // re-compromise using the remembered key.
  sim::Simulator sim;
  auto cfg = live_config(osl::ObfuscationPolicy::Recover);
  cfg.step_duration = 50.0;
  core::LiveS1 system(sim, cfg, kSeed, kv_factory());
  system.start();
  AttackerConfig acfg = attacker_config(cfg.keyspace, 16.0, 0.0);
  acfg.step_duration = 50.0;
  DerandAttacker attacker(sim, system.network(), acfg);
  attacker.add_direct_target(system.server_machine(0));
  attacker.start();
  sim.run_until(3000.0);
  ASSERT_TRUE(system.failed());
  // times_compromised climbs as recovery keeps resurrecting a known-key
  // machine.
  EXPECT_GE(system.server_machine(0).times_compromised(), 3u);
  EXPECT_EQ(attacker.stats().keys_learned, 1u);
}

TEST(AttackTest, RerandomizationResetsTheSearch) {
  // PO with a large keyspace: the same attacker strength that breaks SO in
  // a few steps makes essentially no progress, because each boundary
  // invalidates eliminated candidates.
  sim::Simulator sim;
  auto so_cfg = live_config(osl::ObfuscationPolicy::Recover, 1 << 10);
  core::LiveS1 so_system(sim, so_cfg, kSeed, kv_factory());
  so_system.start();
  DerandAttacker so_attacker(sim, so_system.network(),
                             attacker_config(so_cfg.keyspace, 64.0, 0.0));
  for (int i = 0; i < so_system.n_servers(); ++i) {
    so_attacker.add_direct_target(so_system.server_machine(i));
  }
  so_attacker.start();
  sim.run_until(100.0 * 40);
  EXPECT_TRUE(so_system.failed());  // 1024/64 = 16 steps to sweep

  sim::Simulator sim2;
  auto po_cfg = live_config(osl::ObfuscationPolicy::Rerandomize, 1 << 10);
  core::LiveS1 po_system(sim2, po_cfg, kSeed, kv_factory());
  po_system.start();
  DerandAttacker po_attacker(sim2, po_system.network(),
                             attacker_config(po_cfg.keyspace, 8.0, 0.0));
  for (int i = 0; i < po_system.n_servers(); ++i) {
    po_attacker.add_direct_target(po_system.server_machine(i));
  }
  po_attacker.start();
  sim2.run_until(100.0 * 40);
  // Per-step success ~ 8/1024; 40 steps: P(fail) ~ 27%. Seeded: expect
  // survival (verified for this seed).
  EXPECT_FALSE(po_system.failed());
}

/// Records every payload delivered to one address.
class CapturingHost : public net::Handler {
 public:
  CapturingHost(net::Network& net, const net::Address& addr)
      : net_(net), id_(net.attach(addr, *this)) {}
  ~CapturingHost() override { net_.detach(id_); }
  void on_message(const net::Envelope& env) override {
    payloads.emplace_back(env.payload.begin(), env.payload.end());
  }
  std::vector<Bytes> payloads;

 private:
  net::Network& net_;
  net::HostId id_;
};

TEST(AttackTest, IndirectProbeWireMatchesMessageEncoder) {
  // tick_indirect encodes through MessageCore: each crafted request must be
  // byte-identical to the Message the attacker used to build — a Request
  // from the presented identity, answered to it, carrying the probe.
  sim::Simulator sim;
  net::Network net(sim, {.latency = net::LatencySpec::fixed(0.5)});
  CapturingHost proxy(net, "proxy-0");
  DerandAttacker attacker(sim, net, attacker_config(64, 1.0, 8.0));
  attacker.set_indirect_channel({"proxy-0"});
  attacker.start();
  sim.run_until(250.0);
  attacker.stop();

  ASSERT_GE(proxy.payloads.size(), 16u);
  std::uint64_t last_seq = 0;
  for (const Bytes& wire : proxy.payloads) {
    auto view = replication::MessageView::decode(wire);
    ASSERT_TRUE(view.has_value());
    const auto guess = osl::decode_probe(view->payload());
    ASSERT_TRUE(guess.has_value());
    replication::Message msg;
    msg.type = replication::MsgType::Request;
    msg.request_id = replication::RequestId{
        std::string(view->request_client()), view->request_seq()};
    msg.requester = msg.request_id.client;
    msg.payload = osl::encode_probe(*guess);
    EXPECT_EQ(wire, msg.encode());
    EXPECT_GT(view->request_seq(), last_seq);  // fresh request ids
    last_seq = view->request_seq();
  }
}

TEST(AttackTest, IndirectProbesCrashServersWithoutAttackerFeedback) {
  sim::Simulator sim;
  auto cfg = live_config(osl::ObfuscationPolicy::Recover, 1 << 10);
  cfg.proxy_blacklist = false;  // observe raw crash plumbing
  core::LiveS2 system(sim, cfg, kSeed, kv_factory());
  system.start();
  sim.run_until(5.0);

  AttackerConfig acfg = attacker_config(cfg.keyspace, 4.0, 8.0);
  DerandAttacker attacker(sim, system.network(), acfg);
  attacker.set_indirect_channel(system.directory().proxies);
  attacker.start();
  sim.run_until(2000.0);

  EXPECT_GT(attacker.stats().indirect_probes, 100u);
  // Server children crashed on the embedded exploits...
  std::uint64_t crashes = 0;
  for (int i = 0; i < system.n_servers(); ++i) {
    crashes += system.server_machine(i).child_crashes();
  }
  EXPECT_GT(crashes, 50u);
  // ...but the attacker itself observed zero connection-level crashes.
  EXPECT_EQ(attacker.stats().crashes_caused, 0u);
  // The proxies logged what the attacker could not see.
  std::uint64_t observed = 0;
  for (int i = 0; i < system.n_proxies(); ++i) {
    observed += system.proxy(i).stats().server_crashes_observed;
  }
  EXPECT_GT(observed, 0u);
}

TEST(AttackTest, BlacklistingShutsDownIndirectChannel) {
  sim::Simulator sim;
  auto cfg = live_config(osl::ObfuscationPolicy::Recover, 1 << 10);
  cfg.proxy_blacklist = true;
  cfg.detection_window = 1000.0;
  cfg.detection_threshold = 4;
  core::LiveS2 system(sim, cfg, kSeed, kv_factory());
  system.start();
  sim.run_until(5.0);

  DerandAttacker attacker(sim, system.network(),
                          attacker_config(cfg.keyspace, 4.0, 16.0));
  attacker.set_indirect_channel(system.directory().proxies);
  attacker.start();
  sim.run_until(5000.0);

  int blacklisting_proxies = 0;
  for (int i = 0; i < system.n_proxies(); ++i) {
    if (system.proxy(i).blacklisted("attacker")) ++blacklisting_proxies;
  }
  EXPECT_EQ(blacklisting_proxies, system.n_proxies());
  // After universal blacklisting the server crash counters stop moving.
  std::uint64_t crashes_at_blacklist = 0;
  for (int i = 0; i < system.n_servers(); ++i) {
    crashes_at_blacklist += system.server_machine(i).child_crashes();
  }
  sim.run_until(8000.0);
  std::uint64_t crashes_later = 0;
  for (int i = 0; i < system.n_servers(); ++i) {
    crashes_later += system.server_machine(i).child_crashes();
  }
  EXPECT_EQ(crashes_later, crashes_at_blacklist);
  EXPECT_FALSE(system.failed());
}

TEST(AttackTest, CompromisedProxyBecomesLaunchpad) {
  sim::Simulator sim;
  auto cfg = live_config(osl::ObfuscationPolicy::Recover, 64);
  core::LiveS2 system(sim, cfg, kSeed, kv_factory());
  system.start();
  sim.run_until(5.0);

  DerandAttacker attacker(sim, system.network(),
                          attacker_config(64, 16.0, 0.0));
  for (int i = 0; i < system.n_proxies(); ++i) {
    attacker.add_direct_target(system.proxy_machine(i));
    attacker.add_launchpad(system.proxy_machine(i),
                           system.server_addresses());
  }
  attacker.start();
  sim.run_until(100.0 * 60);

  // Under SO with chi=64 the proxies fall quickly; the pads then reach the
  // hidden servers and the shared server key falls too.
  EXPECT_TRUE(system.failed());
  bool server_fell = false;
  for (int i = 0; i < system.n_servers(); ++i) {
    if (system.server_machine(i).times_compromised() > 0) server_fell = true;
  }
  EXPECT_TRUE(server_fell || system.currently_compromised_proxies() == 3);
}

TEST(AttackTest, FortressOutlastsUnfortifiedUnderIdenticalAttack) {
  // The headline §1 claim, live: same attacker strength, same keyspace,
  // S2 (kappa < 1 via reduced indirect rate) outlives S1. Compared as
  // means over several seeded trials (individual lifetimes are noisy).
  auto run_s1 = [&](std::uint64_t seed) {
    sim::Simulator sim;
    auto cfg = live_config(osl::ObfuscationPolicy::Rerandomize, 256);
    core::LiveS1 system(sim, cfg, seed, kv_factory());
    system.start();
    AttackerConfig acfg = attacker_config(256, 32.0, 0.0);
    acfg.seed = seed * 31 + 1;
    DerandAttacker attacker(sim, system.network(), acfg);
    for (int i = 0; i < system.n_servers(); ++i) {
      attacker.add_direct_target(system.server_machine(i));
    }
    attacker.start();
    sim.run_until(100.0 * 200);
    return system.failure_step().value_or(200);
  };
  auto run_s2 = [&](std::uint64_t seed) {
    sim::Simulator sim;
    auto cfg = live_config(osl::ObfuscationPolicy::Rerandomize, 256);
    cfg.proxy_blacklist = false;  // isolate the kappa effect
    core::LiveS2 system(sim, cfg, seed, kv_factory());
    system.start();
    sim.run_until(5.0);
    AttackerConfig acfg = attacker_config(256, 32.0, 8.0);  // kappa = 0.25
    acfg.seed = seed * 31 + 1;
    DerandAttacker attacker(sim, system.network(), acfg);
    for (int i = 0; i < system.n_proxies(); ++i) {
      attacker.add_direct_target(system.proxy_machine(i));
      attacker.add_launchpad(system.proxy_machine(i),
                             system.server_addresses());
    }
    attacker.set_indirect_channel(system.directory().proxies);
    attacker.start();
    sim.run_until(100.0 * 200);
    return system.failure_step().value_or(200);
  };

  double s1_total = 0.0, s2_total = 0.0;
  constexpr int kSeeds = 8;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    s1_total += static_cast<double>(run_s1(seed));
    s2_total += static_cast<double>(run_s2(seed));
  }
  EXPECT_GT(s2_total / kSeeds, s1_total / kSeeds);
}

}  // namespace
}  // namespace fortress::attack
