// Tests for the scenario campaign runner: determinism, thread-count
// invariance of aggregated statistics, fault schedule behaviour, and the
// live-vs-analytic cross-validation the campaign machinery exists for.
#include "scenario/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "analysis/markov.hpp"
#include "core/live_system.hpp"
#include "exec/thread_pool.hpp"
#include "replication/service.hpp"
#include "scenario/shard.hpp"

namespace fortress::scenario {
namespace {

net::ScenarioPlan fast_plan(std::uint64_t chi, double omega, double kappa,
                            std::uint64_t horizon) {
  net::ScenarioPlan plan;
  plan.keyspace = chi;
  plan.attack.probes_per_step = omega;
  plan.attack.indirect_fraction = kappa;
  plan.horizon_steps = horizon;
  plan.proxy_blacklist = false;
  plan.latency = net::LatencySpec::uniform(0.01, 0.02);
  return plan;
}

TEST(RunTrialTest, DeterministicInSeed) {
  net::ScenarioPlan plan = fast_plan(64, 8.0, 0.5, 60);
  TrialOutcome a = run_trial(model::SystemKind::S2, plan, 99);
  TrialOutcome b = run_trial(model::SystemKind::S2, plan, 99);
  EXPECT_EQ(a.compromised, b.compromised);
  EXPECT_EQ(a.lifetime_steps, b.lifetime_steps);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.attacker.direct_probes, b.attacker.direct_probes);
  EXPECT_EQ(a.attacker.indirect_probes, b.attacker.indirect_probes);
  EXPECT_EQ(a.attacker.compromises, b.attacker.compromises);
}

TEST(RunTrialTest, SurvivesWithoutAttack) {
  net::ScenarioPlan plan = fast_plan(64, 8.0, 0.5, 10);
  plan.attack.enabled = false;
  TrialOutcome out = run_trial(model::SystemKind::S1, plan, 3);
  EXPECT_FALSE(out.compromised);
  EXPECT_EQ(out.lifetime_steps, plan.horizon_steps);
  EXPECT_EQ(out.attacker.direct_probes, 0u);
  EXPECT_GT(out.events_executed, 0u);
}

TEST(RunTrialTest, FaultsOnMissingTiersAreIgnored) {
  // S1 has no proxy tier, and index 99 is out of range everywhere; the plan
  // must still run cleanly on every class.
  net::ScenarioPlan plan = fast_plan(64, 8.0, 0.5, 10);
  plan.faults.push_back({net::FaultEvent::Target::Proxy, 0, 150.0});
  plan.faults.push_back({net::FaultEvent::Target::Server, 99, 250.0});
  plan.faults.push_back({net::FaultEvent::Target::Server, 0, 350.0});
  for (model::SystemKind kind :
       {model::SystemKind::S0, model::SystemKind::S1, model::SystemKind::S2}) {
    TrialOutcome out = run_trial(kind, plan, 5);
    EXPECT_LE(out.lifetime_steps, plan.horizon_steps);
  }
}

TEST(RunTrialTest, ServerFaultRebootKeepsKey) {
  // A FaultEvent models crash + restart with the current key (proactive
  // recovery, not re-randomization).
  sim::Simulator sim;
  net::ScenarioPlan plan = fast_plan(64, 8.0, 0.5, 10);
  plan.attack.enabled = false;
  auto live = core::make_live_system(sim, model::SystemKind::S1, plan, 11);
  live->start();
  sim.run_until(50.0);
  osl::Machine* target = live->fault_target(net::FaultEvent::Target::Server, 0);
  ASSERT_NE(target, nullptr);
  const osl::RandKey key_before = target->key();
  target->recover();
  EXPECT_EQ(target->key(), key_before);
  EXPECT_EQ(live->fault_target(net::FaultEvent::Target::Server, 99), nullptr);
  EXPECT_EQ(live->fault_target(net::FaultEvent::Target::Proxy, 0), nullptr);
}

TEST(RunTrialTest, IndirectOnlyAttackerSendsNoDirectProbes) {
  // direct_enabled = false models the detection-study adversary: all of its
  // traffic must traverse the proxy tier.
  net::ScenarioPlan plan = fast_plan(64, 8.0, 1.0, 20);
  plan.attack.direct_enabled = false;
  TrialOutcome out = run_trial(model::SystemKind::S2, plan, 17);
  EXPECT_EQ(out.attacker.direct_probes, 0u);
  EXPECT_GT(out.attacker.indirect_probes, 0u);
}

TEST(RunTrialTest, DetectionBlacklistsIndirectOnlyAttacker) {
  // With proxy detection on, the indirect-only attacker's identities must
  // end up blacklisted — the observable evidence detection fired.
  net::ScenarioPlan plan = fast_plan(64, 8.0, 1.0, 20);
  plan.attack.direct_enabled = false;
  plan.proxy_blacklist = true;
  plan.detection_threshold = 5;
  TrialOutcome out = run_trial(model::SystemKind::S2, plan, 17);
  EXPECT_GT(out.blacklisted_sources, 0u);
  // S1 has no detection tier: the hook reports zero.
  plan.name = "s1-no-detection";
  TrialOutcome s1 = run_trial(model::SystemKind::S1, plan, 17);
  EXPECT_EQ(s1.blacklisted_sources, 0u);
}

TEST(TrialSeedTest, NoCollisionsOnDenseGrid) {
  // The old XOR-combine derivation let distinct (cell, trial) pairs feed
  // identical mix states, silently duplicating whole live trials. The
  // chained-absorption derivation must be collision-free across a dense
  // grid far larger than any real campaign's.
  std::set<std::uint64_t> seen;
  constexpr std::uint64_t kCells = 128;
  constexpr std::uint64_t kTrials = 512;
  for (std::uint64_t c = 0; c < kCells; ++c) {
    for (std::uint64_t t = 0; t < kTrials; ++t) {
      seen.insert(trial_seed(42, c, t));
    }
  }
  EXPECT_EQ(seen.size(), kCells * kTrials);
  // The streams must actually depend on the base seed too.
  EXPECT_NE(trial_seed(1, 0, 0), trial_seed(2, 0, 0));
  // Regression shape from the old scheme: pairs constructed so that
  // cell*k ^ trial collides are now distinct.
  constexpr std::uint64_t k = 0x9e3779b97f4a7c15ULL;
  const std::uint64_t a = 3 * k ^ 7;  // (cell 3, trial 7)
  EXPECT_NE(trial_seed(a, 3, 7), trial_seed(a, 0, 0));
}

TEST(RunTrialTest, CrashFaultKeepsMachineDownUntilRecover) {
  // chi = 8 and omega = 16/step: an attacked S1 falls almost immediately —
  // unless its probed server is crashed for the whole run.
  net::ScenarioPlan plan = fast_plan(8, 16.0, 0.0, 30);
  const TrialOutcome up = run_trial(model::SystemKind::S1, plan, 7);
  ASSERT_TRUE(up.compromised);

  // Crash the probed machine (S1's surface is server 0) before the attack
  // starts and never revive it: the attacker's probes find nothing to
  // connect to for the entire horizon.
  net::ScenarioPlan crashed = plan;
  crashed.faults.push_back({net::FaultEvent::Target::Server, 0, 1.0,
                            net::FaultEvent::Kind::Crash});
  const TrialOutcome down = run_trial(model::SystemKind::S1, crashed, 7);
  EXPECT_FALSE(down.compromised);
  EXPECT_EQ(down.lifetime_steps, crashed.horizon_steps);

  // Now schedule the recovery half: the machine comes back up mid-run
  // (with the key it went down with) and the attack resumes and succeeds —
  // the crash/recovery schedule is expressible end to end.
  net::ScenarioPlan revived = crashed;
  revived.faults.push_back({net::FaultEvent::Target::Server, 0, 1200.0,
                            net::FaultEvent::Kind::Recover});
  const TrialOutcome back = run_trial(model::SystemKind::S1, revived, 7);
  EXPECT_TRUE(back.compromised);
  // Compromise can only have happened after the revival at step 12.
  EXPECT_GE(back.lifetime_steps, 12u);
}

TEST(RunTrialTest, CrashEndsAttackerControlAndReviveRedials) {
  // Crash semantics at the machine layer: the process dies, so the
  // attacker's live control dies with it; revive() restarts it with the
  // SAME key and tells the application (a proxy must re-dial its servers,
  // not trust dead connections).
  sim::Simulator sim;
  net::ScenarioPlan plan = fast_plan(64, 8.0, 0.5, 10);
  plan.attack.enabled = false;
  auto live = core::make_live_system(sim, model::SystemKind::S2, plan, 21);
  live->start();
  sim.run_until(50.0);
  osl::Machine* proxy = live->fault_target(net::FaultEvent::Target::Proxy, 0);
  ASSERT_NE(proxy, nullptr);
  const osl::RandKey key = proxy->key();
  proxy->shutdown();
  EXPECT_FALSE(proxy->booted());
  EXPECT_FALSE(proxy->compromised());
  sim.run_until(100.0);
  proxy->revive();
  EXPECT_TRUE(proxy->booted());
  EXPECT_EQ(proxy->key(), key);
  // handle_reboot fired: the proxy re-dials, so by the next quiescent
  // point it has live connections to the server tier again.
  sim.run_until(150.0);
  EXPECT_GT(live->network().open_connections(), 0u);
}

TEST(RunTrialTest, RecoverOnBootedMachineIsOldBehaviour) {
  // A default-kind FaultEvent on a live machine is a crash + restart with
  // the current key — exactly what plans before Kind existed meant.
  net::ScenarioPlan plan = fast_plan(64, 8.0, 0.5, 10);
  plan.attack.enabled = false;
  plan.faults.push_back({net::FaultEvent::Target::Server, 0, 350.0});
  const TrialOutcome out = run_trial(model::SystemKind::S1, plan, 5);
  EXPECT_FALSE(out.compromised);
  EXPECT_EQ(out.lifetime_steps, plan.horizon_steps);
}

TEST(RunTrialTest, FaultAtHorizonBoundaryNeverFires) {
  // The run stops AT the horizon, so a fault scheduled exactly there can
  // never execute: the campaign must not even schedule it. A trial with
  // such a fault is bit-identical to one with no faults at all. (Attack
  // disabled so every run reaches the horizon and the just-inside fault
  // below actually fires.)
  net::ScenarioPlan plan = fast_plan(8, 16.0, 0.0, 30);
  plan.attack.enabled = false;
  net::ScenarioPlan boundary = plan;
  const sim::Time horizon =
      plan.step_duration * static_cast<sim::Time>(plan.horizon_steps);
  boundary.faults.push_back({net::FaultEvent::Target::Server, 0, horizon,
                             net::FaultEvent::Kind::Crash});
  boundary.faults.push_back({net::FaultEvent::Target::Server, 0,
                             horizon + 500.0, net::FaultEvent::Kind::Crash});
  const TrialOutcome a = run_trial(model::SystemKind::S1, plan, 11);
  const TrialOutcome b = run_trial(model::SystemKind::S1, boundary, 11);
  EXPECT_EQ(a.compromised, b.compromised);
  EXPECT_EQ(a.lifetime_steps, b.lifetime_steps);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.attacker.direct_probes, b.attacker.direct_probes);

  // One tick inside the horizon, the same fault IS scheduled (and, here,
  // changes the outcome by taking the probed server down at the end).
  net::ScenarioPlan inside = plan;
  inside.faults.push_back({net::FaultEvent::Target::Server, 0, horizon - 0.5,
                           net::FaultEvent::Kind::Crash});
  const TrialOutcome c = run_trial(model::SystemKind::S1, inside, 11);
  EXPECT_NE(a.events_executed, c.events_executed);
}

TEST(CampaignTest, TopologyHooksPerClass) {
  sim::Simulator sim;
  net::ScenarioPlan plan = fast_plan(64, 8.0, 0.5, 10);
  plan.n_servers = 3;
  plan.n_proxies = 4;

  using Target = net::FaultEvent::Target;

  auto s1 = core::make_live_system(sim, model::SystemKind::S1, plan, 1);
  auto* s1_typed = dynamic_cast<core::LiveS1*>(s1.get());
  ASSERT_NE(s1_typed, nullptr);
  // One shared key across the S1 tier => exactly one direct channel
  // (Definition 2); the primary stands in for the tier.
  ASSERT_EQ(s1->direct_attack_surface().size(), 1u);
  EXPECT_EQ(s1->direct_attack_surface()[0], &s1_typed->server_machine(0));
  EXPECT_TRUE(s1->launchpad_machines().empty());
  EXPECT_TRUE(s1->hidden_server_addresses().empty());
  EXPECT_EQ(s1->blacklisted_sources(), 0u);
  const std::vector<const osl::Machine*> s1_machines = s1->service_machines();
  ASSERT_EQ(s1_machines.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(s1_machines[static_cast<std::size_t>(i)],
              &s1_typed->server_machine(i));
    EXPECT_EQ(s1->fault_target(Target::Server, i),
              &s1_typed->server_machine(i));
  }
  EXPECT_EQ(s1->fault_target(Target::Server, -1), nullptr);
  EXPECT_EQ(s1->fault_target(Target::Server, 3), nullptr);
  EXPECT_EQ(s1->fault_target(Target::Proxy, 0), nullptr);
  EXPECT_EQ(s1->fault_target(Target::Proxy, -1), nullptr);

  sim::Simulator sim2;
  auto s2 = core::make_live_system(sim2, model::SystemKind::S2, plan, 1);
  auto* s2_typed = dynamic_cast<core::LiveS2*>(s2.get());
  ASSERT_NE(s2_typed, nullptr);
  EXPECT_EQ(s2->direct_attack_surface().size(), 4u);  // proxies, not servers
  EXPECT_EQ(s2->launchpad_machines().size(), 4u);
  EXPECT_EQ(s2->hidden_server_addresses().size(), 3u);
  EXPECT_EQ(s2->fault_target(Target::Proxy, 3), &s2_typed->proxy_machine(3));
  EXPECT_EQ(s2->fault_target(Target::Server, 2), &s2_typed->server_machine(2));
  EXPECT_EQ(s2->fault_target(Target::Server, -1), nullptr);
  EXPECT_EQ(s2->fault_target(Target::Server, 3), nullptr);
  EXPECT_EQ(s2->fault_target(Target::Proxy, -1), nullptr);
  EXPECT_EQ(s2->fault_target(Target::Proxy, 4), nullptr);
  // Servers first, then proxies.
  const std::vector<const osl::Machine*> s2_machines = s2->service_machines();
  ASSERT_EQ(s2_machines.size(), 7u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(s2_machines[static_cast<std::size_t>(i)],
              &s2_typed->server_machine(i));
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(s2_machines[static_cast<std::size_t>(3 + i)],
              &s2_typed->proxy_machine(i));
  }

  sim::Simulator sim3;
  auto s0 = core::make_live_system(sim3, model::SystemKind::S0, plan, 1);
  auto* s0_typed = dynamic_cast<core::LiveS0*>(s0.get());
  ASSERT_NE(s0_typed, nullptr);
  EXPECT_EQ(s0->direct_attack_surface().size(), 4u);  // 3f+1 with f=1
  EXPECT_EQ(s0->blacklisted_sources(), 0u);
  const std::vector<const osl::Machine*> s0_machines = s0->service_machines();
  ASSERT_EQ(s0_machines.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(s0_machines[static_cast<std::size_t>(i)],
              &s0_typed->server_machine(i));
  }
  EXPECT_EQ(s0->fault_target(Target::Server, -1), nullptr);
  EXPECT_EQ(s0->fault_target(Target::Server, 4), nullptr);
  EXPECT_EQ(s0->fault_target(Target::Proxy, 0), nullptr);

  // n_servers is a floor for S0: 5 requested deploys the next 3f+1, 7.
  net::ScenarioPlan five = plan;
  five.n_servers = 5;
  sim::Simulator sim4;
  auto s0_five = core::make_live_system(sim4, model::SystemKind::S0, five, 1);
  EXPECT_EQ(s0_five->direct_attack_surface().size(), 7u);
  EXPECT_EQ(s0_five->service_machines().size(), 7u);
  EXPECT_EQ(dynamic_cast<core::LiveS0&>(*s0_five).n_servers(), 7);
}

TEST(CampaignTest, AggregatesBitIdenticalForAnyThreadCount) {
  std::vector<net::ScenarioPlan> plans = {fast_plan(64, 8.0, 0.5, 40),
                                          fast_plan(128, 8.0, 0.25, 40)};
  plans[1].name = "quarter-kappa";
  std::vector<CampaignCell> cells =
      cross({model::SystemKind::S1, model::SystemKind::S2}, plans);

  CampaignConfig cfg;
  cfg.trials_per_cell = 5;
  cfg.base_seed = 31337;

  cfg.threads = 1;
  CampaignResult serial = run_campaign(cells, cfg);
  for (unsigned threads : {3u, 8u}) {
    cfg.threads = threads;
    CampaignResult parallel = run_campaign(cells, cfg);
    ASSERT_EQ(parallel.cells.size(), serial.cells.size());
    EXPECT_EQ(parallel.total_trials, serial.total_trials);
    EXPECT_EQ(parallel.total_events, serial.total_events);
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
      const CellStats& a = serial.cells[i];
      const CellStats& b = parallel.cells[i];
      EXPECT_EQ(a.plan_name, b.plan_name);
      EXPECT_EQ(a.compromised, b.compromised);
      EXPECT_EQ(a.censored, b.censored);
      EXPECT_EQ(a.events_executed, b.events_executed);
      EXPECT_EQ(a.attacker.direct_probes, b.attacker.direct_probes);
      EXPECT_EQ(a.attacker.crashes_caused, b.attacker.crashes_caused);
      EXPECT_EQ(a.attacker.keys_learned, b.attacker.keys_learned);
      // Bit-identical, not just close:
      EXPECT_EQ(a.lifetime.mean(), b.lifetime.mean());
      EXPECT_EQ(a.lifetime.variance(), b.lifetime.variance());
      EXPECT_EQ(a.lifetime_ci.lo, b.lifetime_ci.lo);
      EXPECT_EQ(a.lifetime_ci.hi, b.lifetime_ci.hi);
    }
  }
}

void expect_outcomes_equal(const TrialOutcome& a, const TrialOutcome& b) {
  EXPECT_EQ(a.compromised, b.compromised);
  EXPECT_EQ(a.lifetime_steps, b.lifetime_steps);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.blacklisted_sources, b.blacklisted_sources);
  EXPECT_EQ(a.attacker.direct_probes, b.attacker.direct_probes);
  EXPECT_EQ(a.attacker.indirect_probes, b.attacker.indirect_probes);
  EXPECT_EQ(a.attacker.crashes_caused, b.attacker.crashes_caused);
  EXPECT_EQ(a.attacker.compromises, b.attacker.compromises);
  EXPECT_EQ(a.attacker.keys_learned, b.attacker.keys_learned);
}

TEST(TrialArenaTest, ArenaTrialsMatchFreshTrials) {
  // The whole point of the pooled path: reset-and-reuse must be
  // indistinguishable from reconstruction, trial for trial, across system
  // classes, plan knobs (keyspace, detection, faults) and seeds — including
  // the rebuild paths when the structural shape changes.
  net::ScenarioPlan small = fast_plan(64, 8.0, 0.5, 30);
  net::ScenarioPlan big = fast_plan(128, 8.0, 0.25, 30);
  big.name = "big";
  big.proxy_blacklist = true;
  big.detection_threshold = 5;
  big.faults.push_back({net::FaultEvent::Target::Server, 1, 450.0,
                        net::FaultEvent::Kind::Recover});
  net::ScenarioPlan wide = fast_plan(64, 8.0, 0.5, 20);
  wide.name = "wide";
  wide.n_proxies = 4;
  net::ScenarioPlan indirect_only = fast_plan(64, 8.0, 1.0, 20);
  indirect_only.name = "indirect-only";
  indirect_only.attack.direct_enabled = false;
  indirect_only.attack.sybil_identities = 3;
  net::ScenarioPlan direct_only = fast_plan(64, 8.0, 0.0, 20);
  direct_only.name = "direct-only";  // kappa 0: indirect never wired
  net::ScenarioPlan quiet = fast_plan(64, 8.0, 0.5, 10);
  quiet.name = "quiet";
  quiet.attack.enabled = false;

  struct Case {
    model::SystemKind system;
    const net::ScenarioPlan* plan;
    std::uint64_t seed;
  };
  const Case sequence[] = {
      {model::SystemKind::S2, &small, 11},  // build
      {model::SystemKind::S2, &small, 12},  // reuse, same plan
      {model::SystemKind::S2, &big, 13},    // reuse, different knobs
      {model::SystemKind::S1, &small, 14},  // rebuild: class change
      {model::SystemKind::S1, &big, 15},    // reuse
      {model::SystemKind::S2, &wide, 16},   // rebuild: tier size change
      {model::SystemKind::S0, &small, 17},  // rebuild: SMR quorum
      {model::SystemKind::S0, &small, 18},  // reuse (state transfer etc.)
      {model::SystemKind::S2, &small, 11},  // back to the first shape
      // Attacker-shape transitions on a reused deployment: the pooled
      // attacker must rebuild (direct/sybil changes) or reset without the
      // indirect draw (kappa 0), and survive an attackless trial between.
      {model::SystemKind::S2, &indirect_only, 19},
      {model::SystemKind::S2, &indirect_only, 20},  // attacker reuse
      {model::SystemKind::S2, &direct_only, 21},    // attacker rebuild
      {model::SystemKind::S2, &quiet, 22},          // no attacker at all
      {model::SystemKind::S2, &small, 23},          // attacker rebuild again
      {model::SystemKind::S2, &direct_only, 24},  // reuse, indirect inactive
  };

  TrialArena arena;
  for (const Case& c : sequence) {
    SCOPED_TRACE(testing::Message() << "system " << static_cast<int>(c.system)
                                    << " plan " << c.plan->name << " seed "
                                    << c.seed);
    const TrialOutcome pooled = arena.run(c.system, *c.plan, c.seed);
    const TrialOutcome fresh = run_trial(c.system, *c.plan, c.seed);
    expect_outcomes_equal(pooled, fresh);
  }
}

TEST(CampaignTest, PooledAndFreshStacksBitIdentical) {
  std::vector<net::ScenarioPlan> plans = {fast_plan(64, 8.0, 0.5, 40),
                                          fast_plan(128, 8.0, 0.25, 40)};
  plans[1].name = "quarter-kappa";
  plans[1].proxy_blacklist = true;
  plans[1].detection_threshold = 6;
  std::vector<CampaignCell> cells =
      cross({model::SystemKind::S0, model::SystemKind::S1,
             model::SystemKind::S2},
            plans);

  CampaignConfig cfg;
  cfg.trials_per_cell = 5;
  cfg.base_seed = 99;
  cfg.threads = 3;
  cfg.reuse_trial_stacks = false;
  const CampaignResult fresh = run_campaign(cells, cfg);
  cfg.reuse_trial_stacks = true;
  const CampaignResult pooled = run_campaign(cells, cfg);

  ASSERT_EQ(pooled.cells.size(), fresh.cells.size());
  EXPECT_EQ(pooled.total_trials, fresh.total_trials);
  EXPECT_EQ(pooled.total_events, fresh.total_events);
  for (std::size_t i = 0; i < fresh.cells.size(); ++i) {
    const CellStats& a = fresh.cells[i];
    const CellStats& b = pooled.cells[i];
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.compromised, b.compromised);
    EXPECT_EQ(a.censored, b.censored);
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_EQ(a.blacklisted_sources, b.blacklisted_sources);
    EXPECT_EQ(a.attacker.direct_probes, b.attacker.direct_probes);
    EXPECT_EQ(a.lifetime.mean(), b.lifetime.mean());
    EXPECT_EQ(a.lifetime.variance(), b.lifetime.variance());
  }
}

TEST(AdaptiveCampaignTest, AggregatesBitIdenticalForAnyThreadCount) {
  // The tentpole determinism contract: for fixed (base_seed, config) the
  // executed (cell, trial) seed set — and so every aggregate AND the
  // per-cell trial counts the stopping rule produced — is identical at 1,
  // 2 and 8 threads.
  std::vector<net::ScenarioPlan> plans = {fast_plan(64, 8.0, 0.5, 40),
                                          fast_plan(128, 8.0, 0.25, 60)};
  plans[1].name = "quarter-kappa";
  std::vector<CampaignCell> cells =
      cross({model::SystemKind::S1, model::SystemKind::S2}, plans);

  CampaignConfig cfg;
  cfg.base_seed = 31337;
  cfg.adaptive.enabled = true;
  cfg.adaptive.round_trials = 4;
  cfg.adaptive.target_rel_ci = 0.15;
  cfg.adaptive.max_trials_per_cell = 24;

  cfg.threads = 1;
  const CampaignResult serial = run_campaign(cells, cfg);
  for (unsigned threads : {2u, 8u}) {
    cfg.threads = threads;
    const CampaignResult parallel = run_campaign(cells, cfg);
    ASSERT_EQ(parallel.cells.size(), serial.cells.size());
    EXPECT_EQ(parallel.total_trials, serial.total_trials);
    EXPECT_EQ(parallel.total_events, serial.total_events);
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
      const CellStats& a = serial.cells[i];
      const CellStats& b = parallel.cells[i];
      EXPECT_EQ(a.trials, b.trials) << "cell " << i << " @" << threads;
      EXPECT_EQ(a.rounds, b.rounds);
      EXPECT_EQ(a.compromised, b.compromised);
      EXPECT_EQ(a.censored, b.censored);
      EXPECT_EQ(a.events_executed, b.events_executed);
      EXPECT_EQ(a.attacker.direct_probes, b.attacker.direct_probes);
      EXPECT_EQ(a.attacker.keys_learned, b.attacker.keys_learned);
      // Bit-identical, not just close:
      EXPECT_EQ(a.lifetime.mean(), b.lifetime.mean());
      EXPECT_EQ(a.lifetime.variance(), b.lifetime.variance());
      EXPECT_EQ(a.lifetime_ci.lo, b.lifetime_ci.lo);
      EXPECT_EQ(a.lifetime_ci.hi, b.lifetime_ci.hi);
    }
  }
}

TEST(AdaptiveCampaignTest, LowVarianceCellStopsEarlyAndMeetsTarget) {
  // Cell 0: attack disabled — every trial is censored at the horizon, so
  // the lifetime sample has zero variance and the cell must close after
  // its first round with its CI (width 0) trivially inside the target.
  // Cell 1: a genuinely stochastic attacked cell — it needs more rounds.
  net::ScenarioPlan calm = fast_plan(64, 8.0, 0.5, 20);
  calm.name = "calm";
  calm.attack.enabled = false;
  net::ScenarioPlan noisy = fast_plan(512, 8.0, 0.5, 80);
  noisy.name = "noisy";
  std::vector<CampaignCell> cells = {{model::SystemKind::S1, calm},
                                     {model::SystemKind::S1, noisy}};

  CampaignConfig cfg;
  cfg.base_seed = 7;
  cfg.adaptive.enabled = true;
  cfg.adaptive.round_trials = 6;
  cfg.adaptive.target_rel_ci = 0.05;
  cfg.adaptive.max_trials_per_cell = 120;
  const CampaignResult r = run_campaign(cells, cfg);

  const CellStats& low = r.cells[0];
  const CellStats& high = r.cells[1];
  EXPECT_EQ(low.trials, cfg.adaptive.round_trials);
  EXPECT_EQ(low.rounds, 1u);
  const double low_half = (low.lifetime_ci.hi - low.lifetime_ci.lo) / 2.0;
  EXPECT_LE(low_half, cfg.adaptive.target_rel_ci * low.mean_lifetime());
  EXPECT_GT(high.trials, low.trials);
  EXPECT_GT(high.rounds, 1u);
  // The high-variance cell either met the target or ran to the cap.
  const double high_half = (high.lifetime_ci.hi - high.lifetime_ci.lo) / 2.0;
  EXPECT_TRUE(high_half <=
                  cfg.adaptive.target_rel_ci * high.mean_lifetime() ||
              high.trials == cfg.adaptive.max_trials_per_cell);
}

TEST(AdaptiveCampaignTest, FixedModeMatchesLegacySingleRound) {
  // adaptive.enabled = false must reproduce the fixed-budget behaviour:
  // every cell runs exactly trials_per_cell trials in one round.
  std::vector<CampaignCell> cells = {
      {model::SystemKind::S1, fast_plan(64, 8.0, 0.5, 20)}};
  CampaignConfig cfg;
  cfg.trials_per_cell = 9;
  const CampaignResult r = run_campaign(cells, cfg);
  EXPECT_EQ(r.total_trials, 9u);
  EXPECT_EQ(r.cells[0].trials, 9u);
  EXPECT_EQ(r.cells[0].rounds, 1u);
}

TEST(AdaptiveCampaignTest, CapClosedCellStillReportsValidCI) {
  // A cell that never meets its target closes at the cap — its reported CI
  // must still be the real interval over everything it ran, not a stale or
  // default one.
  std::vector<CampaignCell> cells = {
      {model::SystemKind::S1, fast_plan(512, 8.0, 0.5, 80)}};
  CampaignConfig cfg;
  cfg.base_seed = 13;
  cfg.adaptive.enabled = true;
  cfg.adaptive.round_trials = 4;
  cfg.adaptive.target_rel_ci = 1e-9;
  cfg.adaptive.abs_ci_floor = 1e-9;
  cfg.adaptive.max_trials_per_cell = 12;
  const CampaignResult r = run_campaign(cells, cfg);
  const CellStats& c = r.cells[0];
  EXPECT_EQ(c.trials, cfg.adaptive.max_trials_per_cell);
  EXPECT_EQ(c.rounds, 3u);
  EXPECT_GT(c.lifetime_ci.hi, c.lifetime_ci.lo);
  // The interval is the one normal_ci computes over the final aggregates.
  const ConfidenceInterval want = normal_ci(c.lifetime, cfg.ci_level);
  EXPECT_EQ(c.lifetime_ci.lo, want.lo);
  EXPECT_EQ(c.lifetime_ci.hi, want.hi);
}

TEST(AdaptiveCampaignTest, SingleTrialCellKeepsDefaultCI) {
  // With a one-trial cap there is no variance to build an interval from:
  // the cell must close at the cap with the default (zero-width, level
  // 0.95) interval rather than a garbage one — and still count its round.
  std::vector<CampaignCell> cells = {
      {model::SystemKind::S1, fast_plan(64, 8.0, 0.5, 20)}};
  CampaignConfig cfg;
  cfg.base_seed = 3;
  cfg.adaptive.enabled = true;
  cfg.adaptive.round_trials = 1;
  cfg.adaptive.max_trials_per_cell = 1;
  const CampaignResult r = run_campaign(cells, cfg);
  EXPECT_EQ(r.cells[0].trials, 1u);
  EXPECT_EQ(r.cells[0].rounds, 1u);
  EXPECT_EQ(r.cells[0].lifetime_ci.lo, 0.0);
  EXPECT_EQ(r.cells[0].lifetime_ci.hi, 0.0);
  EXPECT_EQ(r.cells[0].lifetime_ci.level, 0.95);
}

TEST(CampaignTest, NestedCampaignInsideForeignPoolBitIdentical) {
  // A campaign launched from inside ANOTHER pool's parallel_chunks: the
  // foreign pool's workers report their own slots, which can be >= the
  // shared pool's slot_count, so the arena lookup's bounds check must send
  // them down the fresh-stack path instead of out of bounds — with
  // outcomes bit-identical to a top-level run. This is the nested shape a
  // sweep-of-campaigns driver produces.
  std::vector<CampaignCell> cells = {
      {model::SystemKind::S1, fast_plan(64, 8.0, 0.5, 30)},
      {model::SystemKind::S2, fast_plan(128, 8.0, 0.25, 30)}};
  CampaignConfig cfg;
  cfg.trials_per_cell = 4;
  cfg.base_seed = 77;
  cfg.threads = 2;
  const CampaignResult want = run_campaign(cells, cfg);

  // Strictly more slots than the shared pool: at least one worker's slot
  // is out of range for the campaign's arena vector.
  exec::ThreadPool foreign(exec::ThreadPool::shared().slot_count() + 2);
  constexpr std::uint64_t kRuns = 4;
  std::vector<CampaignResult> results(kRuns);
  foreign.parallel_chunks(
      kRuns, 1, 0, [&](std::uint64_t, std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t i = begin; i < end; ++i) {
          results[i] = run_campaign(cells, cfg);
        }
      });
  for (std::uint64_t i = 0; i < kRuns; ++i) {
    ASSERT_EQ(results[i].cells.size(), want.cells.size());
    EXPECT_EQ(results[i].total_trials, want.total_trials);
    EXPECT_EQ(results[i].total_events, want.total_events);
    for (std::size_t c = 0; c < want.cells.size(); ++c) {
      EXPECT_EQ(results[i].cells[c].compromised, want.cells[c].compromised);
      EXPECT_EQ(results[i].cells[c].events_executed,
                want.cells[c].events_executed);
      EXPECT_EQ(results[i].cells[c].lifetime.mean(),
                want.cells[c].lifetime.mean());
      EXPECT_EQ(results[i].cells[c].lifetime.variance(),
                want.cells[c].lifetime.variance());
    }
  }
}

// One-step screening trials: cheap enough to run tens of thousands in a
// test, and roughly one in seven is compromised, so seeds matter.
net::ScenarioPlan screening_plan(std::uint64_t chi) {
  net::ScenarioPlan plan = fast_plan(chi, 8.0, 0.25, 1);
  plan.name = "screening-" + std::to_string(chi);
  plan.step_duration = 5.0;
  plan.attack.start_time = 1.0;
  return plan;
}

// The fixed-mode campaign restated without windows or threads: every trial
// run alone by run_trial at its trial_seed, absorbed cell by cell in trial
// order, which is the round's task order.
CampaignResult per_trial_oracle(const std::vector<CampaignCell>& cells,
                                const CampaignConfig& cfg) {
  CampaignResult want;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    CellStats s;
    s.system = cells[c].system;
    s.plan_name = cells[c].plan.name;
    s.rounds = 1;
    for (std::uint64_t t = 0; t < cfg.trials_per_cell; ++t) {
      const TrialOutcome o = run_trial(cells[c].system, cells[c].plan,
                                       trial_seed(cfg.base_seed, c, t));
      ++s.trials;
      ++(o.compromised ? s.compromised : s.censored);
      s.lifetime.add(static_cast<double>(o.lifetime_steps));
      fields::merge(s.attacker, o.attacker);
      s.events_executed += o.events_executed;
      s.blacklisted_sources += o.blacklisted_sources;
      s.traffic.merge(o.traffic);
      s.population.merge(o.population);
    }
    if (s.lifetime.count() > 1) {
      s.lifetime_ci = normal_ci(s.lifetime, cfg.ci_level);
    }
    want.total_trials += s.trials;
    want.total_events += s.events_executed;
    want.cells.push_back(std::move(s));
  }
  return want;
}

TEST(CampaignWindowTest, MultiWindowRoundMatchesPerTrialOracle) {
  // One fixed-mode round of three full outcome windows plus a remainder even
  // at 8 threads, the widest window here (more windows at fewer threads),
  // with the boundary between the two cells inside a window.
  const std::vector<CampaignCell> cells =
      cross({model::SystemKind::S1, model::SystemKind::S2},
            {screening_plan(64)});
  CampaignConfig cfg;
  cfg.base_seed = 515;
  const std::uint64_t widest = kOutcomeWindowPerThread * 8;
  cfg.trials_per_cell = (3 * widest + widest / 3) / 2;
  const CampaignResult oracle = per_trial_oracle(cells, cfg);
  EXPECT_GT(oracle.cells[0].compromised, 0u);
  const std::string want = campaign_result_to_json(oracle);

  for (unsigned threads : {1u, 2u, 8u}) {
    for (bool pooled : {true, false}) {
      cfg.threads = threads;
      cfg.reuse_trial_stacks = pooled;
      EXPECT_EQ(campaign_result_to_json(run_campaign(cells, cfg)), want)
          << threads << " threads, " << (pooled ? "pooled" : "fresh");
    }
  }
}

TEST(CampaignWindowTest, StolenGrantsCrossWindowEdgesBitIdentically) {
  // Uneven rounds: the calm cell closes after round one (3 x 700 = 2100
  // trials), and the two attacked cells go on granting 700 trials each a
  // round until they close on the compromise-probability floor or at the
  // cap. Their shared rounds (1400 trials) span two windows at one thread
  // and fit in one at eight, so window edges fall at different task
  // indices, and inside different cells, from run to run.
  net::ScenarioPlan calm = screening_plan(64);
  calm.name = "calm";
  calm.attack.enabled = false;
  const std::vector<CampaignCell> cells = {
      {model::SystemKind::S1, calm},
      {model::SystemKind::S1, screening_plan(64)},
      {model::SystemKind::S2, screening_plan(64)}};
  CampaignConfig cfg;
  cfg.base_seed = 616;
  cfg.adaptive.enabled = true;
  cfg.adaptive.round_trials = 700;
  cfg.adaptive.max_trials_per_cell = 4000;
  StoppingRule rule;
  rule.metric = StoppingRule::Metric::CompromiseProbability;
  rule.target_rel = 0.01;
  rule.abs_floor = 0.015;
  cfg.adaptive.rules = {rule};

  cfg.threads = 1;
  const CampaignResult reference = run_campaign(cells, cfg);
  EXPECT_EQ(reference.cells[0].rounds, 1u);
  EXPECT_EQ(reference.cells[0].trials, cfg.adaptive.round_trials);
  ASSERT_GT(2 * cfg.adaptive.round_trials, kOutcomeWindowPerThread);
  for (std::size_t c = 1; c < cells.size(); ++c) {
    EXPECT_GT(reference.cells[c].rounds, 1u) << "cell " << c;
    EXPECT_EQ(reference.cells[c].trials,
              std::min(cfg.adaptive.round_trials * reference.cells[c].rounds,
                       cfg.adaptive.max_trials_per_cell))
        << "cell " << c;
  }
  const std::string want = campaign_result_to_json(reference);
  for (unsigned threads : {1u, 2u, 8u}) {
    for (bool pooled : {true, false}) {
      cfg.threads = threads;
      cfg.reuse_trial_stacks = pooled;
      EXPECT_EQ(campaign_result_to_json(run_campaign(cells, cfg)), want)
          << threads << " threads, " << (pooled ? "pooled" : "fresh");
    }
  }
}

TEST(CampaignTest, CrossIsSystemsMajor) {
  std::vector<net::ScenarioPlan> plans(2);
  plans[0].name = "a";
  plans[1].name = "b";
  auto cells = cross({model::SystemKind::S0, model::SystemKind::S2}, plans);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].system, model::SystemKind::S0);
  EXPECT_EQ(cells[0].plan.name, "a");
  EXPECT_EQ(cells[1].plan.name, "b");
  EXPECT_EQ(cells[2].system, model::SystemKind::S2);
}

// The acceptance cross-check: campaign-measured S2 mean lifetimes agree
// with the absorbing-Markov prediction, for three distinct ScenarioPlans.
// The live stack implements mechanisms (sequential probes, connection
// side channels, launch pads), not the abstract per-step model, so exact
// agreement is not expected; tolerance is 25% of the prediction plus the
// campaign's own 99% confidence half-width (cf. paper_report's live_vs_model
// band of 0.65-1.45 for S1).
TEST(CampaignTest, S2LifetimeMatchesMarkovAcrossPlans) {
  struct Case {
    std::uint64_t chi;
    double omega;
    double kappa;
    std::uint64_t horizon;
  };
  const Case cases[] = {
      {128, 8.0, 0.5, 600}, {256, 8.0, 0.5, 900}, {128, 8.0, 0.25, 900}};

  std::vector<CampaignCell> cells;
  for (const Case& c : cases) {
    cells.push_back(
        {model::SystemKind::S2, fast_plan(c.chi, c.omega, c.kappa, c.horizon)});
  }
  CampaignConfig cfg;
  cfg.trials_per_cell = 120;
  cfg.base_seed = 2026;
  cfg.ci_level = 0.99;
  CampaignResult result = run_campaign(cells, cfg);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellStats& cell = result.cells[i];
    model::AttackParams params;
    params.chi = cases[i].chi;
    params.alpha = cells[i].plan.implied_alpha();
    params.kappa = cases[i].kappa;
    const double predicted =
        analysis::expected_lifetime_markov(model::SystemShape::s2(3), params);
    const double live = cell.mean_lifetime();
    const double half_width = (cell.lifetime_ci.hi - cell.lifetime_ci.lo) / 2;
    EXPECT_EQ(cell.censored, 0u)
        << "horizon too short for chi=" << cases[i].chi;
    EXPECT_NEAR(live, predicted, 0.25 * predicted + half_width)
        << "plan " << i << ": live=" << live << " markov=" << predicted;
  }
}

}  // namespace
}  // namespace fortress::scenario
