// Overload & backpressure plane, end to end: open-loop traffic against a
// live deployment with bounded service queues, driving each policy through
// its documented saturation signature, exact accounting across a crash /
// recover window, and thread-count / isolation-mode invariance of the new
// tail-latency campaign aggregates.
#include <gtest/gtest.h>

#include <cstdio>

#include "model/params.hpp"
#include "net/scenario.hpp"
#include "scenario/campaign.hpp"

namespace fortress::scenario {
namespace {

using model::SystemKind;

/// A 200-unit single-step trial: fixed-latency network, no attacker, three
/// PB servers each modelling 0.2 time units of service per request (5/unit
/// capacity), open-loop arrivals at `rate` until t = 160 then silence (so
/// every request reaches a terminal state before the horizon).
net::ScenarioPlan traffic_plan(net::OverloadPolicy policy, double rate) {
  net::ScenarioPlan plan;
  plan.name = "overload";
  plan.latency = net::LatencySpec::fixed(0.1);
  plan.attack.enabled = false;
  plan.keyspace = 1ull << 10;
  plan.step_duration = 200.0;
  plan.horizon_steps = 1;
  plan.n_servers = 3;
  plan.n_proxies = 3;
  plan.service.enabled = true;
  plan.service.request_service = net::LatencySpec::fixed(0.2);
  plan.service.response_service = net::LatencySpec::fixed(0.02);
  plan.service.queue_capacity = 16;
  plan.service.degrade_watermark = 8;
  plan.service.pushback_delay = 0.5;
  plan.service.policy = policy;
  plan.traffic.schedule = {net::RatePhase{0.0, rate},
                           net::RatePhase{160.0, 0.0}};
  plan.traffic.clients = 4;
  plan.traffic.write_fraction = 0.5;
  plan.traffic.distinct_keys = 8;
  plan.traffic.retry_base = 4.0;
  plan.traffic.retry_multiplier = 2.0;
  plan.traffic.retry_cap = 16.0;
  plan.traffic.retry_jitter = 0.1;
  plan.traffic.retry_budget = 4;
  plan.traffic.request_deadline = 30.0;
  return plan;
}

/// The DegradeUnsigned experiment splits the 0.2 service units into 0.05
/// base + 0.15 verification, so degrading recovers 4x capacity.
net::ScenarioPlan degrade_plan(net::OverloadPolicy policy, double rate) {
  net::ScenarioPlan plan = traffic_plan(policy, rate);
  plan.service.request_service = net::LatencySpec::fixed(0.05);
  plan.service.verify_cost = 0.15;
  return plan;
}

void dump(const char* tag, const TrafficStats& t) {
  std::printf(
      "[%s] offered=%llu completed=%llu timed_out=%llu gave_up=%llu "
      "retries=%llu shed=%llu backpressured=%llu degraded=%llu "
      "dropped=%llu max_depth=%llu p50=%.3f p99=%.3f goodput=%.4f "
      "fp=0x%llxull\n",
      tag, (unsigned long long)t.offered, (unsigned long long)t.completed,
      (unsigned long long)t.timed_out, (unsigned long long)t.gave_up,
      (unsigned long long)t.retries, (unsigned long long)t.shed,
      (unsigned long long)t.backpressured, (unsigned long long)t.degraded,
      (unsigned long long)t.dropped_on_reboot,
      (unsigned long long)t.max_queue_depth, t.latency.quantile(0.5),
      t.latency.quantile(0.99), t.goodput,
      (unsigned long long)t.latency.fingerprint());
}

TEST(ScenarioOverloadTest, UnderloadCompletesEverythingCleanly) {
  TrialOutcome out = run_trial(
      SystemKind::S1, traffic_plan(net::OverloadPolicy::DropTail, 2.0), 99);
  dump("under", out.traffic);
  EXPECT_GT(out.traffic.offered, 250u);  // ~2/unit over 160 units
  EXPECT_EQ(out.traffic.shed, 0u);
  EXPECT_EQ(out.traffic.timed_out, 0u);
  EXPECT_EQ(out.traffic.gave_up, 0u);
  EXPECT_EQ(out.traffic.completed, out.traffic.offered);
  EXPECT_EQ(out.traffic.dropped_on_reboot, 0u);
}

TEST(ScenarioOverloadTest, DropTailKneeShedsAndTimesOut) {
  TrialOutcome out = run_trial(
      SystemKind::S1, traffic_plan(net::OverloadPolicy::DropTail, 15.0), 99);
  dump("droptail", out.traffic);
  // 15/unit offered against 5/unit of service: the knee is far exceeded.
  EXPECT_GT(out.traffic.shed, 0u);
  EXPECT_LT(out.traffic.completed, out.traffic.offered);
  EXPECT_GT(out.traffic.timed_out + out.traffic.gave_up, 0u);
  // The queue bound holds: depth never exceeds capacity + 1 in service.
  EXPECT_LE(out.traffic.max_queue_depth, 17u);
}

TEST(ScenarioOverloadTest, BackpressureInflatesLatencyInsteadOfShedding) {
  // Just past the knee (7/unit against 5/unit of service): a shedding
  // policy keeps its bounded queue short and completions fast, while
  // Backpressure parks the excess and lets waiting time grow instead.
  TrialOutcome bp = run_trial(
      SystemKind::S1, traffic_plan(net::OverloadPolicy::Backpressure, 7.0),
      99);
  TrialOutcome drop = run_trial(
      SystemKind::S1, traffic_plan(net::OverloadPolicy::DropTail, 7.0), 99);
  TrialOutcome under = run_trial(
      SystemKind::S1, traffic_plan(net::OverloadPolicy::DropTail, 2.0), 99);
  dump("backpressure", bp.traffic);
  dump("droptail-7", drop.traffic);
  EXPECT_EQ(bp.traffic.shed, 0u);
  EXPECT_GT(bp.traffic.backpressured, 0u);
  // Nothing is refused, so overload surfaces as tail latency instead: the
  // completed-request tail inflates well past the underloaded system's, and
  // past the shedding policy's (whose bounded queue keeps admitted requests
  // fast — both tails are clipped by the 30-unit deadline, so the p90 is
  // where the policies separate).
  EXPECT_GT(bp.traffic.latency.quantile(0.99),
            under.traffic.latency.quantile(0.99));
  EXPECT_GT(bp.traffic.latency.quantile(0.9),
            drop.traffic.latency.quantile(0.9));
  // Holding on to every request also means fewer finish inside the
  // deadline than under shedding, at equal offered load.
  EXPECT_LT(bp.traffic.completed, drop.traffic.completed);
}

TEST(ScenarioOverloadTest, DegradeUnsignedHoldsGoodputBySkippingVerification) {
  TrialOutcome deg = run_trial(
      SystemKind::S1, degrade_plan(net::OverloadPolicy::DegradeUnsigned, 15.0),
      99);
  TrialOutcome ref = run_trial(
      SystemKind::S1, degrade_plan(net::OverloadPolicy::DropTail, 15.0), 99);
  dump("degrade", deg.traffic);
  dump("degrade-ref", ref.traffic);
  EXPECT_GT(deg.traffic.degraded, 0u);
  // Skipping the 0.15 verification units quadruples capacity: goodput holds
  // where the verifying DropTail system sheds most of the offered load.
  EXPECT_GT(deg.traffic.completed, 2 * ref.traffic.completed);
  EXPECT_GT(deg.traffic.completed, (9 * deg.traffic.offered) / 10);
}

TEST(ScenarioOverloadTest, DeadlineAndBudgetFailuresAreEachCountedOnce) {
  // Jittered backoff spreads budget exhaustion (4+8+16+16+16 = 60 units
  // unjittered) around the 60-unit deadline, so past the knee some requests
  // time out and others give up. Arrivals stop at t = 130, so every request
  // ends before the 200-unit horizon. Both counts are pinned, and every
  // offered request ends in exactly one terminal state.
  net::ScenarioPlan plan = traffic_plan(net::OverloadPolicy::DropTail, 15.0);
  plan.traffic.schedule = {net::RatePhase{0.0, 15.0},
                           net::RatePhase{130.0, 0.0}};
  plan.traffic.retry_jitter = 0.3;
  plan.traffic.request_deadline = 60.0;
  TrialOutcome out = run_trial(SystemKind::S1, plan, 99);
  dump("deadline-and-budget", out.traffic);
  EXPECT_EQ(out.traffic.timed_out, 539u);
  EXPECT_EQ(out.traffic.gave_up, 516u);
  EXPECT_EQ(out.traffic.offered, out.traffic.completed +
                                     out.traffic.timed_out +
                                     out.traffic.gave_up);
}

TEST(ScenarioOverloadTest, CrashRecoverAccountingIsExact) {
  net::ScenarioPlan plan = traffic_plan(net::OverloadPolicy::DropTail, 8.0);
  plan.faults = {
      net::FaultEvent{net::FaultEvent::Target::Server, 0, 50.0,
                      net::FaultEvent::Kind::Crash},
      net::FaultEvent{net::FaultEvent::Target::Server, 0, 100.0,
                      net::FaultEvent::Kind::Recover},
  };
  TrialOutcome out = run_trial(SystemKind::S1, plan, 7);
  dump("crash-recover", out.traffic);
  // The crashed machine's queue is dropped, not leaked: the loss shows up
  // in dropped_on_reboot and the affected clients' retry/timeout paths, and
  // every offered request still reaches EXACTLY one terminal state.
  EXPECT_GT(out.traffic.dropped_on_reboot, 0u);
  EXPECT_EQ(out.traffic.offered, out.traffic.completed +
                                     out.traffic.timed_out +
                                     out.traffic.gave_up);
  EXPECT_GT(out.traffic.completed, 0u);
  EXPECT_EQ(out.compromised, false);
}

TEST(ScenarioOverloadTest, TrafficAggregatesAreThreadAndIsolationInvariant) {
  std::vector<CampaignCell> cells;
  cells.push_back(
      {SystemKind::S1, traffic_plan(net::OverloadPolicy::DropTail, 15.0)});
  cells.push_back(
      {SystemKind::S1, traffic_plan(net::OverloadPolicy::Backpressure, 7.0)});
  cells.push_back(
      {SystemKind::S1,
       degrade_plan(net::OverloadPolicy::DegradeUnsigned, 15.0)});
  cells.push_back(
      {SystemKind::S2, traffic_plan(net::OverloadPolicy::DropTail, 12.0)});

  CampaignConfig cfg;
  cfg.trials_per_cell = 3;
  cfg.base_seed = 42;
  cfg.threads = 1;
  cfg.reuse_trial_stacks = true;
  const CampaignResult ref = run_campaign(cells, cfg);
  for (std::size_t c = 0; c < ref.cells.size(); ++c) {
    dump(("cell-" + std::to_string(c)).c_str(), ref.cells[c].traffic);
  }

  for (unsigned threads : {1u, 2u, 8u}) {
    for (bool pooled : {true, false}) {
      if (threads == 1 && pooled) continue;  // the reference itself
      cfg.threads = threads;
      cfg.reuse_trial_stacks = pooled;
      const CampaignResult got = run_campaign(cells, cfg);
      ASSERT_EQ(got.cells.size(), ref.cells.size());
      for (std::size_t c = 0; c < ref.cells.size(); ++c) {
        const TrafficStats& a = ref.cells[c].traffic;
        const TrafficStats& b = got.cells[c].traffic;
        SCOPED_TRACE("cell " + std::to_string(c) + " threads " +
                     std::to_string(threads) + (pooled ? " pooled" : " fresh"));
        EXPECT_EQ(a.offered, b.offered);
        EXPECT_EQ(a.completed, b.completed);
        EXPECT_EQ(a.timed_out, b.timed_out);
        EXPECT_EQ(a.gave_up, b.gave_up);
        EXPECT_EQ(a.retries, b.retries);
        EXPECT_EQ(a.enqueued, b.enqueued);
        EXPECT_EQ(a.served, b.served);
        EXPECT_EQ(a.shed, b.shed);
        EXPECT_EQ(a.backpressured, b.backpressured);
        EXPECT_EQ(a.degraded, b.degraded);
        EXPECT_EQ(a.dropped_on_reboot, b.dropped_on_reboot);
        EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
        EXPECT_EQ(a.goodput, b.goodput);  // exact: same bits
        EXPECT_EQ(a.latency.fingerprint(), b.latency.fingerprint());
      }
    }
  }
}

}  // namespace
}  // namespace fortress::scenario
