// Delta-debugging minimizer tests: a multi-axis failing plan shrinks to a
// locally minimal repro, the minimization is deterministic, and the emitted
// JSON reproduces the failure end-to-end (encode → decode → predicate still
// true), which is the workflow `plan_tool minimize` automates.
#include <gtest/gtest.h>

#include <string>

#include "common/check.hpp"
#include "scenario/minimize.hpp"
#include "scenario/plan_codec.hpp"
#include "scenario/plan_generator.hpp"

namespace fortress::scenario {
namespace {

/// A deliberately loaded plan: every optional plane on, every list axis
/// populated — the haystack the minimizer must strip.
net::ScenarioPlan multi_axis_plan() {
  net::ScenarioPlan p;
  p.name = "minimize-haystack";
  p.latency = net::LatencySpec::exponential(0.02, 0.3);
  p.drop_probability = 0.05;
  p.duplicate_probability = 0.02;
  p.partitions.push_back({10.0, 30.0, {"s2-proxy-0"}});
  p.partitions.push_back({40.0, 80.0, {"s0-replica-0", "s0-replica-1"}});
  p.partitions.push_back({90.0, 95.0, {"s1-server-0"}});
  for (int i = 0; i < 6; ++i) {
    p.faults.push_back({net::FaultEvent::Target::Server, i % 2,
                        20.0 * (i + 1),
                        i % 2 ? net::FaultEvent::Kind::Crash
                              : net::FaultEvent::Kind::Recover});
  }
  p.attack.sybil_identities = 4;
  p.proxy_blacklist = true;
  p.detection_threshold = 3;
  p.service.enabled = true;
  p.service.policy = net::OverloadPolicy::Backpressure;
  p.traffic.clients = 3;
  p.traffic.schedule = {{0.0, 2.0}, {50.0, 0.0}, {100.0, 1.0}, {150.0, 3.0}};
  p.population.clients = 2048;
  p.horizon_steps = 100;
  return p;
}

TEST(MinimizeTest, StripsEveryAxisThePredicateIgnores) {
  // The "failure" only needs one partition window and the service model —
  // everything else is noise the minimizer must remove.
  const PlanPredicate pred = [](const net::ScenarioPlan& p) {
    return !p.partitions.empty() && p.service.enabled;
  };
  const net::ScenarioPlan failing = multi_axis_plan();
  const MinimizeResult result = minimize_plan(failing, pred);

  EXPECT_TRUE(pred(result.plan));
  EXPECT_NO_THROW(result.plan.validate());
  EXPECT_GT(result.predicate_calls, 0u);
  EXPECT_GT(result.reductions, 0u);

  // The load-bearing axes survive, reduced to their minimum...
  EXPECT_EQ(result.plan.partitions.size(), 1u);
  EXPECT_TRUE(result.plan.service.enabled);
  // ...and every ignored axis is gone or at its floor.
  EXPECT_TRUE(result.plan.faults.empty());
  EXPECT_FALSE(result.plan.attack.enabled);
  EXPECT_EQ(result.plan.traffic.clients, 0);
  EXPECT_TRUE(result.plan.traffic.schedule.empty());
  EXPECT_FALSE(result.plan.population.enabled());
  EXPECT_FALSE(result.plan.proxy_blacklist);
  EXPECT_EQ(result.plan.drop_probability, 0.0);
  EXPECT_EQ(result.plan.duplicate_probability, 0.0);
  EXPECT_EQ(result.plan.latency.kind, net::LatencySpec::Kind::Fixed);
  EXPECT_EQ(result.plan.horizon_steps, 1u);
  EXPECT_EQ(result.plan.n_servers, 1);
  EXPECT_EQ(result.plan.n_proxies, 1);
}

TEST(MinimizeTest, ShrinksInsideThePlanesThePredicateKeeps) {
  // The attack, traffic and population planes must stay on, so the
  // minimizer can only shrink inside them: the direct channel goes, the
  // sybils fall to one, and both client counts are halved to their floors.
  const PlanPredicate pred = [](const net::ScenarioPlan& p) {
    return p.attack.enabled && p.traffic.enabled() && p.population.enabled();
  };
  const MinimizeResult result = minimize_plan(multi_axis_plan(), pred);

  EXPECT_TRUE(pred(result.plan));
  EXPECT_FALSE(result.plan.attack.direct_enabled);
  EXPECT_EQ(result.plan.attack.sybil_identities, 1u);
  EXPECT_EQ(result.plan.traffic.clients, 1);
  EXPECT_EQ(result.plan.traffic.schedule.size(), 1u);
  EXPECT_EQ(result.plan.population.clients, 64u);
}

TEST(MinimizeTest, ResultIsLocallyMinimal) {
  const PlanPredicate pred = [](const net::ScenarioPlan& p) {
    return !p.partitions.empty() && p.service.enabled;
  };
  const MinimizeResult result = minimize_plan(multi_axis_plan(), pred);
  // No single remaining reduction can still fail: dropping the last window
  // or the service plane flips the predicate.
  net::ScenarioPlan without_window = result.plan;
  without_window.partitions.clear();
  EXPECT_FALSE(pred(without_window));
  net::ScenarioPlan without_service = result.plan;
  without_service.service = net::ServiceModel{};
  EXPECT_FALSE(pred(without_service));
}

TEST(MinimizeTest, MinimizationIsDeterministic) {
  const PlanPredicate pred = [](const net::ScenarioPlan& p) {
    return !p.faults.empty();
  };
  const MinimizeResult a = minimize_plan(multi_axis_plan(), pred);
  const MinimizeResult b = minimize_plan(multi_axis_plan(), pred);
  EXPECT_EQ(plan_to_json(a.plan), plan_to_json(b.plan));
  EXPECT_EQ(a.predicate_calls, b.predicate_calls);
  EXPECT_EQ(a.reductions, b.reductions);
}

TEST(MinimizeTest, EmittedJsonReproducesTheFailureEndToEnd) {
  // The plan_tool workflow: minimize, print JSON, reload the JSON
  // elsewhere, re-run the predicate. The repro must survive the codec.
  const PlanPredicate pred = [](const net::ScenarioPlan& p) {
    for (const net::FaultEvent& f : p.faults) {
      if (f.kind == net::FaultEvent::Kind::Crash) return true;
    }
    return false;
  };
  const MinimizeResult result = minimize_plan(multi_axis_plan(), pred);
  ASSERT_EQ(result.plan.faults.size(), 1u);
  EXPECT_EQ(result.plan.faults[0].kind, net::FaultEvent::Kind::Crash);

  const std::string repro_json = plan_to_json(result.plan);
  const net::ScenarioPlan reloaded = plan_from_json(repro_json);
  EXPECT_TRUE(pred(reloaded));
  EXPECT_EQ(plan_to_json(reloaded), repro_json);
}

TEST(MinimizeTest, ShrinksGeneratorPlansToo) {
  // Fuzzer integration: whatever the generator emits must be minimizable.
  // Find a generated plan with at least two fault events and shrink it to
  // the single fault the predicate cares about.
  PlanGenerator gen(0x517);
  net::ScenarioPlan found;
  bool have = false;
  for (int i = 0; i < 64 && !have; ++i) {
    const net::ScenarioPlan p = gen.next();
    if (p.faults.size() >= 2) {
      found = p;
      have = true;
    }
  }
  ASSERT_TRUE(have) << "generator never emitted >= 2 faults in 64 plans";
  const PlanPredicate pred = [](const net::ScenarioPlan& p) {
    return !p.faults.empty();
  };
  const MinimizeResult result = minimize_plan(found, pred);
  EXPECT_EQ(result.plan.faults.size(), 1u);
  EXPECT_TRUE(result.plan.partitions.empty());
}

TEST(MinimizeTest, RefusesToMinimizeAPassingPlan) {
  const PlanPredicate never_fails = [](const net::ScenarioPlan&) {
    return false;
  };
  EXPECT_THROW(minimize_plan(multi_axis_plan(), never_fails),
               ContractViolation);
}

}  // namespace
}  // namespace fortress::scenario
