// Tests for the compact client-population plane: table-size budget,
// request/response round trips through real deployments, determinism,
// pooled-vs-fresh bit-identity, scheduler-kind bit-identity, and the
// 10^5-client scale contract the plane exists for.
#include "core/population.hpp"

#include <gtest/gtest.h>

#include "core/live_system.hpp"
#include "scenario/campaign.hpp"

namespace fortress::scenario {
namespace {

net::ScenarioPlan population_plan(std::uint64_t clients, double rate,
                                  std::uint64_t horizon_steps) {
  net::ScenarioPlan plan;
  plan.name = "population";
  plan.latency = net::LatencySpec::uniform(0.05, 0.2);
  plan.attack.enabled = false;
  plan.horizon_steps = horizon_steps;
  plan.population.clients = clients;
  plan.population.request_rate = rate;
  return plan;
}

void expect_population_equal(const core::PopulationStats& a,
                             const core::PopulationStats& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.gave_up, b.gave_up);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.rejected_responses, b.rejected_responses);
  EXPECT_EQ(a.skipped_busy, b.skipped_busy);
  EXPECT_EQ(a.latency.fingerprint(), b.latency.fingerprint());
}

void expect_outcomes_equal(const TrialOutcome& a, const TrialOutcome& b) {
  EXPECT_EQ(a.compromised, b.compromised);
  EXPECT_EQ(a.lifetime_steps, b.lifetime_steps);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.blacklisted_sources, b.blacklisted_sources);
  EXPECT_EQ(a.attacker.direct_probes, b.attacker.direct_probes);
  EXPECT_EQ(a.traffic.completed, b.traffic.completed);
  EXPECT_EQ(a.traffic.latency.fingerprint(), b.traffic.latency.fingerprint());
  expect_population_equal(a.population, b.population);
}

TEST(PopulationTest, TableRowFitsByteBudget) {
  // The scale contract: the flat-SoA table spends <= 64 bytes per client.
  static_assert(core::ClientPopulation::bytes_per_client() <= 64);

  sim::Simulator sim;
  net::ScenarioPlan plan = population_plan(10'000, 0.001, 10);
  auto live = core::make_live_system(sim, model::SystemKind::S2, plan, 7);
  core::ClientPopulation pop(sim, live->network(), live->registry(),
                             live->directory(), plan.population,
                             /*horizon=*/100.0, /*seed=*/7);
  EXPECT_LE(pop.table_bytes(),
            plan.population.clients * std::uint64_t{64});
  EXPECT_EQ(pop.table_bytes(),
            plan.population.clients *
                core::ClientPopulation::bytes_per_client());
}

TEST(PopulationTest, RequestsCompleteThroughFortifiedDeployment) {
  // S2: population requests traverse proxies and come back double-signed.
  net::ScenarioPlan plan = population_plan(2'000, 0.002, 2);
  TrialOutcome out = run_trial(model::SystemKind::S2, plan, 11);
  EXPECT_GT(out.population.offered, 0u);
  EXPECT_GT(out.population.completed, 0u);
  EXPECT_EQ(out.population.rejected_responses, 0u);
  EXPECT_EQ(out.population.latency.count(), out.population.completed);
  // Every request resolves one way; nothing can end twice.
  EXPECT_LE(out.population.completed + out.population.timed_out +
                out.population.gave_up,
            out.population.offered);
}

TEST(PopulationTest, RequestsCompleteThroughOneTierDeployment) {
  net::ScenarioPlan plan = population_plan(2'000, 0.002, 2);
  TrialOutcome out = run_trial(model::SystemKind::S1, plan, 12);
  EXPECT_GT(out.population.completed, 0u);
  EXPECT_EQ(out.population.rejected_responses, 0u);
}

TEST(PopulationTest, DeterministicInSeed) {
  net::ScenarioPlan plan = population_plan(3'000, 0.002, 2);
  TrialOutcome a = run_trial(model::SystemKind::S2, plan, 21);
  TrialOutcome b = run_trial(model::SystemKind::S2, plan, 21);
  expect_outcomes_equal(a, b);
  TrialOutcome c = run_trial(model::SystemKind::S2, plan, 22);
  EXPECT_NE(a.population.offered, 0u);
  // Different seed, different arrival draws (overwhelmingly likely).
  EXPECT_FALSE(a.population.offered == c.population.offered &&
               a.population.latency.fingerprint() ==
                   c.population.latency.fingerprint());
}

TEST(PopulationTest, PooledTrialsBitIdenticalToFresh) {
  // The arena pools the population table across trials; reset() must make
  // that invisible, including across a shape change mid-sequence.
  net::ScenarioPlan small = population_plan(1'500, 0.002, 2);
  net::ScenarioPlan large = population_plan(4'000, 0.001, 2);
  large.population.cohort_size = 512;

  TrialArena arena;
  for (std::uint64_t seed : {31ull, 32ull, 33ull}) {
    expect_outcomes_equal(arena.run(model::SystemKind::S2, small, seed),
                          run_trial(model::SystemKind::S2, small, seed));
    expect_outcomes_equal(arena.run(model::SystemKind::S2, large, seed),
                          run_trial(model::SystemKind::S2, large, seed));
  }
}

TEST(PopulationTest, WheelAndHeapSchedulersBitIdentical) {
  net::ScenarioPlan plan = population_plan(3'000, 0.002, 2);
  plan.attack.enabled = true;  // exercise the full event mix
  plan.attack.probes_per_step = 8.0;
  plan.keyspace = 1ull << 12;
  for (std::uint64_t seed : {41ull, 42ull}) {
    expect_outcomes_equal(
        TrialArena(sim::SchedulerKind::Wheel)
            .run(model::SystemKind::S2, plan, seed),
        TrialArena(sim::SchedulerKind::Heap)
            .run(model::SystemKind::S2, plan, seed));
  }
}

TEST(PopulationTest, LossyTrialsTimeOutGiveUpAndRetryIdentically) {
  // Half the datagrams are lost, so requests retry and then end unanswered:
  // by deadline in one plan (deadline 6 falls before the third retry) and by
  // retry budget in the other (no deadline, two retries). With completions
  // these are every busy-to-idle transition, so the per-cohort busy count
  // that lets a tick skip an idle cohort is exercised on each. Pooled,
  // fresh, wheel and heap runs must agree, and the pinned totals catch a
  // count that drifts low and skips rows that are still busy.
  net::ScenarioPlan deadline = population_plan(600, 0.001, 4);
  deadline.drop_probability = 0.5;
  deadline.population.retry_base = 1.0;
  deadline.population.request_deadline = 6.0;
  net::ScenarioPlan budget = deadline;
  budget.population.request_deadline = 0.0;
  budget.population.retry_budget = 2;

  struct Pin {
    const net::ScenarioPlan* plan;
    std::uint64_t offered, completed, timed_out, gave_up, retries;
  };
  const Pin pins[] = {{&deadline, 499, 361, 137, 0, 461},
                      {&budget, 499, 361, 0, 137, 461}};
  TrialArena arena;
  for (const Pin& pin : pins) {
    core::PopulationStats total;
    for (std::uint64_t seed : {61ull, 62ull}) {
      const TrialOutcome fresh =
          run_trial(model::SystemKind::S2, *pin.plan, seed);
      expect_outcomes_equal(arena.run(model::SystemKind::S2, *pin.plan, seed),
                            fresh);
      expect_outcomes_equal(TrialArena(sim::SchedulerKind::Heap)
                                .run(model::SystemKind::S2, *pin.plan, seed),
                            fresh);
      total.merge(fresh.population);
    }
    EXPECT_EQ(total.offered, pin.offered);
    EXPECT_EQ(total.completed, pin.completed);
    EXPECT_EQ(total.timed_out, pin.timed_out);
    EXPECT_EQ(total.gave_up, pin.gave_up);
    EXPECT_EQ(total.retries, pin.retries);
  }
}

TEST(PopulationTest, HundredThousandClientsComplete) {
  // The tentpole scale target: a 10^5-client trial under the wheel
  // scheduler completes (in test time) with real request round trips.
  net::ScenarioPlan plan = population_plan(100'000, 0.0003, 1);
  plan.latency = net::LatencySpec::uniform(0.01, 0.05);
  TrialOutcome out = TrialArena(sim::SchedulerKind::Wheel)
                         .run(model::SystemKind::S1, plan, 51);
  EXPECT_GT(out.population.offered, 1'000u);
  EXPECT_GT(out.population.completed, 0u);
  EXPECT_EQ(out.population.rejected_responses, 0u);
}

TEST(PopulationCampaignTest, SchedulerKindInvariantAcrossThreadsAndPooling) {
  // The differential gate: wheel and heap campaigns produce bit-identical
  // aggregates at 1, 2 and 8 threads, pooled and fresh.
  net::ScenarioPlan plan = population_plan(1'000, 0.002, 30);
  plan.attack.enabled = true;
  plan.attack.probes_per_step = 8.0;
  plan.keyspace = 256;
  plan.faults.push_back({net::FaultEvent::Target::Server, 0, 500.0});
  std::vector<CampaignCell> cells =
      cross({model::SystemKind::S1, model::SystemKind::S2}, {plan});

  CampaignConfig cfg;
  cfg.trials_per_cell = 3;
  cfg.base_seed = 4242;

  cfg.threads = 1;
  cfg.scheduler = sim::SchedulerKind::Wheel;
  const CampaignResult reference = run_campaign(cells, cfg);
  for (unsigned threads : {1u, 2u, 8u}) {
    for (bool pooled : {true, false}) {
      for (sim::SchedulerKind kind :
           {sim::SchedulerKind::Wheel, sim::SchedulerKind::Heap}) {
        cfg.threads = threads;
        cfg.reuse_trial_stacks = pooled;
        cfg.scheduler = kind;
        const CampaignResult got = run_campaign(cells, cfg);
        ASSERT_EQ(got.cells.size(), reference.cells.size());
        EXPECT_EQ(got.total_events, reference.total_events);
        for (std::size_t i = 0; i < reference.cells.size(); ++i) {
          const CellStats& a = reference.cells[i];
          const CellStats& b = got.cells[i];
          EXPECT_EQ(a.compromised, b.compromised);
          EXPECT_EQ(a.events_executed, b.events_executed);
          EXPECT_EQ(a.lifetime.mean(), b.lifetime.mean());
          EXPECT_EQ(a.traffic.latency.fingerprint(),
                    b.traffic.latency.fingerprint());
          expect_population_equal(a.population, b.population);
        }
      }
    }
  }
}

}  // namespace
}  // namespace fortress::scenario
