// Tests for adaptive stopping: the multi-metric rule engine, the
// rare-event/zero-mean budget fix, rule validation, and the rejection of
// the work_stealing key.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "scenario/campaign.hpp"

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

// --- the zero/near-zero-mean stall fix ------------------------------------

TEST(StoppingBudgetTest, NearZeroMeanCellClosesOnAbsoluteFloor) {
  // THE budget bug: chi = 24 under 16 probes/step compromises almost every
  // trial at step 0 or 1, so the mean lifetime sits near zero with nonzero
  // variance. The old relative-only criterion (half <= target_rel * mean)
  // was unsatisfiable there — this exact cell used to burn the entire
  // 512-trial cap over 64 rounds. With the default absolute floor of half
  // a step (lifetimes are whole steps; finer resolution is meaningless)
  // it must close after its very first round.
  std::vector<CampaignCell> cells = {
      {model::SystemKind::S1, fast_plan(24, 16.0, 0.0, 40)}};
  CampaignConfig cfg;
  cfg.base_seed = 7;
  cfg.adaptive.enabled = true;
  cfg.adaptive.round_trials = 32;
  cfg.adaptive.target_rel_ci = 0.10;
  cfg.adaptive.max_trials_per_cell = 512;
  const CampaignResult r = run_campaign(cells, cfg);
  EXPECT_EQ(r.cells[0].trials, 32u);
  EXPECT_EQ(r.cells[0].rounds, 1u);
  // Sanity: this really is the pathological shape — near-zero mean, and
  // (unlike the exact-zero-variance case) a nonzero-width interval.
  EXPECT_LT(r.cells[0].mean_lifetime(), 2.0);
  EXPECT_GT(r.cells[0].lifetime_ci.hi, r.cells[0].lifetime_ci.lo);
}

TEST(StoppingBudgetTest, DisablingTheFloorReproducesTheStall) {
  // The same cell with the floor explicitly zeroed runs to the cap — this
  // is the legacy semantics (and the bug), kept reachable on purpose so
  // the default's effect is observable.
  std::vector<CampaignCell> cells = {
      {model::SystemKind::S1, fast_plan(24, 16.0, 0.0, 40)}};
  CampaignConfig cfg;
  cfg.base_seed = 7;
  cfg.adaptive.enabled = true;
  cfg.adaptive.round_trials = 32;
  cfg.adaptive.target_rel_ci = 0.10;
  cfg.adaptive.abs_ci_floor = 0.0;
  cfg.adaptive.max_trials_per_cell = 128;
  const CampaignResult r = run_campaign(cells, cfg);
  EXPECT_EQ(r.cells[0].trials, cfg.adaptive.max_trials_per_cell);
}

// --- stopping_rule_satisfied unit behaviour -------------------------------

TEST(StoppingRuleTest, MeanLifetimeNeedsTwoTrials) {
  CellStats stats;
  StoppingRule rule;  // defaults: MeanLifetime, rel 0.10, floor 0
  rule.abs_floor = 100.0;
  EXPECT_FALSE(stopping_rule_satisfied(stats, rule, 0.95));
  stats.lifetime.add(5.0);
  stats.trials = 1;
  EXPECT_FALSE(stopping_rule_satisfied(stats, rule, 0.95));
  stats.lifetime.add(5.0);
  stats.trials = 2;
  EXPECT_TRUE(stopping_rule_satisfied(stats, rule, 0.95));
}

TEST(StoppingRuleTest, CompromiseProbabilityClosesAtZeroSuccesses) {
  // The Wilson interval's half-width at p-hat = 0 shrinks like z^2/2n, so
  // a zero-compromise cell closes once n is large enough for the absolute
  // floor — with floor 0.05 that is n ~ 40, not never.
  StoppingRule rule;
  rule.metric = StoppingRule::Metric::CompromiseProbability;
  rule.target_rel = 0.25;
  rule.abs_floor = 0.05;
  CellStats stats;
  stats.trials = 20;
  stats.compromised = 0;
  EXPECT_FALSE(stopping_rule_satisfied(stats, rule, 0.95));
  stats.trials = 200;
  EXPECT_TRUE(stopping_rule_satisfied(stats, rule, 0.95));
  // Symmetric at p-hat = 1 (all compromised): same closing behaviour.
  stats.compromised = 200;
  EXPECT_TRUE(stopping_rule_satisfied(stats, rule, 0.95));
}

TEST(StoppingRuleTest, LatencyQuantileVacuousWithoutSamples) {
  // A plan with no traffic plane yields zero latency samples forever; the
  // rule must report satisfied or such plans would stall at the cap.
  StoppingRule rule;
  rule.metric = StoppingRule::Metric::LatencyQuantile;
  rule.abs_floor = 0.1;
  CellStats stats;
  stats.trials = 50;
  EXPECT_TRUE(stopping_rule_satisfied(stats, rule, 0.95));
  // With samples, the rule engages: single-bin mass has a zero-width rank
  // band, so it closes; a median spread across decades with few samples
  // has a rank band spanning bins and cannot.
  stats.traffic.latency.add_bin(10, 100);
  EXPECT_TRUE(stopping_rule_satisfied(stats, rule, 0.95));
  StoppingRule median = rule;
  median.quantile = 0.5;
  CellStats spread;
  spread.trials = 4;
  spread.traffic.latency.add_bin(5, 2);
  spread.traffic.latency.add_bin(40, 1);
  spread.traffic.latency.add_bin(60, 1);
  EXPECT_FALSE(stopping_rule_satisfied(spread, median, 0.95));
}

TEST(StoppingRuleTest, InvalidRulesAreRejectedAtCampaignEntry) {
  std::vector<CampaignCell> cells = {
      {model::SystemKind::S1, fast_plan(64, 8.0, 0.5, 10)}};
  CampaignConfig cfg;
  cfg.adaptive.enabled = true;
  cfg.adaptive.max_trials_per_cell = 4;

  // CompromiseProbability without an absolute floor is exactly the
  // rare-event stall (no relative leg at p = 0): rejected, not run.
  StoppingRule bad;
  bad.metric = StoppingRule::Metric::CompromiseProbability;
  bad.abs_floor = 0.0;
  cfg.adaptive.rules = {bad};
  EXPECT_THROW(run_campaign(cells, cfg), ContractViolation);

  // A rule with no target at all can never be satisfied.
  StoppingRule never;
  never.target_rel = 0.0;
  never.abs_floor = 0.0;
  cfg.adaptive.rules = {never};
  EXPECT_THROW(run_campaign(cells, cfg), ContractViolation);

  // Quantiles live strictly inside (0, 1).
  StoppingRule q;
  q.metric = StoppingRule::Metric::LatencyQuantile;
  q.quantile = 1.0;
  q.abs_floor = 0.1;
  cfg.adaptive.rules = {q};
  EXPECT_THROW(run_campaign(cells, cfg), ContractViolation);
}

TEST(MultiMetricTest, EveryRuleMustHoldBeforeTheCellCloses) {
  // A calm (attack-off) cell satisfies the mean-lifetime rule after one
  // round (zero variance). Adding a compromise-probability rule keeps it
  // open until the Wilson interval narrows under the floor — strictly more
  // trials than the mean-only run, and at close both rules hold.
  net::ScenarioPlan calm = fast_plan(64, 8.0, 0.5, 20);
  calm.attack.enabled = false;
  std::vector<CampaignCell> cells = {{model::SystemKind::S1, calm}};

  CampaignConfig cfg;
  cfg.base_seed = 11;
  cfg.adaptive.enabled = true;
  cfg.adaptive.round_trials = 8;
  cfg.adaptive.max_trials_per_cell = 128;
  StoppingRule mean;
  mean.target_rel = 0.10;
  mean.abs_floor = 0.5;
  cfg.adaptive.rules = {mean};
  const CampaignResult mean_only = run_campaign(cells, cfg);
  EXPECT_EQ(mean_only.cells[0].trials, 8u);

  StoppingRule comp;
  comp.metric = StoppingRule::Metric::CompromiseProbability;
  comp.target_rel = 0.25;
  comp.abs_floor = 0.05;
  cfg.adaptive.rules = {mean, comp};
  const CampaignResult both = run_campaign(cells, cfg);
  EXPECT_GT(both.cells[0].trials, mean_only.cells[0].trials);
  EXPECT_LT(both.cells[0].trials, cfg.adaptive.max_trials_per_cell);
  for (const StoppingRule& rule : cfg.adaptive.rules) {
    EXPECT_TRUE(stopping_rule_satisfied(both.cells[0], rule, cfg.ci_level));
  }
}

TEST(MultiMetricTest, EmptyRulesEqualsDefaultMeanRule) {
  // effective_rules() synthesizes the default rule from the legacy knobs;
  // spelling that rule out explicitly must be bit-identical.
  std::vector<CampaignCell> cells = {
      {model::SystemKind::S1, fast_plan(128, 8.0, 0.5, 60)}};
  CampaignConfig cfg;
  cfg.base_seed = 31337;
  cfg.adaptive.enabled = true;
  cfg.adaptive.round_trials = 4;
  cfg.adaptive.target_rel_ci = 0.15;
  cfg.adaptive.max_trials_per_cell = 32;
  const CampaignResult implicit = run_campaign(cells, cfg);

  StoppingRule def;
  def.target_rel = cfg.adaptive.target_rel_ci;
  def.abs_floor = cfg.adaptive.abs_ci_floor;
  cfg.adaptive.rules = {def};
  const CampaignResult explicit_rule = run_campaign(cells, cfg);
  EXPECT_EQ(implicit.cells[0].trials, explicit_rule.cells[0].trials);
  EXPECT_EQ(implicit.cells[0].rounds, explicit_rule.cells[0].rounds);
  EXPECT_EQ(implicit.cells[0].lifetime.mean(),
            explicit_rule.cells[0].lifetime.mean());
  EXPECT_EQ(implicit.cells[0].lifetime.variance(),
            explicit_rule.cells[0].lifetime.variance());
}

// --- removed settings -------------------------------------------------------

TEST(CampaignConfigTest, WorkStealingIsRejectedNamingTheKey) {
  // The key stays only so committed specs decode; a campaign that sets it
  // fails loudly instead of silently running the one round schedule.
  std::vector<CampaignCell> cells = {
      {model::SystemKind::S1, fast_plan(64, 8.0, 0.5, 10)}};
  CampaignConfig cfg;
  cfg.adaptive.enabled = true;
  cfg.adaptive.max_trials_per_cell = 4;
  cfg.adaptive.work_stealing = true;
  try {
    run_campaign(cells, cfg);
    FAIL() << "work_stealing = true was accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("work_stealing"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace fortress::scenario
