// bench_campaign — scenario-campaign throughput and thread-scaling bench.
//
// Runs one fixed campaign grid (S1 + S2 under two scenario plans) at 1, 2, 4
// and 8 worker threads, reporting live trials/sec per configuration. Two
// properties are checked, not just measured:
//
//  1. Determinism: the aggregate statistics of every cell must be
//     BIT-identical at every thread count (the campaign's ordering
//     contract). Any mismatch is a hard failure.
//  2. Scaling: on a multi-core box the trials/sec column should grow
//     near-linearly up to the hardware thread count (trials are
//     embarrassingly parallel: one Simulator+LiveSystem per trial).
//
// Two further sections gate the PR-3 additions:
//
//  3. Trial-stack pooling: the same small-horizon grid run on fresh
//     per-trial stacks vs pooled per-worker TrialArenas. Aggregate
//     identity is ENFORCED (exit code); the >= 1.5x pooled speedup is
//     REPORTED here, and regressions of the pooled path's ns/trial are
//     gated by bench_diff against the committed baseline.
//  4. Adaptive sampling: the rounds-based stopping rule vs the fixed
//     budget, reporting trials/sec and the per-cell trial allocation.
//
//  5. Work-stealing rounds: a closed-cell-heavy grid (many calm cells that
//     close in round one on the absolute CI floor, two noisy cells that run
//     to the cap) with round reissue off vs on. The noisy cells are
//     cap-bound, so both schedules land on identical per-cell trial counts
//     and the aggregates must be BIT-identical (enforced); stealing just
//     reaches the cap in far fewer serial rounds, which is the reported
//     speedup.
//
// Writes BenchRecorder JSON (campaign_trials_t{N}, campaign_trial_fresh /
// _pooled, campaign_trials_adaptive, campaign_adaptive_nosteal / _steal) to
// the optional argv[1] path (default BENCH_campaign.json). The `bench_diff`
// CMake target now gates these entries against bench/baseline.json
// alongside the BENCH_results.json ones, so trials/sec regressions in the
// pooled/adaptive paths fail CI like any ns/op regression.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "scenario/campaign.hpp"
#include "scenario/differential.hpp"

using namespace fortress;
using namespace fortress::bench;
using namespace fortress::scenario;

namespace {

net::ScenarioPlan bench_plan(std::uint64_t chi, double kappa) {
  net::ScenarioPlan plan;
  plan.name = "chi" + std::to_string(chi);
  plan.keyspace = chi;
  plan.attack.probes_per_step = 8.0;
  plan.attack.indirect_fraction = kappa;
  plan.horizon_steps = 40;
  plan.latency = net::LatencySpec::uniform(0.01, 0.02);
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_campaign.json";

  std::vector<CampaignCell> cells =
      cross({model::SystemKind::S1, model::SystemKind::S2},
            {bench_plan(128, 0.5), bench_plan(256, 0.25)});

  CampaignConfig cfg;
  cfg.trials_per_cell = 64;
  cfg.base_seed = 7;
  const std::uint64_t grid_trials =
      cfg.trials_per_cell * static_cast<std::uint64_t>(cells.size());

  std::printf("Campaign thread-scaling bench: %zu cells x %llu trials\n\n",
              cells.size(),
              static_cast<unsigned long long>(cfg.trials_per_cell));
  std::printf("%8s %12s %14s %10s  %s\n", "threads", "trials/sec", "events/sec",
              "speedup", "aggregate fingerprint");
  rule(76);

  BenchRecorder recorder;
  std::uint64_t reference_fp = 0;
  double t1_rate = 0.0;
  bool identical = true;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    cfg.threads = threads;
    CampaignResult result;
    const std::string name = "campaign_trials_t" + std::to_string(threads);
    const double ns_per_op = recorder.time_and_add(
        name, /*iters=*/3, static_cast<double>(grid_trials),
        [&] { result = run_campaign(cells, cfg); });
    const double sec = ns_per_op / 1e9;
    const double rate = static_cast<double>(grid_trials) / sec;
    const double ev_rate = static_cast<double>(result.total_events) / sec;
    const std::uint64_t fp = campaign_fingerprint(result);
    if (threads == 1) {
      reference_fp = fp;
      t1_rate = rate;
    }
    identical = identical && fp == reference_fp;
    std::printf("%8u %12.0f %14.0f %9.2fx  %016llx%s\n", threads, rate,
                ev_rate, rate / t1_rate,
                static_cast<unsigned long long>(fp),
                fp == reference_fp ? "" : "  <-- MISMATCH");
  }
  rule(76);
  std::printf("\nAggregates bit-identical across thread counts: %s\n",
              pass(identical));

  // --- trial-stack pooling: fresh vs arena-reset stacks -------------------
  // The screening-campaign shape: a 1-step horizon with a short
  // re-randomization period, the regime where per-trial setup (registry,
  // network, machines, replicas) dominates and pooling pays — exactly the
  // workload of a wide triage sweep that runs thousands of cheap cells
  // before committing full horizons to the interesting ones.
  std::vector<CampaignCell> small_cells =
      cross({model::SystemKind::S1, model::SystemKind::S2},
            {bench_plan(128, 0.5), bench_plan(256, 0.25)});
  for (CampaignCell& cell : small_cells) {
    cell.plan.horizon_steps = 1;
    cell.plan.step_duration = 5.0;
    cell.plan.attack.start_time = 1.0;
  }

  CampaignConfig pool_cfg;
  pool_cfg.trials_per_cell = 256;
  pool_cfg.base_seed = 7;
  pool_cfg.threads = 1;  // isolate per-trial cost from scheduling effects
  const std::uint64_t pool_trials =
      pool_cfg.trials_per_cell * static_cast<std::uint64_t>(small_cells.size());

  std::printf("\nTrial-stack pooling (1-step screening grid, %llu trials, "
              "1 thread):\n\n",
              static_cast<unsigned long long>(pool_trials));
  std::printf("%8s %12s %14s\n", "stacks", "trials/sec", "ns/trial");
  rule(40);
  double fresh_rate = 0.0;
  double pooled_rate = 0.0;
  std::uint64_t fp_fresh = 0;
  std::uint64_t fp_pooled = 0;
  for (bool pooled : {false, true}) {
    pool_cfg.reuse_trial_stacks = pooled;
    CampaignResult result;
    const std::string name =
        pooled ? "campaign_trial_pooled" : "campaign_trial_fresh";
    const double ns_per_trial = recorder.time_and_add(
        name, /*iters=*/10, 1.0,
        [&] { result = run_campaign(small_cells, pool_cfg); }) /
        static_cast<double>(pool_trials);
    const double rate = 1e9 / ns_per_trial;
    (pooled ? pooled_rate : fresh_rate) = rate;
    (pooled ? fp_pooled : fp_fresh) = campaign_fingerprint(result);
    std::printf("%8s %12.0f %14.0f\n", pooled ? "pooled" : "fresh", rate,
                ns_per_trial);
  }
  rule(40);
  const bool pool_identical = fp_pooled == fp_fresh;
  identical = identical && pool_identical;
  std::printf("pooled speedup: %.2fx (want >= 1.5x at small horizons); "
              "aggregates identical: %s\n",
              pooled_rate / fresh_rate, pass(pool_identical));

  // --- adaptive sampling vs the fixed budget ------------------------------
  CampaignConfig ad_cfg;
  ad_cfg.base_seed = 7;
  ad_cfg.threads = 1;
  ad_cfg.adaptive.enabled = true;
  ad_cfg.adaptive.round_trials = 16;
  ad_cfg.adaptive.target_rel_ci = 0.10;
  ad_cfg.adaptive.max_trials_per_cell = 192;
  CampaignResult adaptive_result;
  const double ad_ns = recorder.time_and_add(
      "campaign_trials_adaptive", /*iters=*/3, 1.0,
      [&] { adaptive_result = run_campaign(cells, ad_cfg); });
  const double ad_rate =
      static_cast<double>(adaptive_result.total_trials) / (ad_ns / 1e9);

  std::printf("\nAdaptive sampling (target rel-CI %.2f, rounds of %llu, cap "
              "%llu):\n\n",
              ad_cfg.adaptive.target_rel_ci,
              static_cast<unsigned long long>(ad_cfg.adaptive.round_trials),
              static_cast<unsigned long long>(
                  ad_cfg.adaptive.max_trials_per_cell));
  std::printf("%8s %16s %8s %8s %12s %22s\n", "system", "plan", "trials",
              "rounds", "mean EL", "95% CI");
  rule(80);
  for (const CellStats& cell : adaptive_result.cells) {
    std::printf("%8s %16s %8llu %8llu %12.1f [%8.1f, %8.1f]\n",
                model::to_string(cell.system).c_str(), cell.plan_name.c_str(),
                static_cast<unsigned long long>(cell.trials),
                static_cast<unsigned long long>(cell.rounds),
                cell.mean_lifetime(), cell.lifetime_ci.lo, cell.lifetime_ci.hi);
  }
  rule(80);
  const std::uint64_t fixed_budget =
      ad_cfg.adaptive.max_trials_per_cell *
      static_cast<std::uint64_t>(cells.size());
  std::printf("adaptive: %llu trials at %.0f trials/sec (fixed budget at the "
              "cap would be %llu)\n",
              static_cast<unsigned long long>(adaptive_result.total_trials),
              ad_rate, static_cast<unsigned long long>(fixed_budget));

  // --- work-stealing rounds on a closed-cell-heavy grid -------------------
  // The triage-sweep shape the reissue planner exists for: most cells are
  // calm (near-zero-mean lifetimes, closed by the absolute CI floor after
  // round one) while a couple of noisy cells need the full cap. Without
  // stealing the noisy cells grind through cap/round_trials serial rounds at
  // round_trials each; with stealing they inherit the closed cells' capacity
  // and hit the cap in a round or two. Both schedules are cap-bound on the
  // noisy cells and close the calm cells at the same round-one boundary, so
  // per-cell trial counts — and therefore aggregates — must be bit-identical.
  std::vector<net::ScenarioPlan> steal_plans;
  for (std::uint64_t chi : {20ULL, 22ULL, 24ULL, 26ULL, 28ULL, 30ULL}) {
    net::ScenarioPlan calm = bench_plan(chi, 0.25);
    calm.name = "calm" + std::to_string(chi);
    calm.attack.probes_per_step = 16.0;
    steal_plans.push_back(calm);
  }
  net::ScenarioPlan noisy = bench_plan(512, 0.25);
  noisy.name = "noisy512";
  steal_plans.push_back(noisy);
  std::vector<CampaignCell> steal_cells =
      cross({model::SystemKind::S1, model::SystemKind::S2}, steal_plans);

  CampaignConfig steal_cfg;
  steal_cfg.base_seed = 7;
  steal_cfg.threads = 4;
  steal_cfg.adaptive.enabled = true;
  steal_cfg.adaptive.round_trials = 32;
  steal_cfg.adaptive.target_rel_ci = 0.02;  // unreachable for noisy cells
  steal_cfg.adaptive.abs_ci_floor = 0.5;    // closes the calm cells early
  steal_cfg.adaptive.max_trials_per_cell = 256;

  std::printf("\nWork-stealing rounds (%zu cells: %zu calm + 2 noisy, cap "
              "%llu, 4 threads):\n\n",
              steal_cells.size(), steal_cells.size() - 2,
              static_cast<unsigned long long>(
                  steal_cfg.adaptive.max_trials_per_cell));
  std::printf("%10s %12s %10s %10s\n", "stealing", "trials/sec", "trials",
              "rounds");
  rule(46);
  double nosteal_rate = 0.0;
  double steal_rate = 0.0;
  std::uint64_t fp_nosteal = 0;
  std::uint64_t fp_steal = 0;
  for (bool stealing : {false, true}) {
    steal_cfg.adaptive.work_stealing = stealing;
    CampaignResult result;
    const std::string name =
        stealing ? "campaign_adaptive_steal" : "campaign_adaptive_nosteal";
    const double ns = recorder.time_and_add(
        name, /*iters=*/3, 1.0,
        [&] { result = run_campaign(steal_cells, steal_cfg); });
    const double rate =
        static_cast<double>(result.total_trials) / (ns / 1e9);
    (stealing ? steal_rate : nosteal_rate) = rate;
    // Stealing changes how many rounds a cell stays open, not its trials.
    std::uint64_t max_rounds = 0;
    for (CellStats& cell : result.cells) {
      max_rounds = std::max(max_rounds, cell.rounds);
      cell.rounds = 0;
    }
    (stealing ? fp_steal : fp_nosteal) = campaign_fingerprint(result);
    std::printf("%10s %12.0f %10llu %10llu\n", stealing ? "on" : "off", rate,
                static_cast<unsigned long long>(result.total_trials),
                static_cast<unsigned long long>(max_rounds));
  }
  rule(46);
  const bool steal_identical = fp_steal == fp_nosteal;
  identical = identical && steal_identical;
  std::printf("stealing speedup: %.2fx; aggregates identical: %s\n",
              steal_rate / nosteal_rate, pass(steal_identical));

  recorder.write_json(out_path);
  return identical ? 0 : 1;
}
