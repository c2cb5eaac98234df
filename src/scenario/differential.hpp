// differential.hpp — the machine-enforced determinism contract.
//
// A campaign report must be bit-identical in every execution mode: any
// thread count, pooled or fresh trial stacks, wheel or heap scheduler.
// report_divergences is the one harness for it: it compares each mode's
// whole report (campaign_result_to_json: every CellStats field, doubles by
// bit pattern) byte for byte with a reference run's report or a committed
// pin. differential_check pushes one plan through three fixed arms, for the
// plan fuzz test (Plans/PlanFuzzTest.*) and plan_tool's fuzz and minimize.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/params.hpp"
#include "net/scenario.hpp"
#include "scenario/campaign.hpp"

namespace fortress::scenario {

/// How a campaign is executed; none of it may change the report.
struct ExecutionMode {
  unsigned threads = 1;
  bool pooled = true;  ///< CampaignConfig::reuse_trial_stacks
  sim::SchedulerKind scheduler = sim::SchedulerKind::Wheel;
};

/// "8 threads, pooled-stacks, wheel scheduler".
std::string to_string(const ExecutionMode& mode);

/// Runs `cells` once per mode (`base` with the mode's threads, stacks and
/// scheduler) and compares each report with `want` byte for byte. Returns
/// one message per diverging mode, naming the mode and the first report
/// line that differs; empty when every mode reproduces `want`.
std::vector<std::string> report_divergences(
    const std::vector<CampaignCell>& cells, const CampaignConfig& base,
    const std::vector<ExecutionMode>& modes, const std::string& want);

struct DifferentialOptions {
  /// One campaign cell per listed class. Defaults to all three so class-
  /// specific event paths (SMR quorums, PB failover, the proxy tier) are
  /// all exercised; shrink to one class for cheap minimizer predicates.
  std::vector<model::SystemKind> systems = {
      model::SystemKind::S0, model::SystemKind::S1, model::SystemKind::S2};
  std::uint64_t trials_per_cell = 3;
  std::uint64_t base_seed = 1;
};

/// Demands the reference campaign's report (1 thread, pooled, wheel) from
/// three arms: fresh stacks, 8 threads, heap scheduler. Returns one message
/// per diverging arm, prefixed with the plan's name; only the arm's own
/// message contains "fresh-stacks", "threads" or "heap scheduler"
/// (plan_tool's predicates match on them).
std::vector<std::string> differential_check(
    const net::ScenarioPlan& plan, const DifferentialOptions& options = {});

}  // namespace fortress::scenario
