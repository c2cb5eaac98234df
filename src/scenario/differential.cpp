#include "scenario/differential.hpp"

#include <algorithm>
#include <string_view>

#include "scenario/shard.hpp"

namespace fortress::scenario {
namespace {

/// The report of `cells` run under `cfg` in `mode`.
std::string report_in(const std::vector<CampaignCell>& cells,
                      CampaignConfig cfg, const ExecutionMode& mode) {
  cfg.threads = mode.threads;
  cfg.reuse_trial_stacks = mode.pooled;
  cfg.scheduler = mode.scheduler;
  return campaign_result_to_json(run_campaign(cells, cfg));
}

/// "report line N: got `...`, want `...`" for the first line that differs
/// between two reports that are not equal.
std::string first_difference(std::string_view got, std::string_view want) {
  auto unindented = [](std::string_view s) {
    return std::string(s.substr(std::min(s.find_first_not_of(' '), s.size())));
  };
  for (std::size_t line = 1;; ++line) {
    const std::size_t g = got.find('\n');
    const std::size_t w = want.find('\n');
    if (got.substr(0, g) != want.substr(0, w) || got.empty() || want.empty()) {
      return "report line " + std::to_string(line) + ": got `" +
             unindented(got.substr(0, g)) + "`, want `" +
             unindented(want.substr(0, w)) + "`";
    }
    got.remove_prefix(std::min(g + 1, got.size()));
    want.remove_prefix(std::min(w + 1, want.size()));
  }
}

}  // namespace

std::string to_string(const ExecutionMode& mode) {
  return std::to_string(mode.threads) +
         (mode.threads == 1 ? " thread, " : " threads, ") +
         (mode.pooled ? "pooled-stacks, " : "fresh-stacks, ") +
         sim::kSchedulerKindNames.names[static_cast<std::size_t>(
             mode.scheduler)] +
         " scheduler";
}

std::vector<std::string> report_divergences(
    const std::vector<CampaignCell>& cells, const CampaignConfig& base,
    const std::vector<ExecutionMode>& modes, const std::string& want) {
  std::vector<std::string> divergences;
  for (const ExecutionMode& mode : modes) {
    const std::string got = report_in(cells, base, mode);
    if (got != want) {
      divergences.push_back(to_string(mode) + " diverged at " +
                            first_difference(got, want));
    }
  }
  return divergences;
}

std::vector<std::string> differential_check(
    const net::ScenarioPlan& plan, const DifferentialOptions& options) {
  std::vector<CampaignCell> cells;
  for (model::SystemKind s : options.systems) cells.push_back({s, plan});
  CampaignConfig base;
  base.trials_per_cell = options.trials_per_cell;
  base.base_seed = options.base_seed;

  std::vector<std::string> divergences = report_divergences(
      cells, base,
      {{1, /*pooled=*/false}, {8}, {1, true, sim::SchedulerKind::Heap}},
      report_in(cells, base, ExecutionMode{}));
  for (std::string& d : divergences) d = "plan '" + plan.name + "': " + d;
  return divergences;
}

}  // namespace fortress::scenario
