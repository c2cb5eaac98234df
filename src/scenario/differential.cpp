#include "scenario/differential.hpp"

#include "common/json.hpp"
#include "scenario/shard.hpp"

namespace fortress::scenario {

std::uint64_t campaign_fingerprint(const CampaignResult& result) {
  return json::fnv1a64(campaign_result_to_json(result));
}

std::vector<std::string> differential_check(
    const net::ScenarioPlan& plan, const DifferentialOptions& options) {
  std::vector<CampaignCell> cells;
  for (model::SystemKind s : options.systems) cells.push_back({s, plan});

  CampaignConfig reference;
  reference.trials_per_cell = options.trials_per_cell;
  reference.base_seed = options.base_seed;
  reference.threads = 1;
  reference.reuse_trial_stacks = true;
  reference.scheduler = sim::SchedulerKind::Wheel;
  const std::uint64_t want =
      campaign_fingerprint(run_campaign(cells, reference));

  struct Arm {
    const char* label;
    CampaignConfig cfg;
  };
  std::vector<Arm> arms;
  {
    Arm fresh{"fresh-stacks (vs pooled arenas)", reference};
    fresh.cfg.reuse_trial_stacks = false;
    arms.push_back(fresh);
    Arm threads{"8 threads (vs 1)", reference};
    threads.cfg.threads = options.threads;
    arms.push_back(threads);
    Arm heap{"heap scheduler (vs wheel)", reference};
    heap.cfg.scheduler = sim::SchedulerKind::Heap;
    arms.push_back(heap);
  }

  std::vector<std::string> divergences;
  for (const Arm& arm : arms) {
    const std::uint64_t got =
        campaign_fingerprint(run_campaign(cells, arm.cfg));
    if (got != want) {
      divergences.push_back("plan '" + plan.name + "': " + arm.label +
                            " diverged — fingerprint " + json::hex64(got) +
                            " != reference " + json::hex64(want));
    }
  }
  return divergences;
}

}  // namespace fortress::scenario
