// partition_study — partition tolerance of S0 (SMR quorum) vs S2 (FORTRESS
// proxies), driven by the committed scenario specs.
//
//   $ ./partition_study
//
// Two sections:
//  1. replays the committed partition specs (scenarios/partition_*.json)
//     under their own config — same seed, same budget — and prints their
//     cell aggregates, so the numbers on screen are the numbers in the
//     pinned reports (scenarios/reports/);
//  2. sweeps the partition duration upward from zero to show the divergent
//     failure modes: cutting two of four S0 replicas stalls the quorum (the
//     service halts but the keys stay safe), while cutting all S2 proxies
//     severs the indirection tier and leaves the server's direct surface as
//     the only attackable channel.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/campaign.hpp"
#include "scenario/plan_codec.hpp"
#include "scenario/shard.hpp"

#ifndef FORTRESS_SCENARIO_DIR
#error "build defines FORTRESS_SCENARIO_DIR (see CMakeLists.txt)"
#endif

using namespace fortress;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void print_cells(const std::vector<scenario::CampaignCell>& cells,
                 const scenario::CampaignResult& result) {
  std::printf("  %-28s %6s %7s %12s %10s %12s\n", "plan", "system",
              "compr.", "censored", "mean EL", "completed/offered");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const scenario::CellStats& c = result.cells[i];
    std::printf("  %-28s %6s %7llu %12llu %10.1f %7llu/%llu\n",
                c.plan_name.c_str(), model::to_string(cells[i].system).c_str(),
                static_cast<unsigned long long>(c.compromised),
                static_cast<unsigned long long>(c.censored),
                c.lifetime.count() > 0 ? c.lifetime.mean() : 0.0,
                static_cast<unsigned long long>(c.traffic.completed),
                static_cast<unsigned long long>(c.traffic.offered));
  }
}

void replay_spec(const std::string& filename) {
  const std::string path = std::string(FORTRESS_SCENARIO_DIR) + "/" + filename;
  const scenario::CampaignSpec spec =
      scenario::campaign_spec_from_json(slurp(path));
  std::printf("%s — %s\n  digest %s, seed %llu, %llu trials/cell\n",
              spec.name.c_str(), spec.description.c_str(),
              scenario::plan_digest_string(spec.plans.front()).c_str(),
              static_cast<unsigned long long>(spec.config.base_seed),
              static_cast<unsigned long long>(spec.config.trials_per_cell));
  const std::vector<scenario::CampaignCell> cells = spec.cells();
  print_cells(cells, scenario::run_campaign(cells, spec.config));
  std::printf("\n");
}

// One sweep point: the same adversarial environment, but the partition
// window's duration is scaled. S0's island cuts 2 of its 4 replicas (no
// quorum on either side); S2's island cuts every proxy away from the
// servers and the outside world.
void sweep_section() {
  const double durations[] = {0.0, 25.0, 100.0, 400.0};
  std::vector<scenario::CampaignCell> cells;
  for (double dur : durations) {
    net::ScenarioPlan base;
    base.keyspace = 256;
    base.attack.probes_per_step = 8.0;
    base.horizon_steps = 12;
    base.step_duration = 50.0;
    base.latency = net::LatencySpec::uniform(0.01, 0.05);
    base.traffic.clients = 2;
    base.traffic.schedule = {{0.0, 1.0}};

    net::ScenarioPlan s0 = base;
    char name[64];
    std::snprintf(name, sizeof name, "s0-quorum-cut dur=%g", dur);
    s0.name = name;
    if (dur > 0.0) {
      s0.partitions.push_back({50.0, 50.0 + dur,
                               {"s0-replica-0", "s0-replica-1"}});
    }
    s0.validate();
    cells.push_back({model::SystemKind::S0, s0});

    net::ScenarioPlan s2 = base;
    std::snprintf(name, sizeof name, "s2-proxy-cut dur=%g", dur);
    s2.name = name;
    s2.n_proxies = 3;
    if (dur > 0.0) {
      s2.partitions.push_back(
          {50.0, 50.0 + dur, {"s2-proxy-0", "s2-proxy-1", "s2-proxy-2"}});
    }
    s2.validate();
    cells.push_back({model::SystemKind::S2, s2});
  }

  scenario::CampaignConfig cfg;
  cfg.trials_per_cell = 8;
  cfg.base_seed = 77;
  std::printf("Partition-duration sweep (window opens at t=50, %llu trials "
              "per cell):\n",
              static_cast<unsigned long long>(cfg.trials_per_cell));
  print_cells(cells, scenario::run_campaign(cells, cfg));
}

}  // namespace

int main() {
  std::printf("FORTRESS partition study\n");
  std::printf("EL = whole unit time-steps before compromise "
              "(censored at the horizon)\n\n");
  try {
    std::printf("== committed corpus fixtures ==\n\n");
    replay_spec("partition_quorum_loss.json");
    replay_spec("partition_proxy_islands.json");
  } catch (const std::exception& e) {
    std::printf("corpus replay skipped: %s\n\n", e.what());
  }
  std::printf("== duration sweep ==\n\n");
  sweep_section();
  return 0;
}
