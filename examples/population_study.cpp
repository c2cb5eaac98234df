// population_study — what a realistic client population costs, and what it
// does NOT change.
//
//   $ ./population_study [clients...]     (default: 0 1000 10000 100000)
//
// Two questions, one table each:
//
//  1. Inertness: the paper's lifetime estimates come from small-world
//     campaigns (attacker + a handful of servers/proxies). Does adding a
//     large background population of compact clients change the measured
//     expected lifetime? It must not — the attack plane and the population
//     plane draw from independent RNG substreams, so the campaign section
//     shows the same mean lifetime (same seeds) at every population size,
//     while the population columns (offered/completed/p99) grow with scale.
//
//  2. Cost: wall-clock per trial as the population grows 0 -> 10^5 under
//     the timer-wheel scheduler, on stderr so that stdout is the same on
//     every run. The compact SoA plane (<= 64 bytes/client,
//     one timer per cohort, batched per-tier delivery) keeps the per-client
//     increment small enough that million-host worlds are a campaign away,
//     not a rewrite away.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "scenario/campaign.hpp"

using namespace fortress;

namespace {

net::ScenarioPlan study_plan(std::uint64_t clients) {
  net::ScenarioPlan plan;
  plan.name = "population-study";
  plan.keyspace = 256;
  plan.attack.probes_per_step = 8.0;
  plan.attack.indirect_fraction = 0.5;
  plan.horizon_steps = 40;
  plan.latency = net::LatencySpec::uniform(0.02, 0.1);
  plan.population.clients = clients;
  plan.population.request_rate = 0.001;
  plan.population.distinct_keys = 64;
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint64_t> sizes;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) {
      sizes.push_back(static_cast<std::uint64_t>(std::atoll(argv[i])));
    }
  } else {
    sizes = {0, 1'000, 10'000, 100'000};
  }

  std::printf("FORTRESS population study (S2, wheel scheduler)\n\n");
  std::printf("%9s %7s %10s %10s %10s %9s %9s\n", "clients", "trials",
              "mean EL", "offered", "completed", "p50 lat", "p99 lat");

  std::vector<double> means;
  for (std::uint64_t clients : sizes) {
    net::ScenarioPlan plan = study_plan(clients);
    // Large populations: fewer trials, same seeds — the lifetime column
    // stays comparable because trial t always uses trial_seed(base, 0, t).
    const std::uint64_t trials = clients >= 100'000 ? 3 : 8;

    scenario::CampaignConfig cfg;
    cfg.trials_per_cell = trials;
    cfg.base_seed = 7100;
    cfg.threads = 1;
    cfg.scheduler = sim::SchedulerKind::Wheel;
    std::vector<scenario::CampaignCell> cells = {
        {model::SystemKind::S2, plan}};

    auto t0 = std::chrono::steady_clock::now();
    scenario::CampaignResult result = scenario::run_campaign(cells, cfg);
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const scenario::CellStats& cell = result.cells[0];
    means.push_back(cell.mean_lifetime());
    const core::PopulationStats& pop = cell.population;
    char p50[16] = "-";
    char p99[16] = "-";
    if (pop.latency.count() > 0) {
      std::snprintf(p50, sizeof p50, "%.3f", pop.latency.quantile(0.5));
      std::snprintf(p99, sizeof p99, "%.3f", pop.latency.quantile(0.99));
    }
    std::printf("%9llu %7llu %10.2f %10llu %10llu %9s %9s\n",
                static_cast<unsigned long long>(clients),
                static_cast<unsigned long long>(cell.trials),
                cell.mean_lifetime(),
                static_cast<unsigned long long>(pop.offered),
                static_cast<unsigned long long>(pop.completed), p50, p99);
    std::fprintf(stderr, "%9llu clients: %.1f ms/trial\n",
                 static_cast<unsigned long long>(clients),
                 1e3 * sec / static_cast<double>(cell.trials));
  }

  std::printf(
      "\nThe mean-EL column is population-invariant: attack and population\n"
      "planes draw from independent substreams of the same trial seed, so\n"
      "background load never perturbs the lifetime estimate (the golden_de\n"
      "spec pins a 10^4-client cell bit-exactly).\n");
  // Bit-equal, not close: the independent substreams make this exact.
  const bool invariant =
      std::all_of(means.begin(), means.end(),
                  [&](double m) { return m == means.front(); });
  std::printf("mean EL population-invariant: %s\n", invariant ? "yes" : "no");
  return 0;
}
