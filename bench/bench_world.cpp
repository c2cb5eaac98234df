// bench_world — simulator-core and population-plane scale bench.
//
// Two question sets, both feeding the "million-host worlds" acceptance:
//
//  1. Raw scheduler throughput (events/s) for the hierarchical timer wheel
//     vs the binary-heap reference, on a campaign-like delay mix, at small
//     (campaign-today) and large (population-scale) pending-event counts.
//     The heap's O(log n) push/pop degrades with pending count; the wheel
//     must stay flat.
//
//  2. Population-plane cost: ns per client-tick and events/s for compact
//     ClientPopulation trials at 10^3 / 10^4 / 10^5 clients under the
//     wheel scheduler (one wheel timer per cohort, batched per-tier
//     delivery). Run via scenario::run_trial so the numbers include the
//     full S2 service stack the clients talk to.
//
// Writes BenchRecorder JSON (world_sched_*, world_pop_*) to argv[1]
// (default BENCH_world.json); wired into the `bench` and `bench_diff`
// targets, so scheduler or population regressions >15% fail like any other
// bench.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "scenario/campaign.hpp"
#include "sim/simulator.hpp"

using namespace fortress;
using namespace fortress::bench;

namespace {

// Self-perpetuating event storm with a campaign-like delay mix: mostly
// short "delivery" latencies, some "service/heartbeat" timers, a tail of
// long "step/fault" timers; a slice of events also arm-and-cancel a retry
// timer (the client pattern that exercises cancel()).
struct StormStats {
  std::uint64_t events = 0;
};

std::uint64_t run_storm(sim::SchedulerKind kind, int chains,
                        std::uint64_t horizon_events, std::uint64_t seed,
                        double* checksum) {
  sim::Simulator sim(kind);
  Rng rng(seed);
  StormStats stats;
  double acc = 0.0;

  struct Chain {
    sim::Simulator* sim;
    Rng* rng;
    StormStats* stats;
    std::uint64_t budget;
    double* acc;
    sim::EventId retry = 0;

    void fire() {
      ++stats->events;
      *acc += sim->now();
      if (stats->events >= budget) return;
      const double u = rng->uniform01();
      double delay;
      if (u < 0.80) {
        delay = 0.01 + 0.01 * rng->uniform01();  // delivery latency
      } else if (u < 0.95) {
        delay = 0.5 + 1.0 * rng->uniform01();  // service/heartbeat period
      } else {
        delay = 5.0 + 45.0 * rng->uniform01();  // step/fault horizon
      }
      if (retry != 0) {
        sim->cancel(retry);
        retry = 0;
      }
      if (u < 0.25) {
        // Arm a retry that a future fire() cancels (client completion).
        retry = sim->schedule_after(delay * 8.0, [] {});
      }
      Chain* self = this;
      sim->schedule_after(delay, [self] { self->fire(); });
    }
  };

  std::vector<Chain> chain_storage(static_cast<std::size_t>(chains));
  for (int i = 0; i < chains; ++i) {
    chain_storage[static_cast<std::size_t>(i)] =
        Chain{&sim, &rng, &stats, horizon_events, &acc, 0};
    Chain* self = &chain_storage[static_cast<std::size_t>(i)];
    sim.schedule_after(0.001 * (i + 1), [self] { self->fire(); });
  }
  sim.run();
  *checksum += acc;
  return stats.events;
}

void bench_sched(BenchRecorder& rec, const char* label, int chains,
                 std::uint64_t events_per_rep) {
  double checksum_wheel = 0.0;
  double checksum_heap = 0.0;
  for (sim::SchedulerKind kind :
       {sim::SchedulerKind::Wheel, sim::SchedulerKind::Heap}) {
    double* checksum =
        kind == sim::SchedulerKind::Wheel ? &checksum_wheel : &checksum_heap;
    const int reps = 3;
    std::uint64_t total_events = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      total_events += run_storm(kind, chains, events_per_rep,
                                0x5EEDULL + static_cast<std::uint64_t>(r),
                                checksum);
    }
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double ns_per_event = sec * 1e9 / static_cast<double>(total_events);
    const double events_per_sec = static_cast<double>(total_events) / sec;
    const char* kind_name =
        sim::kSchedulerKindNames.names[static_cast<std::size_t>(kind)];
    std::printf("  %-28s %-6s %9.1f ns/event %12.0f events/s\n", label,
                kind_name, ns_per_event, events_per_sec);
    rec.add(std::string("world_sched_") + label + "_" + kind_name,
            ns_per_event, events_per_sec);
  }
  // Identical virtual-time trajectories under both schedulers.
  if (checksum_wheel != checksum_heap) {
    std::fprintf(stderr,
                 "FAIL: wheel/heap trajectory checksums differ (%a vs %a)\n",
                 checksum_wheel, checksum_heap);
    std::exit(1);
  }
}

// Full population trial through scenario::run_trial: N compact clients
// against a fortified (S2) deployment, wheel scheduler. ns_per_op is the
// cost of one client-tick (one row visit of the SoA scan: clients x
// horizon / tick_interval), items_per_sec is simulator events/s for the
// whole trial — both must stay flat-per-client as N grows.
void bench_pop(BenchRecorder& rec, const char* label, std::uint64_t clients,
               double rate, std::uint64_t horizon_steps) {
  net::ScenarioPlan plan;
  plan.name = label;
  plan.latency = net::LatencySpec::uniform(0.05, 0.2);
  plan.attack.enabled = false;
  plan.horizon_steps = horizon_steps;
  plan.population.clients = clients;
  plan.population.request_rate = rate;

  const double horizon =
      static_cast<double>(horizon_steps) * plan.step_duration;
  const double client_ticks = static_cast<double>(clients) * horizon /
                              plan.population.tick_interval;

  const int reps = 3;
  std::uint64_t total_events = 0;
  std::uint64_t completed = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    scenario::TrialOutcome out =
        scenario::TrialArena(sim::SchedulerKind::Wheel)
            .run(model::SystemKind::S2, plan,
                 0xB0B5ULL + static_cast<std::uint64_t>(r));
    total_events += out.events_executed;
    completed += out.population.completed;
  }
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double ns_per_client_tick =
      sec * 1e9 / (client_ticks * static_cast<double>(reps));
  const double events_per_sec = static_cast<double>(total_events) / sec;
  std::printf(
      "  %-16s %9.2f ns/client-tick %12.0f events/s (%llu completed)\n", label,
      ns_per_client_tick, events_per_sec,
      static_cast<unsigned long long>(completed));
  rec.add(std::string("world_pop_") + label, ns_per_client_tick,
          events_per_sec);
}

}  // namespace

int main(int argc, char** argv) {
  BenchRecorder rec;

  std::printf("Scheduler storm (campaign-like delay mix):\n");
  bench_sched(rec, "storm_256", 256, 400000);
  bench_sched(rec, "storm_100k", 100000, 2000000);

  std::printf("Population plane (S2 deployment, wheel scheduler):\n");
  bench_pop(rec, "1k", 1'000, 0.002, 10);
  bench_pop(rec, "10k", 10'000, 0.001, 4);
  bench_pop(rec, "100k", 100'000, 0.0003, 1);

  const std::string out = argc > 1 ? argv[1] : "BENCH_world.json";
  if (!rec.write_json(out)) return 1;
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
