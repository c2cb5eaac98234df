// detection_demo — the §2.2 story, live: proxies log invalid requests and
// correlate server child crashes with the sources whose requests they
// forwarded; an attacker pacing probes too fast gets blacklisted while an
// honest client sharing the system is never harmed.
//
//   $ ./detection_demo
#include <cstdio>
#include <memory>

#include "attack/derand_attacker.hpp"
#include "core/live_system.hpp"
#include "replication/service.hpp"

using namespace fortress;

int main() {
  sim::Simulator sim;
  net::ScenarioPlan cfg;
  cfg.keyspace = 1ull << 16;
  cfg.rerandomize = true;
  cfg.step_duration = 100.0;
  cfg.proxy_blacklist = true;
  cfg.detection_threshold = 5;
  cfg.detection_window = 500.0;

  core::LiveS2 fortress(sim, cfg, /*seed=*/99, [](std::uint32_t) {
    return std::make_unique<replication::KvService>();
  });
  fortress.start();
  sim.run_until(5.0);

  // An honest client issuing a steady trickle of real requests.
  core::Client honest(sim, fortress.network(), fortress.registry(),
                      fortress.directory(), core::ClientConfig{"honest"});
  std::uint64_t honest_ok = 0;
  sim::PeriodicTimer workload(sim, 40.0, [&] {
    honest.submit(bytes_of("PUT x 1"),
                  [&](std::uint64_t, const Bytes&) { ++honest_ok; });
  });
  workload.start();

  // The de-randomization attacker probing the hidden server tier through
  // the proxies at 10 crafted requests per step.
  attack::AttackerConfig acfg;
  acfg.keyspace = cfg.keyspace;
  acfg.step_duration = cfg.step_duration;
  acfg.probes_per_step = 0.001;  // direct channel idle for this demo
  acfg.indirect_probes_per_step = 10.0;
  attack::DerandAttacker attacker(sim, fortress.network(), acfg);
  attacker.set_indirect_channel(fortress.directory().proxies);
  attacker.start();

  std::printf("Proxy detection timeline (threshold: %u suspicious events in "
              "a %.0f-unit window)\n\n", cfg.detection_threshold,
              cfg.detection_window);
  std::printf("%8s %16s %18s %14s %12s\n", "time", "attacker probes",
              "crashes observed", "blacklisted by", "honest OKs");
  for (int i = 0; i < 74; ++i) std::putchar('-');
  std::putchar('\n');

  for (int checkpoint = 1; checkpoint <= 8; ++checkpoint) {
    sim.run_until(checkpoint * 100.0);
    std::uint64_t crashes = 0;
    int blacklisting = 0;
    for (int i = 0; i < fortress.n_proxies(); ++i) {
      crashes += fortress.proxy(i).stats().server_crashes_observed;
      if (fortress.proxy(i).blacklisted("attacker")) ++blacklisting;
    }
    std::printf("%8.0f %16llu %18llu %11d/%d %12llu\n", sim.now(),
                static_cast<unsigned long long>(attacker.stats().indirect_probes),
                static_cast<unsigned long long>(crashes), blacklisting,
                fortress.n_proxies(),
                static_cast<unsigned long long>(honest_ok));
  }
  for (int i = 0; i < 74; ++i) std::putchar('-');
  std::putchar('\n');

  bool honest_clean = true;
  for (int i = 0; i < fortress.n_proxies(); ++i) {
    if (fortress.proxy(i).blacklisted("honest")) honest_clean = false;
  }
  std::printf("\nAttacker shut out by all proxies; honest client never "
              "flagged: %s\n",
              honest_clean ? "yes" : "NO (bug!)");
  std::printf("System compromised: %s\n", fortress.failed() ? "YES" : "no");
  std::printf("\nThis forced rate-reduction is what Definition 5 abstracts "
              "as the indirect attack coefficient kappa < 1.\n");
  workload.stop();
  return honest_clean ? 0 : 1;
}
