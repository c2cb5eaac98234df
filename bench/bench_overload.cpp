// bench_overload — overload-plane throughput and tail-latency bench.
//
// Drives the open-loop traffic generator against S1 deployments with a
// bounded service queue under each shed/degrade policy, and reports, per
// policy: trial throughput (ns/trial, gated by bench_diff) plus the
// campaign's new tail-latency aggregates (p50/p99/p999 of completed
// requests, mean per-trial goodput, shed and timed-out counts) as extra
// JSON keys that bench_diff's --report renders but does not gate.
//
// Two properties are enforced, not just measured:
//
//  1. Determinism: every policy cell's traffic aggregates (latency
//     histogram fingerprint included) must be bit-identical between the
//     1-thread and 4-thread campaign runs.
//  2. Inertness: a control cell running the SAME plan with the service
//     queue and traffic generator disabled measures the probe-horizon
//     path; its ns/trial is recorded as overload_probe_only and gated by
//     bench_diff against the committed baseline, bounding the overhead the
//     overload plane is allowed to impose on plans that do not opt in.
//
// Writes BenchRecorder JSON to the optional argv[1] path (default
// BENCH_overload.json).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "scenario/campaign.hpp"
#include "scenario/differential.hpp"

using namespace fortress;
using namespace fortress::bench;
using namespace fortress::scenario;

namespace {

net::ScenarioPlan overload_plan(net::OverloadPolicy policy, double rate) {
  net::ScenarioPlan plan;
  plan.name = "bench-overload";
  plan.latency = net::LatencySpec::fixed(0.1);
  plan.attack.enabled = false;
  plan.keyspace = 1ull << 10;
  plan.step_duration = 200.0;
  plan.horizon_steps = 1;
  plan.n_servers = 3;
  plan.service.enabled = true;
  plan.service.request_service = net::LatencySpec::fixed(0.2);
  plan.service.response_service = net::LatencySpec::fixed(0.02);
  plan.service.queue_capacity = 16;
  plan.service.degrade_watermark = 8;
  plan.service.pushback_delay = 1.0;
  plan.service.policy = policy;
  plan.traffic.schedule = {net::RatePhase{0.0, rate},
                           net::RatePhase{160.0, 0.0}};
  plan.traffic.clients = 4;
  plan.traffic.write_fraction = 0.5;
  plan.traffic.distinct_keys = 8;
  plan.traffic.retry_base = 4.0;
  plan.traffic.retry_cap = 16.0;
  plan.traffic.retry_jitter = 0.1;
  plan.traffic.retry_budget = 4;
  plan.traffic.request_deadline = 30.0;
  return plan;
}

/// The DegradeUnsigned cell splits service into base + verification so
/// degrading actually buys capacity back.
net::ScenarioPlan degrade_overload_plan(double rate) {
  net::ScenarioPlan plan =
      overload_plan(net::OverloadPolicy::DegradeUnsigned, rate);
  plan.service.request_service = net::LatencySpec::fixed(0.05);
  plan.service.verify_cost = 0.15;
  return plan;
}

/// Probe-horizon control: the same deployment and horizon with the
/// overload plane fully disabled (no service queue, no traffic), driven by
/// the standard attack instead — the path every pre-existing plan takes.
net::ScenarioPlan probe_only_plan() {
  net::ScenarioPlan plan;
  plan.name = "bench-probe-only";
  plan.latency = net::LatencySpec::fixed(0.1);
  plan.keyspace = 128;
  plan.attack.probes_per_step = 8.0;
  plan.attack.indirect_fraction = 0.5;
  plan.step_duration = 200.0;
  plan.horizon_steps = 1;
  plan.n_servers = 3;
  return plan;
}

/// Wall-clock seconds spent in fn().
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_overload.json";
  BenchRecorder rec;

  struct PolicyCase {
    const char* tag;
    net::ScenarioPlan plan;
  };
  const std::vector<PolicyCase> cases = {
      {"overload_droptail", overload_plan(net::OverloadPolicy::DropTail, 15.0)},
      {"overload_shednewest",
       overload_plan(net::OverloadPolicy::ShedNewest, 15.0)},
      {"overload_backpressure",
       overload_plan(net::OverloadPolicy::Backpressure, 7.0)},
      {"overload_degrade", degrade_overload_plan(15.0)},
  };

  CampaignConfig cfg;
  cfg.trials_per_cell = 8;
  cfg.base_seed = 7;

  std::printf("Overload-plane bench: %zu policy cells x %llu trials\n\n",
              cases.size(),
              static_cast<unsigned long long>(cfg.trials_per_cell));
  std::printf("%-22s %12s %9s %9s %9s %10s %8s %8s\n", "policy", "ns/trial",
              "p50", "p99", "p999", "goodput/t", "shed", "t-out");
  rule(96);

  bool deterministic = true;
  for (const PolicyCase& pc : cases) {
    const std::vector<CampaignCell> cells = {{model::SystemKind::S1, pc.plan}};
    CampaignResult r1, r4;
    cfg.threads = 1;
    const double sec = timed([&] { r1 = run_campaign(cells, cfg); });
    cfg.threads = 4;
    r4 = run_campaign(cells, cfg);
    const TrafficStats& t = r1.cells[0].traffic;
    if (campaign_fingerprint(r1) != campaign_fingerprint(r4)) {
      std::printf("MISMATCH: %s aggregates differ between 1 and 4 threads\n",
                  pc.tag);
      deterministic = false;
    }
    const double per_trial =
        sec * 1e9 / static_cast<double>(cfg.trials_per_cell);
    rec.add(pc.tag, per_trial, 1e9 / per_trial,
            {{"p50", t.latency.quantile(0.5)},
             {"p99", t.latency.quantile(0.99)},
             {"p999", t.latency.quantile(0.999)},
             {"goodput_per_trial", r1.cells[0].mean_goodput()},
             {"shed", static_cast<double>(t.shed)},
             {"timed_out", static_cast<double>(t.timed_out)}});
    std::printf("%-22s %12.0f %9.2f %9.2f %9.2f %10.2f %8llu %8llu\n", pc.tag,
                per_trial, t.latency.quantile(0.5), t.latency.quantile(0.99),
                t.latency.quantile(0.999), r1.cells[0].mean_goodput(),
                static_cast<unsigned long long>(t.shed),
                static_cast<unsigned long long>(t.timed_out));
  }

  // Probe-horizon control: overload plane off, standard attack on.
  {
    const std::vector<CampaignCell> cells = {
        {model::SystemKind::S1, probe_only_plan()}};
    cfg.threads = 1;
    cfg.trials_per_cell = 32;
    CampaignResult r;
    const double sec = timed([&] { r = run_campaign(cells, cfg); });
    const double per_trial =
        sec * 1e9 / static_cast<double>(cfg.trials_per_cell);
    rec.add("overload_probe_only", per_trial, 1e9 / per_trial);
    std::printf("%-22s %12.0f  (service queue + traffic disabled; %llu "
                "events)\n",
                "overload_probe_only", per_trial,
                static_cast<unsigned long long>(r.total_events));
  }

  rule(96);
  std::printf("determinism (1 vs 4 threads): %s\n", pass(deterministic));
  if (!rec.write_json(out_path)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return deterministic ? 0 : 1;
}
