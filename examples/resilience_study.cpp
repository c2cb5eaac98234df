// resilience_study — CLI for the paper's evaluation machinery: compute the
// expected lifetime of any system class under any policy, with both the
// analytic engines (closed forms / absorbing Markov chains) and Monte-Carlo.
//
//   $ ./resilience_study [system] [policy] [alpha] [kappa] [log2chi] [period]
//
//   system : s0 | s1 | s2          (default s2)
//   policy : so | po               (default po)
//   alpha  : direct success prob   (default 1e-3)
//   kappa  : indirect coefficient  (default 0.5)
//   log2chi: key entropy bits      (default 16)
//   period : re-randomization P    (default 1; po only)
//
// With no arguments it prints the full comparison matrix at the defaults,
// followed by a live campaign cross-check: the abstract model's EL against
// mean lifetimes measured on the full protocol stack (simulated machines,
// probes, proxies, re-randomization) via scenario::run_campaign.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/evaluator.hpp"
#include "analysis/markov.hpp"
#include "montecarlo/engine.hpp"
#include "scenario/campaign.hpp"

using namespace fortress;

namespace {

void evaluate_one(model::SystemKind kind, model::Obfuscation obf,
                  const model::AttackParams& params) {
  model::SystemShape shape = kind == model::SystemKind::S0
                                 ? model::SystemShape::s0()
                             : kind == model::SystemKind::S1
                                 ? model::SystemShape::s1()
                                 : model::SystemShape::s2();

  std::printf("%-6s", model::system_label(kind, obf).c_str());

  const analysis::Evaluation analytic =
      analysis::analytic_lifetime(shape, params, obf);
  std::printf("  %14.6g  (%s)", analytic.expected_lifetime,
              analysis::to_string(analytic.method));

  montecarlo::McConfig cfg;
  cfg.trials = 100000;
  cfg.seed = 1234;
  cfg.threads = 4;
  cfg.max_steps = 1ull << 40;
  auto mc = montecarlo::estimate_lifetime(shape, params, obf,
                                          model::Granularity::Step, cfg);
  std::printf("  mc = %12.6g  [%.6g, %.6g] 95%%ci", mc.expected_lifetime(),
              mc.ci.lo, mc.ci.hi);
  if (mc.any_censored()) {
    std::printf("  (%llu censored)",
                static_cast<unsigned long long>(mc.censored));
  }
  // Route attribution for the FORTRESS system.
  if (kind == model::SystemKind::S2) {
    std::printf("\n      routes: indirect %.1f%%, via-proxy %.1f%%, "
                "all-proxies %.1f%%",
                100 * mc.route_fraction(model::CompromiseRoute::ServerIndirect),
                100 * mc.route_fraction(model::CompromiseRoute::ServerViaProxy),
                100 * mc.route_fraction(model::CompromiseRoute::AllProxies));
  }
  std::printf("\n");
}

// Live campaign cross-check: sweep (system x plan) cells on the live stack
// at small keyspaces (live probing is event-expensive; the model is
// scale-free in omega/chi) and compare with the analytic EL at the plan's
// implied alpha = omega/chi.
void live_campaign_section() {
  struct PlanSpec {
    std::uint64_t chi;
    double omega;
    double kappa;
    std::uint64_t horizon;
  };
  const PlanSpec specs[] = {
      {128, 8.0, 0.5, 600}, {256, 8.0, 0.5, 900}, {128, 8.0, 0.25, 900}};

  std::vector<scenario::CampaignCell> cells;
  for (const PlanSpec& s : specs) {
    net::ScenarioPlan plan;
    plan.keyspace = s.chi;
    plan.attack.probes_per_step = s.omega;
    plan.attack.indirect_fraction = s.kappa;
    plan.horizon_steps = s.horizon;
    plan.proxy_blacklist = false;
    plan.latency = net::LatencySpec::uniform(0.01, 0.02);
    char name[64];
    std::snprintf(name, sizeof name, "chi=%llu kappa=%.2f",
                  static_cast<unsigned long long>(s.chi), s.kappa);
    plan.name = name;
    cells.push_back({model::SystemKind::S1, plan});
    cells.push_back({model::SystemKind::S2, plan});
  }

  // Adaptive sampling: rounds of trials flow to the cells whose lifetime
  // CI is still wide; a cell stops once its CI half-width is within
  // target_rel_ci of its mean (or at the cap). The per-cell trial counts
  // below show where the budget actually went.
  scenario::CampaignConfig cfg;
  cfg.base_seed = 2026;
  cfg.adaptive.enabled = true;
  cfg.adaptive.round_trials = 20;
  cfg.adaptive.target_rel_ci = 0.18;
  cfg.adaptive.max_trials_per_cell = 240;
  scenario::CampaignResult result = scenario::run_campaign(cells, cfg);

  std::printf("\nLive campaign cross-check (adaptive: rounds of %llu, stop "
              "at rel-CI %.2f, cap %llu; alpha = omega/chi):\n",
              static_cast<unsigned long long>(cfg.adaptive.round_trials),
              cfg.adaptive.target_rel_ci,
              static_cast<unsigned long long>(
                  cfg.adaptive.max_trials_per_cell));
  std::printf("%20s %6s %7s %7s %12s %22s %12s\n", "plan", "system", "trials",
              "rounds", "live EL", "95% CI", "model EL");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const scenario::CellStats& cell = result.cells[i];
    const net::ScenarioPlan& plan = cells[i].plan;
    model::AttackParams p;
    p.chi = plan.keyspace;
    p.alpha = plan.implied_alpha();
    p.kappa = plan.attack.indirect_fraction;
    model::SystemShape shape = cells[i].system == model::SystemKind::S1
                                   ? model::SystemShape::s1()
                                   : model::SystemShape::s2(plan.n_proxies);
    const double predicted = analysis::expected_lifetime_markov(shape, p);
    std::printf("%20s %6s %7llu %7llu %12.1f [%8.1f, %8.1f] %12.1f\n",
                cell.plan_name.c_str(),
                model::to_string(cell.system).c_str(),
                static_cast<unsigned long long>(cell.trials),
                static_cast<unsigned long long>(cell.rounds),
                cell.mean_lifetime(), cell.lifetime_ci.lo,
                cell.lifetime_ci.hi, predicted);
  }
  std::printf("(%llu total trials; a fixed budget at the cap would spend "
              "%llu)\n",
              static_cast<unsigned long long>(result.total_trials),
              static_cast<unsigned long long>(
                  cfg.adaptive.max_trials_per_cell * cells.size()));
}

}  // namespace

int main(int argc, char** argv) {
  model::AttackParams params;
  params.alpha = 1e-3;
  params.kappa = 0.5;
  params.chi = 1ull << 16;

  if (argc >= 4) params.alpha = std::atof(argv[3]);
  if (argc >= 5) params.kappa = std::atof(argv[4]);
  if (argc >= 6) params.chi = 1ull << std::atoi(argv[5]);
  if (argc >= 7) params.period = static_cast<std::uint32_t>(std::atoi(argv[6]));

  std::printf("FORTRESS resilience study: alpha=%g kappa=%g chi=2^%d "
              "period=%u\n",
              params.alpha, params.kappa,
              static_cast<int>(std::log2(static_cast<double>(params.chi))),
              params.period);
  std::printf("EL = expected whole unit time-steps before compromise\n\n");

  if (argc >= 3) {
    std::string sys = argv[1];
    std::string pol = argv[2];
    model::SystemKind kind = sys == "s0"   ? model::SystemKind::S0
                             : sys == "s1" ? model::SystemKind::S1
                                           : model::SystemKind::S2;
    model::Obfuscation obf = pol == "so" ? model::Obfuscation::StartupOnly
                                         : model::Obfuscation::Proactive;
    evaluate_one(kind, obf, params);
    return 0;
  }

  // Full matrix.
  for (auto obf : {model::Obfuscation::StartupOnly,
                   model::Obfuscation::Proactive}) {
    for (auto kind : {model::SystemKind::S0, model::SystemKind::S1,
                      model::SystemKind::S2}) {
      evaluate_one(kind, obf, params);
    }
  }
  live_campaign_section();
  std::printf("\n(run with: resilience_study [s0|s1|s2] [so|po] [alpha] "
              "[kappa] [log2chi] [period] for a single configuration)\n");
  return 0;
}
