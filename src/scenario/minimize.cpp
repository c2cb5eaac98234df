#include "scenario/minimize.hpp"

#include <cstddef>
#include <vector>

#include "common/check.hpp"

namespace fortress::scenario {

namespace {

/// Upper bound on full reduction passes.
constexpr int kMaxPasses = 16;

struct Ctx {
  const PlanPredicate* pred = nullptr;
  std::uint64_t calls = 0;
  std::uint64_t reductions = 0;
  bool progressed_this_pass = false;
};

/// Candidate acceptance: validate (reductions preserve validity by
/// construction — this is the safety net), run the predicate, and commit
/// the shrunken plan if it still fails.
bool accept_if_failing(net::ScenarioPlan& current,
                       const net::ScenarioPlan& candidate, Ctx& ctx) {
  candidate.validate();
  ++ctx.calls;
  if (!(*ctx.pred)(candidate)) return false;
  current = candidate;
  ++ctx.reductions;
  ctx.progressed_this_pass = true;
  return true;
}

/// ddmin-style list shrink: remove chunks of size n/2, n/4, ..., 1 at every
/// offset, greedily keeping any removal that still fails. `access` selects
/// the list inside a plan copy.
template <typename T, typename Access>
void shrink_list(net::ScenarioPlan& current, Access access, Ctx& ctx) {
  for (std::size_t chunk = access(current).size(); chunk >= 1; chunk /= 2) {
    std::size_t i = 0;
    while (i + chunk <= access(current).size()) {
      net::ScenarioPlan candidate = current;
      std::vector<T>& list = access(candidate);
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(i),
                 list.begin() + static_cast<std::ptrdiff_t>(i + chunk));
      if (!accept_if_failing(current, candidate, ctx)) {
        i += chunk;  // keep this chunk, slide past it
      }
      // On acceptance i stays: the next chunk shifted into position i.
    }
    if (chunk == 1) break;
  }
}

/// One scalar/plane reduction: `mutate` edits a plan copy and returns false
/// when it would not change anything (skip: re-offering an identity edit
/// every pass would spin the pass loop forever).
void try_edit(net::ScenarioPlan& current, Ctx& ctx,
              bool (*mutate)(net::ScenarioPlan&)) {
  net::ScenarioPlan candidate = current;
  if (!mutate(candidate)) return;
  accept_if_failing(current, candidate, ctx);
}

}  // namespace

MinimizeResult minimize_plan(const net::ScenarioPlan& failing,
                             const PlanPredicate& still_fails) {
  FORTRESS_EXPECTS(still_fails != nullptr);
  failing.validate();
  FORTRESS_EXPECTS(still_fails(failing));  // minimizing a passing plan

  Ctx ctx;
  ctx.pred = &still_fails;
  net::ScenarioPlan current = failing;

  for (int pass = 0; pass < kMaxPasses; ++pass) {
    ctx.progressed_this_pass = false;

    // --- list axes (biggest structural wins first) -------------------------
    shrink_list<net::PartitionWindow>(
        current,
        [](net::ScenarioPlan& p) -> std::vector<net::PartitionWindow>& {
          return p.partitions;
        },
        ctx);
    shrink_list<net::FaultEvent>(
        current,
        [](net::ScenarioPlan& p) -> std::vector<net::FaultEvent>& {
          return p.faults;
        },
        ctx);
    shrink_list<net::RatePhase>(
        current,
        [](net::ScenarioPlan& p) -> std::vector<net::RatePhase>& {
          return p.traffic.schedule;
        },
        ctx);

    // --- whole planes ------------------------------------------------------
    try_edit(current, ctx, [](net::ScenarioPlan& p) {
      if (!p.attack.enabled) return false;
      p.attack.enabled = false;
      return true;
    });
    try_edit(current, ctx, [](net::ScenarioPlan& p) {
      if (!p.attack.enabled || !p.attack.direct_enabled) return false;
      p.attack.direct_enabled = false;
      return true;
    });
    try_edit(current, ctx, [](net::ScenarioPlan& p) {
      if (!p.service.enabled) return false;
      p.service = net::ServiceModel{};  // all defaults, disabled
      return true;
    });
    try_edit(current, ctx, [](net::ScenarioPlan& p) {
      if (p.traffic.clients == 0 && p.traffic.schedule.empty()) return false;
      p.traffic = net::TrafficSpec{};
      return true;
    });
    try_edit(current, ctx, [](net::ScenarioPlan& p) {
      if (!p.population.enabled()) return false;
      p.population = net::PopulationSpec{};
      return true;
    });
    try_edit(current, ctx, [](net::ScenarioPlan& p) {
      if (!p.proxy_blacklist && p.detection_threshold == 0) return false;
      p.proxy_blacklist = false;
      p.detection_threshold = 0;
      return true;
    });

    // --- noise -------------------------------------------------------------
    try_edit(current, ctx, [](net::ScenarioPlan& p) {
      if (p.drop_probability == 0.0 && p.duplicate_probability == 0.0) {
        return false;
      }
      p.drop_probability = 0.0;
      p.duplicate_probability = 0.0;
      return true;
    });
    try_edit(current, ctx, [](net::ScenarioPlan& p) {
      if (p.latency.kind == net::LatencySpec::Kind::Fixed) return false;
      p.latency = net::LatencySpec::fixed(p.latency.a);
      return true;
    });

    // --- scale -------------------------------------------------------------
    try_edit(current, ctx, [](net::ScenarioPlan& p) {
      if (p.horizon_steps <= 1) return false;
      p.horizon_steps /= 2;
      return true;
    });
    try_edit(current, ctx, [](net::ScenarioPlan& p) {
      if (!p.attack.enabled || p.attack.sybil_identities <= 1) return false;
      p.attack.sybil_identities = 1;
      return true;
    });
    try_edit(current, ctx, [](net::ScenarioPlan& p) {
      if (p.traffic.clients <= 1) return false;
      p.traffic.clients = (p.traffic.clients + 1) / 2;
      return true;
    });
    try_edit(current, ctx, [](net::ScenarioPlan& p) {
      if (p.population.clients <= 64) return false;
      p.population.clients /= 2;
      return true;
    });
    try_edit(current, ctx, [](net::ScenarioPlan& p) {
      if (p.n_proxies <= 1) return false;
      p.n_proxies = 1;
      return true;
    });
    try_edit(current, ctx, [](net::ScenarioPlan& p) {
      if (p.n_servers <= 1) return false;
      p.n_servers = 1;
      return true;
    });

    if (!ctx.progressed_this_pass) break;  // local minimum
  }

  return {current, ctx.calls, ctx.reductions};
}

}  // namespace fortress::scenario
