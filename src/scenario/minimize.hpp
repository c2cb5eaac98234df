// minimize.hpp — greedy delta-debugging for failing ScenarioPlans.
//
// Given a plan on which some predicate FAILS (a pooled-vs-fresh or
// wheel-vs-heap aggregate divergence, a crash, a golden drift — any
// deterministic boolean of the plan), minimize_plan shrinks the plan while
// keeping the predicate failing, and stops at a LOCAL minimum: a plan where
// no single candidate reduction still fails. The reduction vocabulary
// covers every plan axis —
//
//  * list elements: drop each partition window, fault event and rate phase
//    (halves first for long lists, then singletons — classic ddmin order);
//  * planes: disable the attack (then just its direct channel / extra
//    sybils), the service model, traffic, the population, detection;
//  * noise: zero drop/duplicate probabilities, collapse the latency spec to
//    Fixed at its floor;
//  * scale: halve horizon_steps, traffic clients, population size, sybils
//    and tier sizes toward their minima.
//
// Every candidate is validated before the predicate runs (reductions
// preserve structural validity by construction; validate() is the safety
// net), and the reduction sequence is deterministic, so a minimization is
// reproducible from (plan, predicate). The predicate is treated as a
// black box and is re-run once per candidate — minimize with a cheap
// predicate (small trial budgets) where possible.
#pragma once

#include <cstdint>
#include <functional>

#include "net/scenario.hpp"

namespace fortress::scenario {

/// Returns true while the plan still exhibits the failure being chased.
using PlanPredicate = std::function<bool(const net::ScenarioPlan&)>;

struct MinimizeResult {
  net::ScenarioPlan plan;             ///< locally minimal failing plan
  std::uint64_t predicate_calls = 0;  ///< total predicate evaluations
  std::uint64_t reductions = 0;       ///< accepted shrink steps
};

/// Precondition: still_fails(failing) is true (throws ContractViolation
/// otherwise — minimizing a passing plan is a caller bug). At most 16 full
/// reduction passes run (each tries every candidate once); the loop exits
/// earlier at the first pass with no progress.
MinimizeResult minimize_plan(const net::ScenarioPlan& failing,
                             const PlanPredicate& still_fails);

}  // namespace fortress::scenario
