// differential.hpp — the machine-enforced determinism contract.
//
// PRs 3-8 each proved, by hand-written golden tests, that campaign
// aggregates are bit-identical across (a) pooled arenas vs fresh per-trial
// stacks, (b) any thread count, and (c) the timer-wheel vs binary-heap
// scheduler. differential_check turns those invariants into a reusable
// guard any plan can be pushed through: run the plan's campaign under the
// reference configuration (pooled, 1 thread, wheel) and under each varied
// configuration, and demand EVERY aggregate bit match. The planfuzz ctest
// lane feeds it randomly generated plans; plan_tool's built-in minimizer
// predicates feed it shrinking candidates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/params.hpp"
#include "net/scenario.hpp"
#include "scenario/campaign.hpp"

namespace fortress::scenario {

/// FNV-1a 64 over campaign_result_to_json(result): the report encodes every
/// CellStats table field, doubles by bit pattern, so two results
/// fingerprint equal iff every aggregate is bit-identical.
std::uint64_t campaign_fingerprint(const CampaignResult& result);

struct DifferentialOptions {
  /// One campaign cell per listed class. Defaults to all three so class-
  /// specific event paths (SMR quorums, PB failover, the proxy tier) are
  /// all exercised; shrink to one class for cheap minimizer predicates.
  std::vector<model::SystemKind> systems = {
      model::SystemKind::S0, model::SystemKind::S1, model::SystemKind::S2};
  std::uint64_t trials_per_cell = 3;
  std::uint64_t base_seed = 1;
  /// Thread count for the "many threads" comparison arm.
  unsigned threads = 8;
};

/// Runs the reference campaign (pooled, 1 thread, wheel scheduler) and the
/// three varied arms (fresh stacks / `threads` threads / heap scheduler);
/// returns one description per diverging arm, empty when all aggregates are
/// bit-identical. The reference fingerprint is appended to each message so
/// failures are self-describing in CI logs.
std::vector<std::string> differential_check(
    const net::ScenarioPlan& plan, const DifferentialOptions& options = {});

}  // namespace fortress::scenario
