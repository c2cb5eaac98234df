// replay.hpp — the benchmark's traced replay of a measured campaign.
//
// The per-layer numbers come from outside the library: the replay re-drives
// the exact (cell, trial, trial_seed) set a measured run_campaign executed,
// on ThreadPool::shared() with one pooled stack per worker slot, and wraps a
// timed span around each call into a layer. It mirrors scenario::drive_trial
// and TrialArena's reuse rule through public functions only, so the library
// itself carries no timers. `fortress_bench --selftest` checks that every
// replayed TrialOutcome equals scenario::run_trial's, field for field, so the
// mirror cannot drift from the library without failing loudly.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "scenario/campaign.hpp"

namespace fortress::bench {

/// The layer boundaries a span can mark. Trial is the root of each trial's
/// spans; every other stage is its child.
enum class Stage : std::uint8_t {
  Trial,
  Reset,        ///< Simulator::reset + LiveSystem::reset (pooled stack hit)
  Build,        ///< teardown + make_live_system (pooled stack miss)
  Start,        ///< LiveSystem::start + fault scheduling
  Population,   ///< ClientPopulation ctor or reset
  Traffic,      ///< TrafficGenerator ctor
  SimRun,       ///< one Simulator::run_until call
  AttackSetup,  ///< DerandAttacker ctor/reset + wiring + start
  Collect,      ///< outcome and counter collection
  kCount,
};

const char* stage_name(Stage stage);

/// One timed interval, in nanoseconds since the replay's epoch. A stage
/// span's parent is the Trial span with the same `trial`.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t trial = 0;  ///< replay-wide trial index
  Stage stage = Stage::Trial;
};

/// Counts read from public accessors at the end of each trial, beyond what
/// TrialOutcome already carries.
struct TrialCounts {
  std::uint64_t deliveries = 0;  ///< Network::delivered_count
  std::uint64_t forwarded = 0;   ///< ProxyStats::requests_forwarded, summed
};

/// One replayed round: wall interval and the earliest time any worker slot
/// that ran a trial finished its last one (the start of the barrier wait).
struct RoundTiming {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t first_idle_ns = 0;
  std::uint64_t trials = 0;
};

struct Replay {
  /// The campaign result rebuilt from the replayed outcomes (reduction
  /// mirrored from run_campaign), to be digest-compared with the measured
  /// one.
  scenario::CampaignResult result;
  std::vector<std::vector<Span>> spans;  ///< per worker slot
  std::vector<TrialCounts> counts;       ///< per replay-wide trial index
  std::vector<RoundTiming> rounds;
  std::uint64_t builds = 0;  ///< stack misses (fresh make_live_system)
  std::uint64_t largest_round = 0;
  double trials_s = 0.0;  ///< wall time of all rounds
  double reduce_s = 0.0;  ///< wall time of the mirrored reductions
  double codec_s = 0.0;   ///< shard codec + merge + report on the result
};

/// Called in task order during the reduction of each round.
using OutcomeObserver = std::function<void(
    std::uint32_t cell, std::uint64_t trial, std::uint64_t seed,
    const scenario::TrialOutcome& outcome)>;

/// Replay `measured` (a run_campaign result over `cells` with `config`, work
/// stealing off): round structure comes from each cell's CellStats::rounds
/// and trials. Throws std::runtime_error when the round structure cannot be
/// rebuilt.
Replay replay_campaign(const std::vector<scenario::CampaignCell>& cells,
                       const scenario::CampaignConfig& config,
                       const scenario::CampaignResult& measured,
                       const OutcomeObserver& observer = {});

}  // namespace fortress::bench
