// campaign.hpp — the scenario campaign runner: live-system experiments at
// Monte-Carlo scale.
//
// A campaign evaluates a grid of cells, each cell being (system class x
// ScenarioPlan), with either a fixed budget of `trials_per_cell` live
// trials per cell or — in adaptive mode (AdaptiveConfig) — rounds of
// trials that stop per cell once its lifetime CI is narrow enough. Every
// trial is a fully isolated experiment, seeded deterministically from
// (base_seed, cell index, trial index), so trials parallelize
// embarrassingly over exec::ThreadPool; isolation comes either from a
// fresh Simulator+Network+LiveSystem per trial or (the default) from a
// per-worker pooled stack reset between trials (TrialArena).
//
// Determinism contract: per-trial outcomes depend only on the trial's
// derived seed, results land in a window slot indexed by the round's task
// index, and the reduction runs serially in index order after the pool
// drains each window (adaptive close/continue decisions after each round).
// Campaign
// output is therefore BIT-identical for any thread count and for either
// isolation strategy (tested), which makes campaign statistics usable as
// regression oracles.
//
// The runner drives every system class through the class-generic topology
// hooks on core::LiveSystem (direct_attack_surface / launchpad_machines /
// hidden_server_addresses / fault_target), so one ScenarioPlan can be
// swept across S0, S1 and S2 unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/derand_attacker.hpp"
#include "common/fields.hpp"
#include "common/stats.hpp"
#include "core/population.hpp"
#include "model/params.hpp"
#include "net/scenario.hpp"
#include "sim/simulator.hpp"

namespace fortress::core {
class LiveSystem;
}  // namespace fortress::core

namespace fortress::scenario {

/// Traffic-plane aggregates of one trial (all zero when the plan has no
/// TrafficSpec): client-side request accounting, per-deployment sums of the
/// machines' OverloadStats, and the completed-request latency histogram.
/// merge() is the exact cell reduction over the field table below — every
/// field is a sum, a max, or an elementwise histogram add, so cell
/// aggregates are bit-identical for any trial-batching (the campaign's
/// thread-count invariance extends to these).
struct TrafficStats {
  // --- client side ---------------------------------------------------------
  std::uint64_t offered = 0;    ///< requests submitted (excluding retries)
  std::uint64_t completed = 0;  ///< accepted responses
  std::uint64_t timed_out = 0;  ///< deadline failures
  std::uint64_t gave_up = 0;    ///< retry-budget failures
  std::uint64_t retries = 0;    ///< re-sends across all requests
  std::uint64_t rejected_responses = 0;
  // --- service plane (summed over the deployment's machines) ---------------
  std::uint64_t enqueued = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t backpressured = 0;
  std::uint64_t degraded = 0;
  std::uint64_t dropped_on_reboot = 0;
  std::uint64_t max_queue_depth = 0;  ///< max over machines (merge: max)
  /// Completed requests per unit time over the trial horizon; summed by
  /// merge() — divide by the cell's trial count for the mean.
  double goodput = 0.0;
  /// Submit-to-completion latency of every completed request.
  LatencyHistogram latency;

  void merge(const TrafficStats& o);
};

template <fields::FieldsOf<TrafficStats> S, class V>
constexpr void visit_fields(S& s, V&& v) {
  v("offered", s.offered, fields::kU64);
  v("completed", s.completed, fields::kU64);
  v("timed_out", s.timed_out, fields::kU64);
  v("gave_up", s.gave_up, fields::kU64);
  v("retries", s.retries, fields::kU64);
  v("rejected_responses", s.rejected_responses, fields::kU64);
  v("enqueued", s.enqueued, fields::kU64);
  v("served", s.served, fields::kU64);
  v("shed", s.shed, fields::kU64);
  v("backpressured", s.backpressured, fields::kU64);
  v("degraded", s.degraded, fields::kU64);
  v("dropped_on_reboot", s.dropped_on_reboot, fields::kU64);
  v("max_queue_depth", s.max_queue_depth, fields::kMax);
  v("goodput_bits", s.goodput, fields::kGoodput);
  v("latency_bins", s.latency, fields::kHistogram);
}
static_assert(fields::complete<TrafficStats>());

inline void TrafficStats::merge(const TrafficStats& o) {
  fields::merge(*this, o);
}

/// Outcome of one live trial.
struct TrialOutcome {
  bool compromised = false;
  /// Whole unit steps survived: the failure step, or the plan's horizon for
  /// trials that were censored (never compromised).
  std::uint64_t lifetime_steps = 0;
  attack::AttackerStats attacker;
  std::uint64_t events_executed = 0;
  /// Distinct (source, proxy) blacklistings at trial end — evidence the
  /// detection tier fired (0 for classes without one).
  std::uint64_t blacklisted_sources = 0;
  TrafficStats traffic;
  /// Compact population-plane aggregates (zero when the plan has no
  /// PopulationSpec).
  core::PopulationStats population;
};

/// Lets two outcomes be compared whole through their encoding.
template <fields::FieldsOf<TrialOutcome> S, class V>
constexpr void visit_fields(S& s, V&& v) {
  v("compromised", s.compromised, fields::kBool);
  v("lifetime_steps", s.lifetime_steps, fields::kU64);
  v("attacker", s.attacker, fields::kNested);
  v("events_executed", s.events_executed, fields::kU64);
  v("blacklisted_sources", s.blacklisted_sources, fields::kU64);
  v("traffic", s.traffic, fields::kNested);
  v("population", s.population, fields::kNested);
}
static_assert(fields::complete<TrialOutcome>());

/// Run one live experiment on a fresh stack under the timer wheel: build
/// the deployment `plan` describes for `system`, schedule the plan's faults,
/// wire the plan's attacker to the system's attack surface, and simulate
/// until compromise or the plan horizon. Deterministic in (system, plan,
/// seed) — and bit-identical for either scheduler kind (the wheel/heap
/// differential tests pin this; a one-trial TrialArena(scheduler) picks the
/// kind).
TrialOutcome run_trial(model::SystemKind system, const net::ScenarioPlan& plan,
                       std::uint64_t seed);

/// One campaign cell: a system class under a scenario.
struct CampaignCell {
  model::SystemKind system = model::SystemKind::S2;
  net::ScenarioPlan plan;
};

/// One adaptive stopping criterion: which observable to watch and how
/// narrow its confidence interval must get. A cell closes once EVERY
/// configured rule is satisfied; a rule is satisfied when
///
///   half_width(CI) <= max(target_rel * value, abs_floor)
///
/// The absolute floor is not optional polish — it is the rare-event fix: a
/// relative-only target is unsatisfiable when the point estimate sits at or
/// near zero (an instant-compromise cell's mean lifetime, a zero-success
/// compromise count), so such cells used to burn the whole per-cell budget.
/// With a floor, "the interval is narrower than a quantity I don't care to
/// resolve" closes the cell.
struct StoppingRule {
  enum class Metric : std::uint8_t {
    /// Mean lifetime in steps; CI = normal_ci over the cell's lifetime
    /// accumulator (needs >= 2 trials). The legacy (PR-3) criterion.
    MeanLifetime,
    /// P(compromise before horizon); CI = wilson_ci on the binomial
    /// (compromised, trials) count (needs >= 2 trials). The Wilson interval
    /// plus the mandatory abs_floor is the rare-event guard: a cell with
    /// zero (or all) successes still closes once the interval's width —
    /// which shrinks like z^2/n around 0 — drops under the floor.
    CompromiseProbability,
    /// A quantile of the completed-request latency histogram (traffic
    /// plane); CI = LatencyHistogram::quantile_ci at `quantile`. Vacuously
    /// satisfied while the cell has no latency samples (a plan without a
    /// traffic plane would otherwise stall forever).
    LatencyQuantile,
  };
  Metric metric = Metric::MeanLifetime;
  /// LatencyQuantile only: which quantile (in (0,1), e.g. 0.99 for p99).
  double quantile = 0.99;
  /// Relative half-width target (fraction of the metric's point estimate).
  double target_rel = 0.10;
  /// Absolute half-width floor, in the metric's own unit (steps /
  /// probability / latency time units). Must be > 0 for
  /// CompromiseProbability (the rare-event guard has no relative leg to
  /// stand on at p = 0).
  double abs_floor = 0.0;
};

inline constexpr fields::EnumNames<StoppingRule::Metric, 3> kMetricNames{
    "metric", {"mean_lifetime", "compromise_probability", "latency_quantile"}};

template <fields::FieldsOf<StoppingRule> S, class V>
constexpr void visit_fields(S& s, V&& v) {
  v("metric", s.metric, kMetricNames);
  v("quantile", s.quantile, fields::kDouble);
  v("target_rel", s.target_rel, fields::kDouble);
  v("abs_floor", s.abs_floor, fields::kDouble);
}
static_assert(fields::complete<StoppingRule>());

/// Adaptive (sequential-sampling) mode: instead of a fixed trial budget per
/// cell, cells run in deterministic ROUNDS of `round_trials` each; after
/// every round the serial reducer closes any cell whose stopping rules are
/// all satisfied, and the next round's trials go only to the still-open
/// cells — low-variance cells stop early and the budget flows to the cells
/// whose estimates are still uncertain (the paper's Fig. 1 curves are
/// exactly such per-cell means).
///
/// Determinism contract: a cell's trial indices grow contiguously across
/// rounds (trial t of cell c always uses trial_seed(base, c, t)), and the
/// close/continue decision — and the next round's trial allocation — is
/// made by the in-order reducer between rounds, so the executed (cell,
/// trial) seed set, and therefore every aggregate, is bit-identical for any
/// thread count.
struct AdaptiveConfig {
  bool enabled = false;
  /// Per-cell trials per round.
  std::uint64_t round_trials = 16;
  /// The default mean-lifetime rule's relative target (used when `rules`
  /// is empty): close once half_width(CI) <= max(target_rel_ci * mean,
  /// abs_ci_floor).
  double target_rel_ci = 0.10;
  /// The default rule's absolute half-width floor, in steps. Lifetimes are
  /// measured in whole steps, so resolving the mean below half a step is
  /// meaningless — and demanding it is exactly the zero-mean stall bug
  /// (instant-compromise cells could never satisfy a relative-only target).
  double abs_ci_floor = 0.5;
  /// Hard per-cell cap: a cell that never reaches its targets closes here.
  std::uint64_t max_trials_per_cell = 1024;
  /// Multi-metric stopping: when non-empty these REPLACE the default
  /// mean-lifetime rule, and a cell stays open until every rule holds.
  std::vector<StoppingRule> rules;
  /// Must be false (run_campaign rejects true): there is one round
  /// schedule. The key stays because every committed spec and workload
  /// carries it.
  bool work_stealing = false;

  /// The rule set in force: `rules`, or the single default mean-lifetime
  /// rule synthesized from target_rel_ci / abs_ci_floor.
  std::vector<StoppingRule> effective_rules() const;
};

template <fields::FieldsOf<AdaptiveConfig> S, class V>
constexpr void visit_fields(S& s, V&& v) {
  v("enabled", s.enabled, fields::kBool);
  v("round_trials", s.round_trials, fields::kU64);
  v("target_rel_ci", s.target_rel_ci, fields::kDouble);
  v("abs_ci_floor", s.abs_ci_floor, fields::kDouble);
  v("max_trials_per_cell", s.max_trials_per_cell, fields::kU64);
  v("work_stealing", s.work_stealing, fields::kBool);
  v("rules", s.rules, fields::kNested);
}
static_assert(fields::complete<AdaptiveConfig>());

struct CampaignConfig {
  /// Fixed mode (adaptive.enabled == false): exactly this many trials per
  /// cell. Ignored in adaptive mode.
  std::uint64_t trials_per_cell = 32;
  /// Worker cap handed to exec::ThreadPool (0 = all hardware threads).
  /// Any value produces bit-identical results.
  unsigned threads = 0;
  std::uint64_t base_seed = 1;
  /// Confidence level for the per-cell lifetime interval (also the CI the
  /// adaptive stopping rule tests).
  double ci_level = 0.95;
  /// Event scheduler for every trial simulator (pooled and fresh). Results
  /// are bit-identical either way; the heap reference exists for the
  /// differential tests.
  sim::SchedulerKind scheduler = sim::SchedulerKind::Wheel;
  AdaptiveConfig adaptive;
  /// Run trials on pooled per-worker stacks (TrialArena): the Simulator
  /// event slab, Network buffers and LiveSystem allocations are reused via
  /// reset() instead of reconstructed per trial. Outcomes are identical
  /// either way; false forces the fresh-stack path, the other side of the
  /// pooled-vs-fresh contract (differential.hpp).
  bool reuse_trial_stacks = true;
};

template <fields::FieldsOf<CampaignConfig> S, class V>
constexpr void visit_fields(S& s, V&& v) {
  v("base_seed", s.base_seed, fields::kU64);
  v("threads", s.threads, fields::kU32);
  v("ci_level", s.ci_level, fields::kDouble);
  v("scheduler", s.scheduler, sim::kSchedulerKindNames);
  v("reuse_trial_stacks", s.reuse_trial_stacks, fields::kBool);
  v("trials_per_cell", s.trials_per_cell, fields::kU64);
  v("adaptive", s.adaptive, fields::kNested);
}
static_assert(fields::complete<CampaignConfig>());

/// Aggregated statistics for one cell, reduced in trial-index order.
struct CellStats {
  model::SystemKind system = model::SystemKind::S2;
  std::string plan_name;
  std::uint64_t trials = 0;
  /// Rounds this cell stayed open (1 in fixed mode).
  std::uint64_t rounds = 0;
  std::uint64_t compromised = 0;
  std::uint64_t censored = 0;
  /// Lifetime in whole unit steps; censored trials contribute the horizon,
  /// so with censoring the mean is a lower bound on the true EL.
  RunningStats lifetime;
  /// Normal-approximation CI for the mean lifetime (undefined width when
  /// trials < 2).
  ConfidenceInterval lifetime_ci;
  attack::AttackerStats attacker;  ///< summed over the cell's trials
  std::uint64_t events_executed = 0;
  std::uint64_t blacklisted_sources = 0;  ///< summed over the cell's trials
  TrafficStats traffic;                   ///< merged over the cell's trials
  core::PopulationStats population;       ///< merged over the cell's trials

  double mean_lifetime() const {
    return lifetime.count() > 0 ? lifetime.mean() : 0.0;
  }
};

/// The sidecar and report encode a cell through this table (doubles by bit
/// pattern), and the determinism harness (differential.hpp) compares that
/// encoding — so a field added here is sharded, reported and compared
/// across execution modes with no other edit.
template <fields::FieldsOf<CellStats> S, class V>
constexpr void visit_fields(S& s, V&& v) {
  v("system", s.system, model::kSystemKindNames);
  v("plan_name", s.plan_name, fields::kString);
  v("trials", s.trials, fields::kU64);
  v("rounds", s.rounds, fields::kU64);
  v("compromised", s.compromised, fields::kU64);
  v("censored", s.censored, fields::kU64);
  v("lifetime", s.lifetime, fields::kWelford);
  v("lifetime_ci", s.lifetime_ci, fields::kInterval);
  v("attacker", s.attacker, fields::kNested);
  v("events_executed", s.events_executed, fields::kU64);
  v("blacklisted_sources", s.blacklisted_sources, fields::kU64);
  v("traffic", s.traffic, fields::kNested);
  v("population", s.population, fields::kNested);
}
static_assert(fields::complete<CellStats>());

struct CampaignResult {
  std::vector<CellStats> cells;  ///< one per input cell, same order
  std::uint64_t total_trials = 0;
  std::uint64_t total_events = 0;
};

/// Outcome slots per participating thread in run_campaign's trial window.
/// A round's trials run window by window, each window fanned out over the
/// pool and reduced in task order before the next one starts, so a campaign
/// holds O(cells + window) state however many trials a round grants; 1024
/// slots (~1.25 MiB per thread) keep the barrier between windows rare next
/// to the trials themselves. Results do not depend on it.
inline constexpr std::uint64_t kOutcomeWindowPerThread = 1024;

/// Run every cell's trials fanned out over the shared thread pool.
CampaignResult run_campaign(const std::vector<CampaignCell>& cells,
                            const CampaignConfig& config);

/// The shard building block: run_campaign over `cells`, but cell i derives
/// its trial seeds as GLOBAL cell index cell_indices[i] — so a process that
/// owns a subset of a larger grid executes exactly the (cell, trial) seed
/// set the full single-process run would have executed for those cells
/// (stopping decisions are per-cell, so per-cell aggregates match bit for
/// bit). run_campaign(cells, cfg) ==
/// run_campaign_subset(cells, cfg, {0, 1, ..., cells.size()-1}).
/// Precondition: cell_indices.size() == cells.size().
CampaignResult run_campaign_subset(
    const std::vector<CampaignCell>& cells, const CampaignConfig& config,
    const std::vector<std::uint64_t>& cell_indices);

/// Evaluate one stopping rule against a cell's current aggregates at the
/// given confidence level (exposed for tests and the shard driver's
/// reporting). Rules needing more data than the cell has yet (< 2 trials)
/// report false; a LatencyQuantile rule with no samples reports true.
bool stopping_rule_satisfied(const CellStats& stats, const StoppingRule& rule,
                             double ci_level);

/// Grid helper: the cross product (systems x plans), systems-major.
std::vector<CampaignCell> cross(const std::vector<model::SystemKind>& systems,
                                const std::vector<net::ScenarioPlan>& plans);

/// The seed a campaign derives for trial `trial` of cell `cell` (exposed so
/// tests can reproduce an individual campaign trial with run_trial).
std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t cell,
                         std::uint64_t trial);

/// Implementation detail of TrialArena: the attacker pooled alongside the
/// arena's deployment (its channels point at the deployment's machines).
/// Reused via DerandAttacker::reset when the wiring a trial needs matches
/// the cached shape flags, rebuilt otherwise — see drive_trial in
/// campaign.cpp.
struct AttackerPool {
  std::unique_ptr<attack::DerandAttacker> attacker;
  bool direct_wired = false;
  bool indirect_wired = false;
  unsigned sybils = 0;
};

/// A reusable live-trial stack: one Simulator + (lazily built) LiveSystem
/// that successive trials reset instead of reconstruct. Reuse keeps the
/// simulator's event slab at its high-water mark and the deployment's
/// machines/replicas/proxies/network allocated; only per-trial state is
/// re-initialized. When the requested cell's structural shape (system
/// class, tier sizes) differs from the cached one, the stack is rebuilt
/// fresh — campaign rounds iterate cells in order, so consecutive trials
/// usually hit.
///
/// run() is the one trial driver: its first trial builds the stack through
/// core::make_live_system, later ones reset it, and both give bit-identical
/// TrialOutcomes for every (system, plan, seed) — pooling is a pure
/// setup-cost optimization (tested). run_trial() is a one-trial arena. Not
/// thread-safe; campaigns key one arena per pool worker slot
/// (exec::ThreadPool::current_slot).
class TrialArena {
 public:
  TrialArena();  // out of line: members only forward-declare LiveSystem
  explicit TrialArena(sim::SchedulerKind scheduler);
  ~TrialArena();
  TrialArena(const TrialArena&) = delete;
  TrialArena& operator=(const TrialArena&) = delete;

  TrialOutcome run(model::SystemKind system, const net::ScenarioPlan& plan,
                   std::uint64_t seed);

 private:
  sim::Simulator sim_;
  std::unique_ptr<core::LiveSystem> live_;
  model::SystemKind built_system_ = model::SystemKind::S2;
  int built_servers_ = 0;
  int built_proxies_ = 0;

  /// Pooled population plane; destroyed before live_ (it detaches from the
  /// deployment's network) by declaration order.
  std::unique_ptr<core::ClientPopulation> population_;
  AttackerPool attacker_pool_;
};

}  // namespace fortress::scenario
