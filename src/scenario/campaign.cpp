#include "scenario/campaign.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"
#include "core/live_system.hpp"
#include "exec/thread_pool.hpp"
#include "scenario/traffic.hpp"

namespace fortress::scenario {

std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t cell,
                         std::uint64_t trial) {
  // Absorb base, cell and trial through SEQUENTIAL SplitMix64 finalizations
  // (hash, add next word, hash again). A single XOR-combine of all three
  // words — the old scheme — let distinct (cell, trial) pairs with equal
  // base ^ cell*k ^ trial feed identical mix states, a STRUCTURAL collision
  // reachable by small integer inputs, duplicating whole live trials. With
  // chained absorption a collision requires a genuine 64-bit coincidence
  // (cell_mix(c1) + t1 == cell_mix(c2) + t2, ~2^-64 per pair), not an
  // algebraic relation between the indices.
  SplitMix64 base_mix(base_seed);
  SplitMix64 cell_mix(base_mix.next() + cell);
  SplitMix64 pair_mix(cell_mix.next() + trial);
  std::uint64_t s = pair_mix.next();
  return s != 0 ? s : 1;  // seed 0 is reserved-ish; keep streams nonzero
}

namespace {

void apply_fault(core::LiveSystem& sys, const net::FaultEvent& fault) {
  // Resolved at fire time so the event hits whatever machine then occupies
  // the slot; plans may address tiers a class lacks (ignored).
  osl::Machine* m = sys.fault_target(fault.target, fault.index);
  if (m == nullptr) return;
  switch (fault.kind) {
    case net::FaultEvent::Kind::Crash:
      // Down and staying down (the obfuscation scheduler skips non-booted
      // machines) until a Recover event revives it.
      m->shutdown();
      break;
    case net::FaultEvent::Kind::Recover:
      if (m->booted()) {
        m->recover();  // crash + restart with the current key
      } else {
        // Revive a machine a Crash event took down, with the key it held
        // when it went down (proactive recovery, not re-randomization).
        // revive() also tells the application it rebooted, so e.g. a
        // proxy re-dials its server tier instead of trusting dead
        // connections.
        m->revive();
      }
      break;
  }
}

/// TrialArena::run's trial driver: schedule the plan's faults, wire the
/// attacker, simulate to compromise or horizon, collect the outcome.
/// `live` must be freshly constructed or freshly reset for (plan, seed).
/// `pool` carries the attacker across trials: when the wiring this trial
/// needs matches the cached shape, the attacker is reset in place;
/// otherwise it is rebuilt into the pool. `pop_pool` likewise carries the
/// ClientPopulation; its reset() handles any shape change, so a pooled
/// population always hits.
TrialOutcome drive_trial(sim::Simulator& sim, core::LiveSystem& live,
                         const net::ScenarioPlan& plan, std::uint64_t seed,
                         AttackerPool& pool,
                         std::unique_ptr<core::ClientPopulation>& pop_pool) {
  live.start();
  live.on_failure = [&sim] { sim.request_stop(); };

  const sim::Time horizon =
      plan.step_duration * static_cast<sim::Time>(plan.horizon_steps);

  for (const net::FaultEvent& fault : plan.faults) {
    // Policy, made explicit here and in the FaultEvent schema note: a
    // fault at exactly the horizon could still execute (run_until runs
    // events at == until), but its effect could never influence the
    // outcome — lifetime is capped at horizon — so scheduling it would be
    // pure dead work.
    if (fault.at >= horizon) continue;
    core::LiveSystem* sys = &live;
    sim.schedule_at(fault.at, [sys, fault] { apply_fault(*sys, fault); });
  }

  TrialOutcome out;
  // Construction order — population, then traffic, then attacker — is
  // identical on first use and on reuse, so every plane interns its
  // addresses in the same order everywhere; interning order is part of the
  // determinism contract.
  core::ClientPopulation* population = nullptr;
  if (plan.population.enabled()) {
    const std::uint64_t pop_seed = seed ^ 0x50B5CA1EULL;
    if (pop_pool != nullptr) {
      pop_pool->reset(live.directory(), plan.population, horizon, pop_seed);
    } else {
      pop_pool = std::make_unique<core::ClientPopulation>(
          sim, live.network(), live.registry(), live.directory(),
          plan.population, horizon, pop_seed);
    }
    population = pop_pool.get();
  } else {
    // A population pooled by an earlier plan must not linger half-wired.
    pop_pool.reset();
  }
  std::unique_ptr<TrafficGenerator> traffic;
  if (plan.traffic.enabled()) {
    traffic = std::make_unique<TrafficGenerator>(
        sim, live.network(), live.registry(), live.directory(), plan.traffic,
        horizon, seed ^ 0x7AFF1CULL);
  }
  attack::DerandAttacker* attacker = nullptr;
  if (plan.attack.enabled) {
    // Give the deployment its dial-in window before the attack begins.
    out.events_executed +=
        sim.run_until(std::min(plan.attack.start_time, horizon));

    attack::AttackerConfig acfg;
    acfg.keyspace = plan.keyspace;
    acfg.step_duration = plan.step_duration;
    acfg.probes_per_step = plan.attack.probes_per_step;
    acfg.indirect_probes_per_step =
        plan.attack.indirect_fraction * plan.attack.probes_per_step;
    acfg.sybil_identities = plan.attack.sybil_identities;
    acfg.seed = seed ^ 0xA77AC4E2ULL;

    const std::vector<net::Address> hidden = live.hidden_server_addresses();
    const bool indirect_active =
        !hidden.empty() && acfg.indirect_probes_per_step > 0.0;
    const bool pool_hit = pool.attacker != nullptr &&
                          pool.direct_wired == plan.attack.direct_enabled &&
                          pool.sybils == acfg.sybil_identities &&
                          (!indirect_active || pool.indirect_wired);
    if (pool_hit) {
      pool.attacker->reset(acfg, indirect_active);
    } else {
      // Destroy a stale pooled attacker BEFORE wiring the new one: its
      // destructor detaches the shared attacker identities.
      pool.attacker.reset();
      pool.attacker =
          std::make_unique<attack::DerandAttacker>(sim, live.network(), acfg);
      if (plan.attack.direct_enabled) {
        for (osl::Machine* target : live.direct_attack_surface()) {
          pool.attacker->add_direct_target(*target);
        }
      }
      if (!hidden.empty()) {
        for (osl::Machine* pad : live.launchpad_machines()) {
          pool.attacker->add_launchpad(*pad, hidden);
        }
        if (indirect_active) {
          pool.attacker->set_indirect_channel(live.directory().proxies);
        }
      }
      pool.direct_wired = plan.attack.direct_enabled;
      pool.indirect_wired = indirect_active;
      pool.sybils = acfg.sybil_identities;
    }
    attacker = pool.attacker.get();
    if (!live.failed()) attacker->start();
  }

  // on_failure stops the run; don't re-enter (run_until re-arms the stop
  // flag) once the outcome is decided.
  if (!live.failed()) out.events_executed += sim.run_until(horizon);

  out.compromised = live.failed();
  out.lifetime_steps = live.failure_step().value_or(plan.horizon_steps);
  out.lifetime_steps = std::min(out.lifetime_steps, plan.horizon_steps);
  out.blacklisted_sources = live.blacklisted_sources();
  if (attacker != nullptr) {
    out.attacker = attacker->stats();
    attacker->stop();
  }
  if (traffic != nullptr) {
    out.traffic = traffic->stats();
    out.traffic.goodput =
        horizon > 0.0
            ? static_cast<double>(out.traffic.completed) / horizon
            : 0.0;
  }
  if (population != nullptr) out.population = population->stats();
  if (plan.service.enabled) {
    for (const osl::Machine* m : live.service_machines()) {
      const osl::OverloadStats& os = m->overload();
      out.traffic.enqueued += os.enqueued;
      out.traffic.served += os.served;
      out.traffic.shed += os.shed;
      out.traffic.backpressured += os.backpressured;
      out.traffic.degraded += os.degraded;
      out.traffic.dropped_on_reboot += os.dropped_on_reboot;
      out.traffic.max_queue_depth =
          std::max(out.traffic.max_queue_depth, os.max_depth);
    }
  }
  return out;
}

}  // namespace

TrialOutcome run_trial(model::SystemKind system, const net::ScenarioPlan& plan,
                       std::uint64_t seed) {
  // The deployment validates the whole plan (NetworkConfig::from_plan)
  // before it builds anything that depends on it.
  return TrialArena().run(system, plan, seed);
}

TrialArena::TrialArena() = default;
TrialArena::TrialArena(sim::SchedulerKind scheduler) : sim_(scheduler) {}
TrialArena::~TrialArena() = default;

TrialOutcome TrialArena::run(model::SystemKind system,
                             const net::ScenarioPlan& plan,
                             std::uint64_t seed) {
  const bool reusable = live_ != nullptr && built_system_ == system &&
                        built_servers_ == plan.n_servers &&
                        built_proxies_ == plan.n_proxies;
  if (reusable) {
    // Invalidate the previous trial's pending events first: LiveSystem
    // components treat their stored EventIds as stale-after-reset.
    sim_.reset();
    live_->reset(plan, seed);
  } else {
    // Structural mismatch (or first use): tear down the old attacker and
    // population, then the deployment (in that order — both point at the
    // deployment's machines/network) while the network is still alive,
    // then rebuild on the reused simulator — the event slab keeps its
    // capacity across trials either way.
    attacker_pool_.attacker.reset();
    population_.reset();
    live_.reset();
    sim_.reset();
    live_ = core::make_live_system(sim_, system, plan, seed);
    built_system_ = system;
    built_servers_ = plan.n_servers;
    built_proxies_ = plan.n_proxies;
  }
  return drive_trial(sim_, *live_, plan, seed, attacker_pool_, population_);
}

std::vector<StoppingRule> AdaptiveConfig::effective_rules() const {
  if (!rules.empty()) return rules;
  StoppingRule def;
  def.metric = StoppingRule::Metric::MeanLifetime;
  def.target_rel = target_rel_ci;
  def.abs_floor = abs_ci_floor;
  return {def};
}

bool stopping_rule_satisfied(const CellStats& stats, const StoppingRule& rule,
                             double ci_level) {
  switch (rule.metric) {
    case StoppingRule::Metric::MeanLifetime: {
      if (stats.lifetime.count() <= 1) return false;
      const ConfidenceInterval ci = normal_ci(stats.lifetime, ci_level);
      const double half = (ci.hi - ci.lo) / 2.0;
      return half <= std::max(rule.target_rel * stats.lifetime.mean(),
                              rule.abs_floor);
    }
    case StoppingRule::Metric::CompromiseProbability: {
      if (stats.trials <= 1) return false;
      const ConfidenceInterval ci =
          wilson_ci(stats.compromised, stats.trials, ci_level);
      const double half = (ci.hi - ci.lo) / 2.0;
      const double p = static_cast<double>(stats.compromised) /
                       static_cast<double>(stats.trials);
      return half <= std::max(rule.target_rel * p, rule.abs_floor);
    }
    case StoppingRule::Metric::LatencyQuantile: {
      // No samples: either the plan has no traffic plane (the rule can
      // never bind — vacuously satisfied, not an eternal stall) or nothing
      // completed yet under total outage, where a quantile is undefined.
      if (stats.traffic.latency.count() == 0) return true;
      if (stats.trials <= 1) return false;
      const ConfidenceInterval ci =
          stats.traffic.latency.quantile_ci(rule.quantile, ci_level);
      const double half = (ci.hi - ci.lo) / 2.0;
      const double value = stats.traffic.latency.quantile(rule.quantile);
      return half <= std::max(rule.target_rel * value, rule.abs_floor);
    }
  }
  return false;  // unreachable
}

namespace {

void validate_rule(const StoppingRule& rule) {
  FORTRESS_EXPECTS(rule.target_rel >= 0.0);
  FORTRESS_EXPECTS(rule.abs_floor >= 0.0);
  // A rule with both legs zero can only be satisfied by an exactly
  // zero-width interval — a stall by construction.
  FORTRESS_EXPECTS(rule.target_rel > 0.0 || rule.abs_floor > 0.0);
  if (rule.metric == StoppingRule::Metric::CompromiseProbability) {
    // Rare-event guard: at p = 0 (or 1) the relative leg is zero, so the
    // floor is the only thing that can ever close the cell.
    FORTRESS_EXPECTS(rule.abs_floor > 0.0);
  }
  if (rule.metric == StoppingRule::Metric::LatencyQuantile) {
    FORTRESS_EXPECTS(rule.quantile > 0.0 && rule.quantile < 1.0);
  }
}

void absorb_outcome(CellStats& stats, const TrialOutcome& o) {
  ++stats.trials;
  if (o.compromised) {
    ++stats.compromised;
  } else {
    ++stats.censored;
  }
  stats.lifetime.add(static_cast<double>(o.lifetime_steps));
  fields::merge(stats.attacker, o.attacker);
  stats.events_executed += o.events_executed;
  stats.blacklisted_sources += o.blacklisted_sources;
  stats.traffic.merge(o.traffic);
  stats.population.merge(o.population);
}

}  // namespace

CampaignResult run_campaign_subset(
    const std::vector<CampaignCell>& cells, const CampaignConfig& config,
    const std::vector<std::uint64_t>& cell_indices) {
  FORTRESS_EXPECTS(cell_indices.size() == cells.size());
  const bool adaptive = config.adaptive.enabled;
  const std::uint64_t round_trials =
      adaptive ? config.adaptive.round_trials : config.trials_per_cell;
  const std::uint64_t max_trials =
      adaptive ? config.adaptive.max_trials_per_cell : config.trials_per_cell;
  FORTRESS_EXPECTS(round_trials >= 1);
  FORTRESS_EXPECTS(max_trials >= 1);
  std::vector<StoppingRule> rules;
  if (adaptive) {
    rules = config.adaptive.effective_rules();
    for (const StoppingRule& rule : rules) validate_rule(rule);
  }
  // There is one round schedule; the key stays only so committed specs
  // decode.
  FORTRESS_EXPECTS(!config.adaptive.work_stealing);
  for (const CampaignCell& cell : cells) cell.plan.validate();

  struct CellState {
    CellStats stats;
    bool open = true;
    std::uint64_t next_trial = 0;  ///< trials issued so far == next index
  };
  std::vector<CellState> states(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    states[c].stats.system = cells[c].system;
    states[c].stats.plan_name = cells[c].plan.name;
  }

  // One arena per worker slot of the process-wide SHARED pool (the arena
  // vector itself is per-campaign-call): a slot is owned by at most one
  // thread at a time within this pool's jobs (jobs serialize), so indexing
  // by ThreadPool::current_slot is race-free. The bounds check in the task
  // body is load-bearing, not paranoia — a worker of a larger foreign pool
  // (a nested campaign inside someone else's parallel_chunks) reports ITS
  // OWN slot, which can be >= this vector's size; such threads fall back to
  // fresh per-trial stacks, with identical outcomes.
  exec::ThreadPool& pool = exec::ThreadPool::shared();
  std::vector<std::unique_ptr<TrialArena>> arenas;
  if (config.reuse_trial_stacks) {
    arenas.resize(pool.slot_count());
    for (auto& a : arenas) a = std::make_unique<TrialArena>(config.scheduler);
  }

  // A round is its per-cell grants plus their prefix offsets: task t of the
  // round is trial (next_trial - grant[c]) + (t - offsets[c]) of the cell c
  // with offsets[c] <= t < offsets[c + 1]. Nothing is stored per trial
  // except the outcome window below.
  std::vector<std::uint64_t> grant(states.size(), 0);
  std::vector<std::uint64_t> offsets(states.size() + 1, 0);
  auto task_cell = [&](std::uint64_t t) {
    return static_cast<std::size_t>(
        std::upper_bound(offsets.begin(), offsets.end(), t) -
        offsets.begin() - 1);
  };

  // Trials run through a fixed window of outcome slots (see
  // kOutcomeWindowPerThread), each window absorbed before the next starts,
  // so campaign memory grows with cells, not with trials per round.
  const unsigned participants =
      config.threads == 0 ? pool.slot_count()
                          : std::min(config.threads, pool.slot_count());
  const std::uint64_t window = kOutcomeWindowPerThread * participants;
  std::vector<TrialOutcome> outcomes;

  // Rounds: plan this round's per-cell trial grants, run them window by
  // window, reduce in task-index order, close cells whose stopping rules all
  // hold (or that hit the cap). Fixed mode is the degenerate single round of
  // `trials_per_cell` for every cell. The planner runs serially between
  // rounds, so the grant schedule — and with it the executed (cell, trial)
  // seed set — is a pure function of per-round aggregates, never of thread
  // count or scheduling order.
  bool any_open = true;
  while (any_open) {
    // --- plan the round -------------------------------------------------
    // Every open cell gets round_trials, capped by its remaining budget;
    // closed cells shrink the round.
    for (std::size_t c = 0; c < states.size(); ++c) {
      grant[c] = states[c].open
                     ? std::min(round_trials, max_trials - states[c].next_trial)
                     : 0;
    }

    for (std::size_t c = 0; c < states.size(); ++c) {
      offsets[c + 1] = offsets[c] + grant[c];
      if (grant[c] == 0) continue;
      states[c].next_trial += grant[c];
      ++states[c].stats.rounds;
    }
    const std::uint64_t round_size = offsets.back();
    if (round_size == 0) break;
    outcomes.resize(std::max<std::size_t>(outcomes.size(),
                                          std::min(window, round_size)));

    for (std::uint64_t first = 0; first < round_size; first += window) {
      const std::uint64_t n = std::min(window, round_size - first);
      // One task per trial: lengths are heavy-tailed (a surviving trial
      // runs the whole horizon), so the pool's atomic-ticket scheduling
      // does the load balancing. Slots are disjoint; no synchronization
      // needed.
      pool.parallel_chunks(
          n, 1, config.threads,
          [&](std::uint64_t, std::uint64_t begin, std::uint64_t end) {
            // Foreign-pool workers (slot >= arenas.size()) take the
            // fresh-stack path — see the arena-vector comment above.
            const unsigned slot = exec::ThreadPool::current_slot();
            TrialArena* arena =
                config.reuse_trial_stacks && slot < arenas.size()
                    ? arenas[slot].get()
                    : nullptr;
            for (std::uint64_t i = begin; i < end; ++i) {
              const std::uint64_t t = first + i;
              const std::size_t c = task_cell(t);
              const std::uint64_t trial =
                  states[c].next_trial - grant[c] + (t - offsets[c]);
              const CampaignCell& cell = cells[c];
              const std::uint64_t seed =
                  trial_seed(config.base_seed, cell_indices[c], trial);
              outcomes[i] =
                  arena != nullptr
                      ? arena->run(cell.system, cell.plan, seed)
                      : TrialArena(config.scheduler)
                            .run(cell.system, cell.plan, seed);
            }
          });

      // Serial reduction in task-index order: bit-identical for any thread
      // count — and the close/continue decisions below depend only on it.
      for (std::uint64_t i = 0; i < n; ++i) {
        absorb_outcome(states[task_cell(first + i)].stats, outcomes[i]);
      }
    }

    any_open = false;
    for (CellState& st : states) {
      if (!st.open) continue;
      if (st.stats.lifetime.count() > 1) {
        st.stats.lifetime_ci = normal_ci(st.stats.lifetime, config.ci_level);
      }
      if (st.next_trial >= max_trials) {
        st.open = false;
        continue;
      }
      if (adaptive) {
        bool satisfied = true;
        for (const StoppingRule& rule : rules) {
          satisfied =
              satisfied && stopping_rule_satisfied(st.stats, rule,
                                                   config.ci_level);
        }
        if (satisfied) {
          st.open = false;
          continue;
        }
      }
      any_open = true;
    }
  }

  CampaignResult result;
  result.cells.reserve(cells.size());
  for (CellState& st : states) {
    result.total_trials += st.stats.trials;
    result.total_events += st.stats.events_executed;
    result.cells.push_back(std::move(st.stats));
  }
  return result;
}

CampaignResult run_campaign(const std::vector<CampaignCell>& cells,
                            const CampaignConfig& config) {
  std::vector<std::uint64_t> identity(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) identity[c] = c;
  return run_campaign_subset(cells, config, identity);
}

std::vector<CampaignCell> cross(const std::vector<model::SystemKind>& systems,
                                const std::vector<net::ScenarioPlan>& plans) {
  std::vector<CampaignCell> cells;
  cells.reserve(systems.size() * plans.size());
  for (model::SystemKind system : systems) {
    for (const net::ScenarioPlan& plan : plans) {
      cells.push_back(CampaignCell{system, plan});
    }
  }
  return cells;
}

}  // namespace fortress::scenario
