#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/live_system.hpp"
#include "exec/thread_pool.hpp"
#include "scenario/shard.hpp"
#include "scenario/traffic.hpp"

namespace fortress::bench {

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::Trial: return "trial";
    case Stage::Reset: return "core.reset";
    case Stage::Build: return "core.build";
    case Stage::Start: return "core.start";
    case Stage::Population: return "core.population";
    case Stage::Traffic: return "scenario.traffic_setup";
    case Stage::SimRun: return "sim.run";
    case Stage::AttackSetup: return "attack.setup";
    case Stage::Collect: return "scenario.collect";
    case Stage::kCount: break;
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

/// Appends one trial's spans to its worker slot's log. Each stage reads its
/// own start, so code between layer calls stays outside every stage span and
/// shows up as the gap trace.coverage measures.
class Recorder {
 public:
  Recorder(std::vector<Span>& log, Clock::time_point epoch, std::uint32_t trial)
      : log_(log), epoch_(epoch), trial_(trial) {}

  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  std::int64_t close(Stage stage, std::int64_t start) {
    const std::int64_t end = now();
    add(stage, start, end);
    return end;
  }
  void add(Stage stage, std::int64_t start, std::int64_t end) {
    log_.push_back(Span{start, end, trial_, stage});
  }

 private:
  std::vector<Span>& log_;
  Clock::time_point epoch_;
  std::uint32_t trial_;
};

// Mirror of campaign.cpp's apply_fault.
void apply_fault(core::LiveSystem& sys, const net::FaultEvent& fault) {
  osl::Machine* m = sys.fault_target(fault.target, fault.index);
  if (m == nullptr) return;
  switch (fault.kind) {
    case net::FaultEvent::Kind::Crash:
      m->shutdown();
      break;
    case net::FaultEvent::Kind::Recover:
      if (m->booted()) {
        m->recover();
      } else {
        m->revive();
      }
      break;
  }
}

/// Mirror of scenario::TrialArena plus drive_trial, with a span around each
/// layer call. Member order matches TrialArena so teardown order does too.
class TracedStack {
 public:
  explicit TracedStack(sim::SchedulerKind scheduler) : sim_(scheduler) {}
  TracedStack(const TracedStack&) = delete;
  TracedStack& operator=(const TracedStack&) = delete;

  scenario::TrialOutcome run(model::SystemKind system,
                             const net::ScenarioPlan& plan, std::uint64_t seed,
                             Recorder& rec, TrialCounts& counts);

  std::uint64_t builds() const { return builds_; }

 private:
  sim::Simulator sim_;
  std::unique_ptr<core::LiveSystem> live_;
  core::LiveS2* live_s2_ = nullptr;  ///< live_ when it is an S2 deployment
  model::SystemKind built_system_ = model::SystemKind::S2;
  int built_servers_ = 0;
  int built_proxies_ = 0;
  std::uint64_t builds_ = 0;
  std::unique_ptr<core::ClientPopulation> population_;
  scenario::AttackerPool attacker_pool_;
};

scenario::TrialOutcome TracedStack::run(model::SystemKind system,
                                        const net::ScenarioPlan& plan,
                                        std::uint64_t seed, Recorder& rec,
                                        TrialCounts& counts) {
  const std::int64_t begin = rec.now();
  std::int64_t t = begin;

  // --- TrialArena::run --------------------------------------------------
  const bool reusable = live_ != nullptr && built_system_ == system &&
                        built_servers_ == plan.n_servers &&
                        built_proxies_ == plan.n_proxies;
  if (reusable) {
    sim_.reset();
    live_->reset(plan, seed);
    rec.close(Stage::Reset, t);
  } else {
    attacker_pool_.attacker.reset();
    population_.reset();
    live_.reset();
    sim_.reset();
    live_ = core::make_live_system(sim_, system, plan, seed);
    live_s2_ = dynamic_cast<core::LiveS2*>(live_.get());
    built_system_ = system;
    built_servers_ = plan.n_servers;
    built_proxies_ = plan.n_proxies;
    ++builds_;
    rec.close(Stage::Build, t);
  }

  // --- drive_trial ------------------------------------------------------
  sim::Simulator& sim = sim_;
  core::LiveSystem& live = *live_;
  t = rec.now();
  live.start();
  live.on_failure = [&sim] { sim.request_stop(); };
  const sim::Time horizon =
      plan.step_duration * static_cast<sim::Time>(plan.horizon_steps);
  for (const net::FaultEvent& fault : plan.faults) {
    if (fault.at >= horizon) continue;
    core::LiveSystem* sys = &live;
    sim.schedule_at(fault.at, [sys, fault] { apply_fault(*sys, fault); });
  }
  rec.close(Stage::Start, t);

  scenario::TrialOutcome out;
  core::ClientPopulation* population = nullptr;
  if (plan.population.enabled()) {
    t = rec.now();
    const std::uint64_t pop_seed = seed ^ 0x50B5CA1EULL;
    if (population_ != nullptr) {
      population_->reset(live.directory(), plan.population, horizon, pop_seed);
    } else {
      population_ = std::make_unique<core::ClientPopulation>(
          sim, live.network(), live.registry(), live.directory(),
          plan.population, horizon, pop_seed);
    }
    population = population_.get();
    rec.close(Stage::Population, t);
  } else {
    population_.reset();
  }
  std::unique_ptr<scenario::TrafficGenerator> traffic;
  if (plan.traffic.enabled()) {
    t = rec.now();
    traffic = std::make_unique<scenario::TrafficGenerator>(
        sim, live.network(), live.registry(), live.directory(), plan.traffic,
        horizon, seed ^ 0x7AFF1CULL);
    rec.close(Stage::Traffic, t);
  }
  attack::DerandAttacker* attacker = nullptr;
  if (plan.attack.enabled) {
    t = rec.now();
    out.events_executed +=
        sim.run_until(std::min(plan.attack.start_time, horizon));
    rec.close(Stage::SimRun, t);

    t = rec.now();
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
    scenario::AttackerPool& pool = attacker_pool_;
    const bool pool_hit = pool.attacker != nullptr &&
                          pool.direct_wired == plan.attack.direct_enabled &&
                          pool.sybils == acfg.sybil_identities &&
                          (!indirect_active || pool.indirect_wired);
    if (pool_hit) {
      pool.attacker->reset(acfg, indirect_active);
    } else {
      pool.attacker.reset();
      auto fresh =
          std::make_unique<attack::DerandAttacker>(sim, live.network(), acfg);
      if (plan.attack.direct_enabled) {
        for (osl::Machine* target : live.direct_attack_surface()) {
          fresh->add_direct_target(*target);
        }
      }
      if (!hidden.empty()) {
        for (osl::Machine* pad : live.launchpad_machines()) {
          fresh->add_launchpad(*pad, hidden);
        }
        if (indirect_active) {
          fresh->set_indirect_channel(live.directory().proxies);
        }
      }
      pool.attacker = std::move(fresh);
      pool.direct_wired = plan.attack.direct_enabled;
      pool.indirect_wired = indirect_active;
      pool.sybils = acfg.sybil_identities;
    }
    attacker = pool.attacker.get();
    if (!live.failed()) attacker->start();
    rec.close(Stage::AttackSetup, t);
  }

  if (!live.failed()) {
    t = rec.now();
    out.events_executed += sim.run_until(horizon);
    rec.close(Stage::SimRun, t);
  }

  t = rec.now();
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
        horizon > 0.0 ? static_cast<double>(out.traffic.completed) / horizon
                      : 0.0;
    traffic.reset();
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
  counts.deliveries = live.network().delivered_count();
  if (live_s2_ != nullptr) {
    for (int i = 0; i < live_s2_->n_proxies(); ++i) {
      counts.forwarded += live_s2_->proxy(i).stats().requests_forwarded;
    }
  }
  rec.add(Stage::Trial, begin, rec.close(Stage::Collect, t));
  return out;
}

// Mirror of campaign.cpp's absorb_outcome.
void absorb_outcome(scenario::CellStats& stats,
                    const scenario::TrialOutcome& o) {
  ++stats.trials;
  if (o.compromised) {
    ++stats.compromised;
  } else {
    ++stats.censored;
  }
  stats.lifetime.add(static_cast<double>(o.lifetime_steps));
  stats.attacker.direct_probes += o.attacker.direct_probes;
  stats.attacker.indirect_probes += o.attacker.indirect_probes;
  stats.attacker.crashes_caused += o.attacker.crashes_caused;
  stats.attacker.compromises += o.attacker.compromises;
  stats.attacker.keys_learned += o.attacker.keys_learned;
  stats.events_executed += o.events_executed;
  stats.blacklisted_sources += o.blacklisted_sources;
  stats.traffic.merge(o.traffic);
  stats.population.merge(o.population);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

Replay replay_campaign(const std::vector<scenario::CampaignCell>& cells,
                       const scenario::CampaignConfig& config,
                       const scenario::CampaignResult& measured,
                       const OutcomeObserver& observer) {
  const bool adaptive = config.adaptive.enabled;
  if (adaptive && config.adaptive.work_stealing) {
    throw std::runtime_error("replay: work stealing must be off");
  }
  if (measured.cells.size() != cells.size()) {
    throw std::runtime_error("replay: measured result has " +
                             std::to_string(measured.cells.size()) +
                             " cells, the grid has " +
                             std::to_string(cells.size()));
  }
  const std::uint64_t round_trials =
      adaptive ? config.adaptive.round_trials : config.trials_per_cell;
  const std::uint64_t max_trials =
      adaptive ? config.adaptive.max_trials_per_cell : config.trials_per_cell;
  std::uint64_t n_rounds = 0;
  for (const scenario::CellStats& c : measured.cells) {
    n_rounds = std::max(n_rounds, c.rounds);
  }

  exec::ThreadPool& pool = exec::ThreadPool::shared();
  Replay rp;
  rp.spans.resize(pool.slot_count());
  // Room for a fair share of every trial's spans plus a quarter, so that
  // growing a log rarely lands in the gaps between stage spans.
  const std::size_t per_slot =
      measured.total_trials * static_cast<std::size_t>(Stage::kCount) * 5 /
      (4 * std::max(1u, config.threads));
  for (auto& log : rp.spans) log.reserve(per_slot);
  std::vector<std::unique_ptr<TracedStack>> stacks(pool.slot_count());
  for (auto& s : stacks) s = std::make_unique<TracedStack>(config.scheduler);

  std::vector<scenario::CellStats> stats(cells.size());
  std::vector<std::uint64_t> next_trial(cells.size(), 0);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    stats[c].system = cells[c].system;
    stats[c].plan_name = cells[c].plan.name;
  }

  struct Task {
    std::uint32_t cell;
    std::uint64_t trial;
  };
  std::vector<Task> tasks;
  std::vector<scenario::TrialOutcome> outcomes;
  std::vector<std::int64_t> last_end(pool.slot_count());
  const Clock::time_point epoch = Clock::now();
  std::uint32_t trial_base = 0;

  for (std::uint64_t r = 0; r < n_rounds; ++r) {
    // Stealing off: every cell still open in round r is granted
    // min(round_trials, remaining budget), exactly as run_campaign plans it.
    tasks.clear();
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (measured.cells[c].rounds <= r) continue;
      const std::uint64_t n = std::min(round_trials, max_trials - next_trial[c]);
      for (std::uint64_t i = 0; i < n; ++i) {
        tasks.push_back({static_cast<std::uint32_t>(c), next_trial[c] + i});
      }
      next_trial[c] += n;
      ++stats[c].rounds;
    }
    outcomes.assign(tasks.size(), scenario::TrialOutcome{});
    rp.counts.resize(trial_base + tasks.size());
    std::fill(last_end.begin(), last_end.end(), -1);

    RoundTiming timing;
    timing.trials = tasks.size();
    timing.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - epoch)
                          .count();
    pool.parallel_chunks(
        tasks.size(), 1, config.threads,
        [&](std::uint64_t, std::uint64_t begin, std::uint64_t end) {
          const unsigned slot = exec::ThreadPool::current_slot();
          if (slot >= stacks.size()) {
            throw std::runtime_error("replay: worker slot outside the pool");
          }
          for (std::uint64_t t = begin; t < end; ++t) {
            const Task& task = tasks[t];
            const scenario::CampaignCell& cell = cells[task.cell];
            const std::uint32_t id =
                trial_base + static_cast<std::uint32_t>(t);
            Recorder rec(rp.spans[slot], epoch, id);
            outcomes[t] = stacks[slot]->run(
                cell.system, cell.plan,
                scenario::trial_seed(config.base_seed, task.cell, task.trial),
                rec, rp.counts[id]);
            last_end[slot] = rp.spans[slot].back().end_ns;
          }
        });
    timing.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - epoch)
                        .count();
    timing.first_idle_ns = timing.end_ns;
    for (std::int64_t e : last_end) {
      if (e >= 0) timing.first_idle_ns = std::min(timing.first_idle_ns, e);
    }
    rp.rounds.push_back(timing);
    rp.largest_round = std::max<std::uint64_t>(rp.largest_round, tasks.size());

    const Clock::time_point reduce_start = Clock::now();
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      absorb_outcome(stats[tasks[t].cell], outcomes[t]);
    }
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (measured.cells[c].rounds > r && stats[c].lifetime.count() > 1) {
        stats[c].lifetime_ci = normal_ci(stats[c].lifetime, config.ci_level);
      }
    }
    rp.reduce_s += seconds_since(reduce_start);

    if (observer) {
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        const Task& task = tasks[t];
        observer(task.cell, task.trial,
                 scenario::trial_seed(config.base_seed, task.cell, task.trial),
                 outcomes[t]);
      }
    }
    trial_base += static_cast<std::uint32_t>(tasks.size());
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (next_trial[c] != measured.cells[c].trials) {
      throw std::runtime_error(
          "replay: cell " + std::to_string(c) + " rebuilt " +
          std::to_string(next_trial[c]) + " trials from its rounds, measured " +
          std::to_string(measured.cells[c].trials));
    }
  }
  for (const auto& s : stacks) rp.builds += s->builds();
  for (const RoundTiming& rt : rp.rounds) {
    rp.trials_s += static_cast<double>(rt.end_ns - rt.start_ns) * 1e-9;
  }

  // The shard codec path of one timed rep, on the replayed cells.
  const Clock::time_point codec_start = Clock::now();
  scenario::ShardResult shard;
  shard.n_cells = cells.size();
  for (std::size_t c = 0; c < cells.size(); ++c) shard.cell_indices.push_back(c);
  shard.cells = std::move(stats);
  const scenario::ShardResult decoded =
      scenario::shard_result_from_json(scenario::shard_result_to_json(shard));
  rp.result = scenario::merge_shards({decoded});
  scenario::campaign_result_to_json(rp.result);
  rp.codec_s = seconds_since(codec_start);
  return rp;
}

}  // namespace fortress::bench
