// fortress_bench — the program behind benchmark/run.py.
//
//   fortress_bench measure SPEC --seconds T
//       set up, then run a timed rep of SPEC, rep i at base_seed + i, and
//       repeat until T seconds of set-ups and reps (at least three reps)
//       have passed; re-run the first rep untimed; print the raw samples and
//       per-cell digests as JSON.
//   fortress_bench trace SPEC --trace-out FILE
//       an untraced rep, the traced replay of its exact trial set
//       (replay.hpp), a second untraced rep, and a t1-vs-t4 scaling pair on
//       a quarter-size grid; print the per-layer metrics as JSON and write
//       the spans.
//   fortress_bench --selftest SPEC...
//       on tiny sizes of each spec, check that every replayed TrialOutcome
//       equals scenario::run_trial's, field for field.
//
// One timed rep is the in-process equivalent of
// `campaign_driver run --shards 1`: run_campaign_shard, the sidecar codec
// round trip, merge_shards and the result report. The worker count is the
// spec's `threads` capped at the CPUs this process may run on.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "exec/thread_pool.hpp"
#include "replay.hpp"
#include "scenario/shard.hpp"

namespace {

using namespace fortress;
using Clock = std::chrono::steady_clock;

constexpr double kSetupSliceS = 0.02;
constexpr std::size_t kMinReps = 3;
constexpr std::uint64_t kWarmupSeed = 1;
/// Workers of the wide side of the traced run's t1-vs-tN scaling pair.
constexpr unsigned kScalingThreads = 4;
/// Trials whose spans go to the trace file; the metrics use every span.
constexpr std::uint32_t kTraceFileTrials = 4096;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

unsigned cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Workload {
  scenario::CampaignSpec spec;
  std::vector<scenario::CampaignCell> cells;
  std::uint64_t digest = 0;
};

/// Spec decode and validation: the per-process set-up every rep relies on.
Workload load(const std::string& path) {
  Workload w;
  w.spec = scenario::campaign_spec_from_json(slurp(path));
  w.cells = w.spec.cells();
  for (const scenario::CampaignCell& cell : w.cells) cell.plan.validate();
  w.digest = scenario::campaign_spec_digest(w.spec);
  const unsigned cap = w.spec.config.threads == 0 ? cpus_available()
                                                  : w.spec.config.threads;
  w.spec.config.threads = std::min(cap, cpus_available());
  return w;
}

/// One timed rep.
scenario::CampaignResult timed_op(const Workload& w,
                                  const scenario::CampaignConfig& cfg) {
  const scenario::ShardResult shard =
      scenario::run_campaign_shard(w.cells, cfg, 0, 1, w.digest);
  const scenario::ShardResult decoded =
      scenario::shard_result_from_json(scenario::shard_result_to_json(shard));
  scenario::CampaignResult merged = scenario::merge_shards({decoded});
  scenario::campaign_result_to_json(merged);
  return merged;
}

/// FNV-1a of campaign_result_to_json for each cell on its own.
std::vector<std::uint64_t> cell_digests(const scenario::CampaignResult& r) {
  std::vector<std::uint64_t> out;
  for (const scenario::CellStats& c : r.cells) {
    scenario::CampaignResult one;
    one.cells.push_back(c);
    one.total_trials = c.trials;
    one.total_events = c.events_executed;
    out.push_back(json::fnv1a64(scenario::campaign_result_to_json(one)));
  }
  return out;
}

/// Invariants any correct result satisfies, at any seed.
void check_result(const scenario::CampaignResult& r,
                  const scenario::CampaignConfig& cfg, std::size_t n_cells,
                  std::vector<std::string>& errors) {
  if (r.cells.size() != n_cells) {
    errors.push_back("result has " + std::to_string(r.cells.size()) +
                     " cells, spec has " + std::to_string(n_cells));
    return;
  }
  std::uint64_t trials = 0;
  for (std::size_t c = 0; c < r.cells.size(); ++c) {
    const scenario::CellStats& s = r.cells[c];
    const std::string where = "cell " + std::to_string(c) + ": ";
    trials += s.trials;
    if (s.compromised + s.censored != s.trials) {
      errors.push_back(where + "compromised + censored != trials");
    }
    if (s.lifetime.count() != s.trials) {
      errors.push_back(where + "lifetime samples != trials");
    }
    const std::uint64_t cap = cfg.adaptive.enabled
                                  ? cfg.adaptive.max_trials_per_cell
                                  : cfg.trials_per_cell;
    if (s.trials == 0 || s.trials > cap ||
        (!cfg.adaptive.enabled && s.trials != cap)) {
      errors.push_back(where + std::to_string(s.trials) +
                       " trials against a budget of " + std::to_string(cap));
    }
  }
  if (trials != r.total_trials) {
    errors.push_back("total_trials disagrees with the cells' sum");
  }
}

/// One trial per cell at a fixed seed: set-up time measures the set-up
/// machinery, not whether the run's seed happens to give a long first trial.
scenario::CampaignConfig warmup_config(const scenario::CampaignConfig& cfg) {
  scenario::CampaignConfig warm = cfg;
  warm.adaptive.enabled = false;
  warm.trials_per_cell = 1;
  warm.base_seed = kWarmupSeed;
  return warm;
}

/// The same grid with a quarter of the trial budget per cell.
scenario::CampaignConfig quarter_config(const scenario::CampaignConfig& cfg) {
  scenario::CampaignConfig q = cfg;
  q.trials_per_cell = std::max<std::uint64_t>(1, cfg.trials_per_cell / 4);
  q.adaptive.max_trials_per_cell = std::max<std::uint64_t>(
      cfg.adaptive.round_trials, cfg.adaptive.max_trials_per_cell / 4);
  return q;
}

void write_digests(json::Writer& w, const std::vector<std::uint64_t>& d) {
  w.begin_array();
  for (std::uint64_t v : d) w.value(std::string_view(hex64(v)));
  w.end_array();
}

void write_errors(json::Writer& w, const std::vector<std::string>& errors) {
  w.key("errors");
  w.begin_array();
  for (const std::string& e : errors) w.value(std::string_view(e));
  w.end_array();
}

void write_header(json::Writer& w, const char* mode, const Workload& wl) {
  w.key("mode");
  w.value(std::string_view(mode));
  w.key("spec");
  w.value(std::string_view(wl.spec.name));
  w.key("base_seed");
  w.value(wl.spec.config.base_seed);
  w.key("threads");
  w.value(static_cast<std::uint64_t>(wl.spec.config.threads));
  w.key("nproc");
  w.value(static_cast<std::uint64_t>(cpus_available()));
  w.key("cells");
  w.value(static_cast<std::uint64_t>(wl.cells.size()));
}

int cmd_measure(const std::string& spec_path, double seconds,
                Clock::time_point process_start) {
  // Set-up: decode and validate the spec, start the shared pool (the first
  // time only), and run a warm-up rep of one trial per cell. The first
  // set-up is timed from process start.
  std::vector<double> setup_s;
  Workload wl;
  auto set_up = [&] {
    const Clock::time_point t0 =
        setup_s.empty() ? process_start : Clock::now();
    wl = load(spec_path);
    exec::ThreadPool::shared();
    timed_op(wl, warmup_config(wl.spec.config));
    setup_s.push_back(seconds_since(t0));
    return setup_s.back();
  };

  // Set-ups run before every rep, so that their median sees the machine the
  // reps see; cheap ones repeat for kSetupSliceS. Rep i runs the campaign at
  // base_seed + i, so a run's median is taken over many seeds and does not
  // hang on how long one seed's trials are.
  struct Rep {
    std::uint64_t seed;
    double wall_s;
    scenario::CampaignResult result;
  };
  std::vector<Rep> reps;
  std::vector<std::string> errors;
  double elapsed = 0.0;
  while (reps.size() < kMinReps || elapsed < seconds) {
    double slice = 0.0;
    do slice += set_up();
    while (slice < kSetupSliceS);
    elapsed += slice;

    scenario::CampaignConfig cfg = wl.spec.config;
    cfg.base_seed += reps.size();
    const Clock::time_point t0 = Clock::now();
    scenario::CampaignResult r = timed_op(wl, cfg);
    const double wall = seconds_since(t0);
    elapsed += wall;
    check_result(r, cfg, wl.cells.size(), errors);
    reps.push_back({cfg.base_seed, wall, std::move(r)});
  }
  // The first rep's campaign once more, untimed: state a rep leaves behind
  // must not change a later rep's answer.
  scenario::CampaignConfig first = wl.spec.config;
  first.base_seed = reps.front().seed;
  const std::vector<std::uint64_t> rerun = cell_digests(timed_op(wl, first));

  json::Writer w;
  w.begin_object();
  write_header(w, "measure", wl);
  w.key("setup_s");
  w.begin_array();
  for (double s : setup_s) w.value(s);
  w.end_array();
  w.key("reps");
  w.begin_array();
  for (const Rep& rep : reps) {
    w.begin_object();
    w.key("seed");
    w.value(rep.seed);
    w.key("wall_s");
    w.value(rep.wall_s);
    w.key("trials");
    w.value(rep.result.total_trials);
    w.key("events");
    w.value(rep.result.total_events);
    w.key("digests");
    write_digests(w, cell_digests(rep.result));
    w.end_object();
  }
  w.end_array();
  w.key("rerun_digests");
  write_digests(w, rerun);
  write_errors(w, errors);
  w.key("peak_rss_mib");
  w.value(peak_rss_mib());
  w.end_object();
  std::cout << w.str() << "\n";
  return 0;
}

// --- trace ------------------------------------------------------------------

struct Layer {
  const char* name;
  double value;
  const char* unit;
};

double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank =
      static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

std::vector<Layer> layer_metrics(const bench::Replay& rp,
                                 const scenario::CampaignConfig& cfg,
                                 std::size_t n_cells, double untraced_s,
                                 double replay_s, double speedup) {
  constexpr std::size_t kStages = static_cast<std::size_t>(bench::Stage::kCount);
  double total_ns[kStages] = {};
  std::uint64_t count[kStages] = {};
  std::vector<double> trial_us;
  for (const auto& log : rp.spans) {
    for (const bench::Span& s : log) {
      const auto k = static_cast<std::size_t>(s.stage);
      total_ns[k] += static_cast<double>(s.end_ns - s.start_ns);
      ++count[k];
      if (s.stage == bench::Stage::Trial) {
        trial_us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      }
    }
  }
  auto total = [&](bench::Stage s) {
    return total_ns[static_cast<std::size_t>(s)];
  };
  // Mean microseconds per occurrence of a stage (0 when it never ran).
  auto per_call_us = [&](bench::Stage s) {
    const std::uint64_t n = count[static_cast<std::size_t>(s)];
    return n == 0 ? 0.0 : total(s) * 1e-3 / static_cast<double>(n);
  };

  const scenario::CampaignResult& r = rp.result;
  const double trials = static_cast<double>(r.total_trials);
  const double events = static_cast<double>(r.total_events);
  double probes = 0.0, pop_offered = 0.0, pop_completed = 0.0;
  double enqueued = 0.0, shed = 0.0;
  for (const scenario::CellStats& c : r.cells) {
    probes += static_cast<double>(c.attacker.direct_probes +
                                  c.attacker.indirect_probes);
    pop_offered += static_cast<double>(c.population.offered);
    pop_completed += static_cast<double>(c.population.completed);
    enqueued += static_cast<double>(c.traffic.enqueued);
    shed += static_cast<double>(c.traffic.shed);
  }
  double deliveries = 0.0, forwarded = 0.0;
  for (const bench::TrialCounts& tc : rp.counts) {
    deliveries += static_cast<double>(tc.deliveries);
    forwarded += static_cast<double>(tc.forwarded);
  }
  double tail_ns = 0.0;
  for (const bench::RoundTiming& rt : rp.rounds) {
    tail_ns += static_cast<double>(rt.end_ns - rt.first_idle_ns);
  }
  const double trial_ns = total(bench::Stage::Trial);
  const double setup_ns =
      total(bench::Stage::Reset) + total(bench::Stage::Build) +
      total(bench::Stage::Start) + total(bench::Stage::Population) +
      total(bench::Stage::Traffic) + total(bench::Stage::AttackSetup);
  const double covered_ns = setup_ns + total(bench::Stage::SimRun) +
                            total(bench::Stage::Collect);
  const std::uint64_t cap = cfg.adaptive.enabled
                                ? cfg.adaptive.max_trials_per_cell
                                : cfg.trials_per_cell;
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  return {
      {"core.reset_us", per_call_us(bench::Stage::Reset), "us"},
      {"core.start_us", per_call_us(bench::Stage::Start), "us"},
      {"attack.setup_us", per_call_us(bench::Stage::AttackSetup), "us"},
      {"core.build_us", per_call_us(bench::Stage::Build), "us"},
      {"core.builds", static_cast<double>(rp.builds), "count"},
      {"share.setup", ratio(setup_ns, trial_ns), "frac"},
      {"sim.run_us", total(bench::Stage::SimRun) * 1e-3 / trials, "us"},
      {"sim.events", events / trials, "events/trial"},
      {"sim.ns_per_event", ratio(total(bench::Stage::SimRun), events), "ns"},
      {"net.deliveries", deliveries / trials, "msgs/trial"},
      {"net.deliveries_per_event", ratio(deliveries, events), "msgs/event"},
      {"attack.probes", probes / trials, "probes/trial"},
      {"share.sim_run", ratio(total(bench::Stage::SimRun), trial_ns), "frac"},
      {"core.population_setup_us", per_call_us(bench::Stage::Population),
       "us"},
      {"core.pop_offered", pop_offered / trials, "req/trial"},
      {"core.pop_completed_frac", ratio(pop_completed, pop_offered), "frac"},
      {"osl.enqueued", enqueued / trials, "msgs/trial"},
      {"osl.shed", shed / trials, "msgs/trial"},
      {"proxy.forwarded", forwarded / trials, "msgs/trial"},
      {"exec.busy_frac",
       ratio(trial_ns, static_cast<double>(cfg.threads) * rp.trials_s * 1e9),
       "frac"},
      {"exec.round_tail_ms", tail_ns * 1e-6, "ms"},
      {"scenario.rounds", static_cast<double>(rp.rounds.size()), "count"},
      {"scenario.budget_used_frac",
       trials / (static_cast<double>(n_cells) * static_cast<double>(cap)),
       "frac"},
      {"scenario.trial_us_p50", nearest_rank(trial_us, 0.50), "us"},
      {"scenario.trial_us_p99", nearest_rank(trial_us, 0.99), "us"},
      {"scenario.traffic_setup_us", per_call_us(bench::Stage::Traffic), "us"},
      {"scenario.outcome_mib",
       static_cast<double>(rp.largest_round *
                           sizeof(scenario::TrialOutcome)) /
           (1024.0 * 1024.0),
       "MiB"},
      {"scenario.reduce_ms", rp.reduce_s * 1e3, "ms"},
      {"scenario.shard_codec_ms", rp.codec_s * 1e3, "ms"},
      {"scenario.collect_us", total(bench::Stage::Collect) * 1e-3 / trials,
       "us"},
      {"share.collect", ratio(total(bench::Stage::Collect), trial_ns), "frac"},
      {"trace.coverage", ratio(covered_ns, trial_ns), "frac"},
      {"trace.overhead_frac", replay_s / untraced_s - 1.0, "frac"},
      {"exec.speedup_t4", speedup, "x"},
  };
}

/// Spans as one JSON document: rounds first, then each written trial's span
/// followed by its stage spans. `parent` is the id (array position) of the
/// enclosing span; rounds have parent and trial -1.
void write_trace(const std::string& path, const std::string& workload,
                 const bench::Replay& rp) {
  std::uint64_t total_trials = 0;
  std::vector<std::uint64_t> round_end;  // exclusive trial-id bound per round
  for (const bench::RoundTiming& rt : rp.rounds) {
    total_trials += rt.trials;
    round_end.push_back(total_trials);
  }
  json::Writer w;
  w.begin_object();
  w.key("workload");
  w.value(std::string_view(workload));
  w.key("clock");
  w.value(std::string_view("steady_clock ns since replay start"));
  w.key("trials");
  w.value(total_trials);
  w.key("trials_written");
  w.value(std::min<std::uint64_t>(total_trials, kTraceFileTrials));
  w.key("spans");
  w.begin_array();
  int id = 0;
  auto emit = [&](std::string_view name, std::int64_t start, std::int64_t end,
                  int parent, int trial) {
    w.begin_object();
    w.key("name");
    w.value(name);
    w.key("start");
    w.value(static_cast<std::uint64_t>(start));
    w.key("end");
    w.value(static_cast<std::uint64_t>(end));
    w.key("parent");
    w.value(parent);
    w.key("trial");
    w.value(trial);
    w.end_object();
    return id++;
  };
  for (const bench::RoundTiming& rt : rp.rounds) {
    emit("exec.round", rt.start_ns, rt.end_ns, -1, -1);
  }
  for (const auto& log : rp.spans) {
    // A trial's stage spans are contiguous in its slot's log and end with
    // the trial span itself.
    std::size_t first = 0;
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (log[i].stage != bench::Stage::Trial) continue;
      if (log[i].trial < kTraceFileTrials) {
        const int trial = static_cast<int>(log[i].trial);
        const int round = static_cast<int>(
            std::upper_bound(round_end.begin(), round_end.end(),
                             log[i].trial) -
            round_end.begin());
        const int parent = emit(bench::stage_name(log[i].stage),
                                log[i].start_ns, log[i].end_ns, round, trial);
        for (std::size_t j = first; j < i; ++j) {
          emit(bench::stage_name(log[j].stage), log[j].start_ns,
               log[j].end_ns, parent, trial);
        }
      }
      first = i + 1;
    }
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path, std::ios::binary);
  out << w.str() << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

int cmd_trace(const std::string& spec_path, const std::string& trace_out) {
  Workload wl = load(spec_path);
  const scenario::CampaignConfig& cfg = wl.spec.config;
  exec::ThreadPool::shared();
  timed_op(wl, warmup_config(cfg));

  // Untraced reps on both sides of the replay, so that a drift in machine
  // speed during the run does not read as tracing overhead.
  Clock::time_point t0 = Clock::now();
  const scenario::CampaignResult measured = timed_op(wl, cfg);
  double untraced_s = seconds_since(t0);

  t0 = Clock::now();
  const bench::Replay rp = bench::replay_campaign(wl.cells, cfg, measured);
  const double replay_s = seconds_since(t0);

  t0 = Clock::now();
  timed_op(wl, cfg);
  untraced_s = (untraced_s + seconds_since(t0)) / 2.0;

  scenario::CampaignConfig quarter = quarter_config(cfg);
  quarter.threads = std::min(kScalingThreads, cpus_available());
  scenario::CampaignConfig quarter_t1 = quarter;
  quarter_t1.threads = 1;
  t0 = Clock::now();
  timed_op(wl, quarter_t1);
  const double t1_s = seconds_since(t0);
  t0 = Clock::now();
  timed_op(wl, quarter);
  const double tn_s = seconds_since(t0);

  std::vector<std::string> errors;
  check_result(measured, cfg, wl.cells.size(), errors);
  const std::vector<std::uint64_t> want = cell_digests(measured);
  const std::vector<std::uint64_t> got = cell_digests(rp.result);
  for (std::size_t c = 0; c < want.size(); ++c) {
    if (c >= got.size() || got[c] != want[c]) {
      errors.push_back("cell " + std::to_string(c) +
                       ": traced replay digest differs from the measured rep");
    }
  }
  write_trace(trace_out, wl.spec.name, rp);

  json::Writer w;
  w.begin_object();
  write_header(w, "trace", wl);
  w.key("trials");
  w.value(measured.total_trials);
  w.key("untraced_s");
  w.value(untraced_s);
  w.key("replay_s");
  w.value(replay_s);
  w.key("digests");
  write_digests(w, want);
  w.key("replay_digests");
  write_digests(w, got);
  write_errors(w, errors);
  w.key("layers");
  w.begin_object();
  for (const Layer& l : layer_metrics(rp, cfg, wl.cells.size(), untraced_s,
                                      replay_s, t1_s / tn_s)) {
    w.key(l.name);
    w.begin_object();
    w.key("value");
    w.value(l.value);
    w.key("unit");
    w.value(std::string_view(l.unit));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << w.str() << "\n";
  return 0;
}

// --- selftest -----------------------------------------------------------------

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// Names of the fields in which two outcomes differ.
std::vector<std::string> outcome_diff(const scenario::TrialOutcome& a,
                                      const scenario::TrialOutcome& b) {
  std::vector<std::string> d;
  auto eq = [&d](const char* name, std::uint64_t x, std::uint64_t y) {
    if (x != y) d.push_back(name);
  };
  eq("compromised", a.compromised, b.compromised);
  eq("lifetime_steps", a.lifetime_steps, b.lifetime_steps);
  eq("attacker.direct_probes", a.attacker.direct_probes,
     b.attacker.direct_probes);
  eq("attacker.indirect_probes", a.attacker.indirect_probes,
     b.attacker.indirect_probes);
  eq("attacker.crashes_caused", a.attacker.crashes_caused,
     b.attacker.crashes_caused);
  eq("attacker.compromises", a.attacker.compromises, b.attacker.compromises);
  eq("attacker.keys_learned", a.attacker.keys_learned,
     b.attacker.keys_learned);
  eq("events_executed", a.events_executed, b.events_executed);
  eq("blacklisted_sources", a.blacklisted_sources, b.blacklisted_sources);
  const scenario::TrafficStats& ta = a.traffic;
  const scenario::TrafficStats& tb = b.traffic;
  eq("traffic.offered", ta.offered, tb.offered);
  eq("traffic.completed", ta.completed, tb.completed);
  eq("traffic.timed_out", ta.timed_out, tb.timed_out);
  eq("traffic.gave_up", ta.gave_up, tb.gave_up);
  eq("traffic.retries", ta.retries, tb.retries);
  eq("traffic.rejected_responses", ta.rejected_responses,
     tb.rejected_responses);
  eq("traffic.enqueued", ta.enqueued, tb.enqueued);
  eq("traffic.served", ta.served, tb.served);
  eq("traffic.shed", ta.shed, tb.shed);
  eq("traffic.backpressured", ta.backpressured, tb.backpressured);
  eq("traffic.degraded", ta.degraded, tb.degraded);
  eq("traffic.dropped_on_reboot", ta.dropped_on_reboot, tb.dropped_on_reboot);
  eq("traffic.max_queue_depth", ta.max_queue_depth, tb.max_queue_depth);
  eq("traffic.goodput", bits(ta.goodput), bits(tb.goodput));
  eq("traffic.latency", ta.latency.fingerprint(), tb.latency.fingerprint());
  const core::PopulationStats& pa = a.population;
  const core::PopulationStats& pb = b.population;
  eq("population.offered", pa.offered, pb.offered);
  eq("population.completed", pa.completed, pb.completed);
  eq("population.timed_out", pa.timed_out, pb.timed_out);
  eq("population.gave_up", pa.gave_up, pb.gave_up);
  eq("population.retries", pa.retries, pb.retries);
  eq("population.rejected_responses", pa.rejected_responses,
     pb.rejected_responses);
  eq("population.skipped_busy", pa.skipped_busy, pb.skipped_busy);
  eq("population.latency", pa.latency.fingerprint(), pb.latency.fingerprint());
  return d;
}

int cmd_selftest(const std::vector<std::string>& specs) {
  int failures = 0;
  for (const std::string& path : specs) {
    Workload wl = load(path);
    scenario::CampaignConfig cfg = wl.spec.config;
    cfg.trials_per_cell = std::min<std::uint64_t>(cfg.trials_per_cell, 3);
    cfg.adaptive.round_trials = 2;
    cfg.adaptive.max_trials_per_cell = 4;
    const scenario::CampaignResult measured =
        scenario::run_campaign(wl.cells, cfg);

    std::uint64_t checked = 0;
    const bench::Replay rp = bench::replay_campaign(
        wl.cells, cfg, measured,
        [&](std::uint32_t cell, std::uint64_t trial, std::uint64_t seed,
            const scenario::TrialOutcome& got) {
          const scenario::CampaignCell& c = wl.cells[cell];
          const scenario::TrialOutcome want =
              scenario::run_trial(c.system, c.plan, seed);
          for (const std::string& field : outcome_diff(got, want)) {
            std::fprintf(stderr,
                         "selftest %s: cell %u trial %llu: replay differs "
                         "from run_trial in %s\n",
                         wl.spec.name.c_str(), cell,
                         static_cast<unsigned long long>(trial),
                         field.c_str());
            ++failures;
          }
          ++checked;
        });
    if (cell_digests(rp.result) != cell_digests(measured)) {
      std::fprintf(stderr,
                   "selftest %s: replayed cells differ from run_campaign\n",
                   wl.spec.name.c_str());
      ++failures;
    }
    std::printf("selftest %s: %llu trials replayed\n", wl.spec.name.c_str(),
                static_cast<unsigned long long>(checked));
  }
  std::printf("selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: fortress_bench measure SPEC --seconds T\n"
               "       fortress_bench trace SPEC --trace-out FILE\n"
               "       fortress_bench --selftest SPEC...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() >= 2 && args[0] == "--selftest") {
      return cmd_selftest({args.begin() + 1, args.end()});
    }
    if (args.size() == 4 && args[0] == "measure" && args[2] == "--seconds") {
      return cmd_measure(args[1], std::stod(args[3]), process_start);
    }
    if (args.size() == 4 && args[0] == "trace" && args[2] == "--trace-out") {
      return cmd_trace(args[1], args[3]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fortress_bench: %s\n", e.what());
    return 1;
  }
  return usage();
}
