// Tests for the campaign scale-out plane: shard partitioning's bit-identity
// to the single-process run, the exact sidecar/spec codecs, and the merge's
// integrity checks (exactly-once coverage, digest agreement).
#include "scenario/shard.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.hpp"

namespace fortress::scenario {
namespace {

net::ScenarioPlan fast_plan(std::uint64_t chi, double omega, double kappa,
                            std::uint64_t horizon) {
  net::ScenarioPlan plan;
  plan.keyspace = chi;
  plan.attack.probes_per_step = omega;
  plan.attack.indirect_fraction = kappa;
  plan.horizon_steps = horizon;
  plan.proxy_blacklist = false;
  plan.latency = net::LatencySpec::uniform(0.01, 0.02);
  return plan;
}

CampaignSpec smoke_spec() {
  CampaignSpec spec;
  spec.name = "unit";
  spec.description = "shard unit fixture";
  spec.config.base_seed = 404;
  spec.config.threads = 2;
  spec.config.adaptive.enabled = true;
  spec.config.adaptive.round_trials = 4;
  spec.config.adaptive.target_rel_ci = 0.15;
  spec.config.adaptive.max_trials_per_cell = 16;
  spec.systems = {model::SystemKind::S1, model::SystemKind::S2};
  spec.plans = {fast_plan(64, 8.0, 0.5, 40), fast_plan(128, 8.0, 0.25, 40)};
  spec.plans[1].name = "quarter-kappa";
  return spec;
}

void expect_histograms_identical(const LatencyHistogram& a,
                                 const LatencyHistogram& b) {
  EXPECT_EQ(a.count(), b.count());
  for (int bin = 0; bin < LatencyHistogram::kBins; ++bin) {
    EXPECT_EQ(a.bin(bin), b.bin(bin)) << "bin " << bin;
  }
}

// Every CellStats leaf, listed by hand: this oracle must not share the
// codec's field table, or a field missing from both would go unnoticed.
void expect_cells_bit_identical(const CellStats& a, const CellStats& b) {
  EXPECT_EQ(a.system, b.system);
  EXPECT_EQ(a.plan_name, b.plan_name);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.compromised, b.compromised);
  EXPECT_EQ(a.censored, b.censored);
  EXPECT_EQ(a.lifetime.count(), b.lifetime.count());
  EXPECT_EQ(a.lifetime.raw_mean(), b.lifetime.raw_mean());
  EXPECT_EQ(a.lifetime.raw_m2(), b.lifetime.raw_m2());
  EXPECT_EQ(a.lifetime.raw_min(), b.lifetime.raw_min());
  EXPECT_EQ(a.lifetime.raw_max(), b.lifetime.raw_max());
  EXPECT_EQ(a.lifetime_ci.lo, b.lifetime_ci.lo);
  EXPECT_EQ(a.lifetime_ci.hi, b.lifetime_ci.hi);
  EXPECT_EQ(a.lifetime_ci.level, b.lifetime_ci.level);
  EXPECT_EQ(a.attacker.direct_probes, b.attacker.direct_probes);
  EXPECT_EQ(a.attacker.indirect_probes, b.attacker.indirect_probes);
  EXPECT_EQ(a.attacker.crashes_caused, b.attacker.crashes_caused);
  EXPECT_EQ(a.attacker.compromises, b.attacker.compromises);
  EXPECT_EQ(a.attacker.keys_learned, b.attacker.keys_learned);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.blacklisted_sources, b.blacklisted_sources);
  EXPECT_EQ(a.traffic.offered, b.traffic.offered);
  EXPECT_EQ(a.traffic.completed, b.traffic.completed);
  EXPECT_EQ(a.traffic.timed_out, b.traffic.timed_out);
  EXPECT_EQ(a.traffic.gave_up, b.traffic.gave_up);
  EXPECT_EQ(a.traffic.retries, b.traffic.retries);
  EXPECT_EQ(a.traffic.rejected_responses, b.traffic.rejected_responses);
  EXPECT_EQ(a.traffic.enqueued, b.traffic.enqueued);
  EXPECT_EQ(a.traffic.served, b.traffic.served);
  EXPECT_EQ(a.traffic.shed, b.traffic.shed);
  EXPECT_EQ(a.traffic.backpressured, b.traffic.backpressured);
  EXPECT_EQ(a.traffic.degraded, b.traffic.degraded);
  EXPECT_EQ(a.traffic.dropped_on_reboot, b.traffic.dropped_on_reboot);
  EXPECT_EQ(a.traffic.max_queue_depth, b.traffic.max_queue_depth);
  EXPECT_EQ(a.traffic.goodput, b.traffic.goodput);
  expect_histograms_identical(a.traffic.latency, b.traffic.latency);
  EXPECT_EQ(a.population.offered, b.population.offered);
  EXPECT_EQ(a.population.completed, b.population.completed);
  EXPECT_EQ(a.population.timed_out, b.population.timed_out);
  EXPECT_EQ(a.population.gave_up, b.population.gave_up);
  EXPECT_EQ(a.population.retries, b.population.retries);
  EXPECT_EQ(a.population.rejected_responses,
            b.population.rejected_responses);
  EXPECT_EQ(a.population.skipped_busy, b.population.skipped_busy);
  expect_histograms_identical(a.population.latency, b.population.latency);
}

/// A cell whose every leaf holds a distinct non-zero value (set by hand, so
/// the test stays independent of the field tables).
CellStats every_field_cell() {
  CellStats c;
  c.system = model::SystemKind::S0;
  c.plan_name = "every-field";
  c.trials = 11;
  c.rounds = 12;
  c.compromised = 13;
  c.censored = 14;
  c.lifetime = RunningStats::from_raw(15, 16.25, 17.5, 1.125, 31.0);
  c.lifetime_ci = {18.5, 19.75, 0.9};
  c.attacker.direct_probes = 21;
  c.attacker.indirect_probes = 22;
  c.attacker.crashes_caused = 23;
  c.attacker.compromises = 24;
  c.attacker.keys_learned = 25;
  c.events_executed = 26;
  c.blacklisted_sources = 27;
  TrafficStats& t = c.traffic;
  t.offered = 31;
  t.completed = 32;
  t.timed_out = 33;
  t.gave_up = 34;
  t.retries = 35;
  t.rejected_responses = 36;
  t.enqueued = 37;
  t.served = 38;
  t.shed = 39;
  t.backpressured = 40;
  t.degraded = 41;
  t.dropped_on_reboot = 42;
  t.max_queue_depth = 43;
  t.goodput = 44.125;
  t.latency.add_bin(3, 45);
  t.latency.add_bin(40, 46);
  core::PopulationStats& p = c.population;
  p.offered = 51;
  p.completed = 52;
  p.timed_out = 53;
  p.gave_up = 54;
  p.retries = 55;
  p.rejected_responses = 56;
  p.skipped_busy = 57;
  p.latency.add_bin(5, 58);
  p.latency.add_bin(63, 59);
  return c;
}

/// A one-shard sidecar carrying only every_field_cell().
ShardResult every_field_sidecar() {
  ShardResult r;
  r.n_cells = 1;
  r.spec_digest = 0x0123456789abcdefULL;
  r.cell_indices = {0};
  r.cells = {every_field_cell()};
  return r;
}

/// Replace the first occurrence of `from` in `text` (which must hold it).
std::string mutate(std::string text, const std::string& from,
                   const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "bad table row: " << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

struct BadInput {
  const char* label;
  std::string text;
  const char* expect_substring;
};

/// Every row must be rejected with json::ParseError carrying the expected
/// substring — for these codecs, the full field path.
template <class Decode>
void expect_rejected(const std::vector<BadInput>& table, Decode decode) {
  for (const BadInput& row : table) {
    SCOPED_TRACE(row.label);
    try {
      decode(row.text);
      ADD_FAILURE() << "accepted malformed input";
    } catch (const json::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(row.expect_substring),
                std::string::npos)
          << "error was: " << e.what();
    }
  }
}

TEST(ShardTest, TwoShardMergeBitIdenticalToFullRun) {
  // The scale-out contract end to end, in process: partition the grid two
  // ways, run each shard independently, merge — every field of every cell
  // must be BIT-identical to the unpartitioned run, and the serialized
  // reports byte-identical.
  const CampaignSpec spec = smoke_spec();
  const std::vector<CampaignCell> cells = spec.cells();
  const CampaignResult full = run_campaign(cells, spec.config);

  const ShardResult s0 = run_campaign_shard(cells, spec.config, 0, 2);
  const ShardResult s1 = run_campaign_shard(cells, spec.config, 1, 2);
  EXPECT_EQ(s0.cells.size() + s1.cells.size(), cells.size());
  const CampaignResult merged = merge_shards({s0, s1});

  ASSERT_EQ(merged.cells.size(), full.cells.size());
  EXPECT_EQ(merged.total_trials, full.total_trials);
  EXPECT_EQ(merged.total_events, full.total_events);
  for (std::size_t i = 0; i < full.cells.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "cell " << i);
    expect_cells_bit_identical(merged.cells[i], full.cells[i]);
  }
  EXPECT_EQ(campaign_result_to_json(merged), campaign_result_to_json(full));

  // More shards than cells: the surplus shard is empty, the merge intact.
  std::vector<ShardResult> many;
  for (std::uint32_t s = 0; s < 5; ++s) {
    many.push_back(run_campaign_shard(cells, spec.config, s, 5));
  }
  const CampaignResult wide = merge_shards(many);
  EXPECT_EQ(campaign_result_to_json(wide), campaign_result_to_json(full));
}

TEST(ShardTest, SidecarJsonRoundTripsBitExactly) {
  const CampaignSpec spec = smoke_spec();
  const std::uint64_t digest = campaign_spec_digest(spec);
  const ShardResult r =
      run_campaign_shard(spec.cells(), spec.config, 0, 2, digest);
  const std::string text = shard_result_to_json(r);
  const ShardResult back = shard_result_from_json(text);
  EXPECT_EQ(back.shard, r.shard);
  EXPECT_EQ(back.n_shards, r.n_shards);
  EXPECT_EQ(back.n_cells, r.n_cells);
  EXPECT_EQ(back.spec_digest, digest);
  ASSERT_EQ(back.cells.size(), r.cells.size());
  EXPECT_EQ(back.cell_indices, r.cell_indices);
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "cell " << i);
    expect_cells_bit_identical(back.cells[i], r.cells[i]);
  }
  // Re-encoding the decoded sidecar reproduces the bytes: the codec is
  // canonical, so sidecars are diffable fixtures.
  EXPECT_EQ(shard_result_to_json(back), text);
}

/// The message merge_shards rejects `shards` with, or "" when it merges them.
std::string merge_error(const std::vector<ShardResult>& shards) {
  try {
    merge_shards(shards);
  } catch (const json::ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(ShardTest, MergeRejectsBrokenPartitions) {
  // Sidecars are files from outside the program: each way a set of them can
  // fail to partition the grid is rejected with its whole message. Shard 0
  // of 2 holds cells {0, 2}, shard 1 holds {1, 3}.
  const CampaignSpec spec = smoke_spec();
  const std::vector<CampaignCell> cells = spec.cells();
  ShardResult s0 = run_campaign_shard(cells, spec.config, 0, 2, 7);
  ShardResult s1 = run_campaign_shard(cells, spec.config, 1, 2, 7);
  ASSERT_EQ(cells.size(), 4u);

  EXPECT_EQ(merge_error({}), "merge: no shard results");
  // Missing a shard: cells uncovered.
  EXPECT_EQ(merge_error({s0}), "merge: cell 1 is covered by no shard");
  // The same shard twice: duplicate coverage.
  EXPECT_EQ(merge_error({s0, s0}),
            "merge: cell 0 appears in more than one shard");
  // Sidecars from different specs must not merge.
  ShardResult other = s1;
  other.spec_digest = 8;
  EXPECT_EQ(merge_error({s0, other}),
            "merge: shard 1 was computed from a different spec (digest "
            "0x0000000000000008 vs 0x0000000000000007)");
  // Disagreeing grid sizes must not merge.
  ShardResult wrong = s1;
  wrong.n_cells += 1;
  EXPECT_EQ(merge_error({s0, wrong}),
            "merge: shard 1 reports n_cells 5, shard 0 reports 4");
  // Nor disagreeing shard counts.
  ShardResult resplit = s1;
  resplit.n_shards = 3;
  EXPECT_EQ(merge_error({s0, resplit}),
            "merge: shard 1 reports n_shards 3, expected 2");
  // Every cell record needs exactly one index.
  ShardResult truncated = s1;
  truncated.cells.pop_back();
  EXPECT_EQ(merge_error({s0, truncated}),
            "merge: shard 1 has 2 indices but 1 cell records");
  // An index must name a cell of the grid.
  ShardResult stray = s1;
  stray.cell_indices.back() = 4;
  EXPECT_EQ(merge_error({s0, stray}),
            "merge: shard 1 reports cell index 4 outside the grid of 4");
  // An unpinned digest (0) is compatible with a pinned one.
  ShardResult unpinned = s1;
  unpinned.spec_digest = 0;
  EXPECT_EQ(merge_shards({s0, unpinned}).cells.size(), cells.size());
}

TEST(ShardSpecTest, SpecRoundTripsThroughJson) {
  CampaignSpec spec = smoke_spec();
  StoppingRule comp;
  comp.metric = StoppingRule::Metric::CompromiseProbability;
  comp.target_rel = 0.25;
  comp.abs_floor = 0.05;
  StoppingRule lat;
  lat.metric = StoppingRule::Metric::LatencyQuantile;
  lat.quantile = 0.999;
  lat.abs_floor = 0.25;
  spec.config.adaptive.rules = {comp, lat};
  spec.config.scheduler = sim::SchedulerKind::Heap;
  spec.config.reuse_trial_stacks = false;

  const std::string text = campaign_spec_to_json(spec);
  const CampaignSpec back = campaign_spec_from_json(text);
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.config.base_seed, spec.config.base_seed);
  EXPECT_EQ(back.config.threads, spec.config.threads);
  EXPECT_EQ(back.config.ci_level, spec.config.ci_level);
  EXPECT_EQ(back.config.scheduler, spec.config.scheduler);
  EXPECT_EQ(back.config.reuse_trial_stacks, spec.config.reuse_trial_stacks);
  EXPECT_EQ(back.config.adaptive.enabled, spec.config.adaptive.enabled);
  EXPECT_EQ(back.config.adaptive.round_trials,
            spec.config.adaptive.round_trials);
  ASSERT_EQ(back.config.adaptive.rules.size(), 2u);
  EXPECT_EQ(back.config.adaptive.rules[0].metric,
            StoppingRule::Metric::CompromiseProbability);
  EXPECT_EQ(back.config.adaptive.rules[0].abs_floor, 0.05);
  EXPECT_EQ(back.config.adaptive.rules[1].metric,
            StoppingRule::Metric::LatencyQuantile);
  EXPECT_EQ(back.config.adaptive.rules[1].quantile, 0.999);
  ASSERT_EQ(back.systems.size(), 2u);
  ASSERT_EQ(back.plans.size(), 2u);
  EXPECT_EQ(back.plans[1].name, "quarter-kappa");
  EXPECT_EQ(back.plans[1].keyspace, 128u);
  // Canonical: re-encode is byte-identical, and the digest is stable.
  EXPECT_EQ(campaign_spec_to_json(back), text);
  EXPECT_EQ(campaign_spec_digest(back), campaign_spec_digest(spec));
}

TEST(ShardSpecTest, StrictDecodeRejectsMalformedSpecs) {
  const std::string good = campaign_spec_to_json(smoke_spec());

  // Unknown top-level key.
  {
    std::string bad = good;
    bad.replace(bad.find("\"name\""), 6, "\"nmae\"");
    EXPECT_THROW(campaign_spec_from_json(bad), json::ParseError);
  }
  // Wrong schema tag.
  {
    std::string bad = good;
    bad.replace(bad.find("fortress-campaign-v1"), 20, "fortress-campaign-v9");
    EXPECT_THROW(campaign_spec_from_json(bad), json::ParseError);
  }
  // Unknown stopping-rule metric.
  {
    CampaignSpec spec = smoke_spec();
    StoppingRule r;
    r.abs_floor = 0.5;
    spec.config.adaptive.rules = {r};
    std::string bad = campaign_spec_to_json(spec);
    bad.replace(bad.find("mean_lifetime"), 13, "median_uptime");
    EXPECT_THROW(campaign_spec_from_json(bad), json::ParseError);
  }
  // Truncated document.
  EXPECT_THROW(campaign_spec_from_json(good.substr(0, good.size() / 2)),
               json::ParseError);
}

TEST(ShardSidecarTest, StrictDecodeRejectsTamperedSidecars) {
  const CampaignSpec spec = smoke_spec();
  const std::string text =
      shard_result_to_json(run_campaign_shard(spec.cells(), spec.config, 0,
                                              2, 7));
  // Unknown cell key.
  {
    std::string bad = text;
    bad.replace(bad.find("\"rounds\""), 8, "\"around\"");
    EXPECT_THROW(shard_result_from_json(bad), json::ParseError);
  }
  // A truncated bit pattern is not a pinned double.
  {
    std::string bad = text;
    const std::size_t at = bad.find("0x");
    bad.replace(at, 4, "0x");
    EXPECT_THROW(shard_result_from_json(bad), json::ParseError);
  }
  // Histogram must carry exactly kBins counts.
  {
    std::string bad = text;
    const std::size_t at = bad.find("\"latency_bins\": [");
    ASSERT_NE(at, std::string::npos);
    bad.insert(bad.find('[', at) + 1, "\n          0,");
    EXPECT_THROW(shard_result_from_json(bad), json::ParseError);
  }
}

TEST(ShardSidecarTest, EveryCellFieldRoundTripsAndMerges) {
  const ShardResult r = every_field_sidecar();
  const std::string text = shard_result_to_json(r);
  const ShardResult back = shard_result_from_json(text);
  EXPECT_EQ(back.spec_digest, r.spec_digest);
  ASSERT_EQ(back.cells.size(), 1u);
  expect_cells_bit_identical(back.cells[0], r.cells[0]);
  EXPECT_EQ(shard_result_to_json(back), text);

  const CampaignResult merged = merge_shards({back});
  ASSERT_EQ(merged.cells.size(), 1u);
  expect_cells_bit_identical(merged.cells[0], r.cells[0]);
  EXPECT_EQ(merged.total_trials, 11u);
  EXPECT_EQ(merged.total_events, 26u);
  CampaignResult direct;
  direct.cells = r.cells;
  direct.total_trials = 11;
  direct.total_events = 26;
  EXPECT_EQ(campaign_result_to_json(merged), campaign_result_to_json(direct));
}

TEST(ShardSidecarTest, MalformedSidecarsAreRejectedWithFieldPaths) {
  const std::string good = shard_result_to_json(every_field_sidecar());
  // Drop the first traffic bin / add one: 63 and 65 bins.
  const std::size_t bins = good.find('[', good.find("\"latency_bins\""));
  std::string short_bins = good;
  short_bins.erase(bins + 1, good.find(',', bins) - bins);
  std::string long_bins = good;
  long_bins.insert(bins + 1, "0,");
  expect_rejected(
      {
          {"unknown-nested-key",
           mutate(good, "\"shed\": 39", "\"shed\": 39, \"sheds\": 1"),
           "shard result.cells[0].traffic: unknown key \"sheds\""},
          {"missing-nested-key",
           mutate(good, "\"skipped_busy\"", "\"skipped_idle\""),
           "shard result.cells[0].population: missing required key "
           "\"skipped_busy\""},
          {"string-for-number",
           mutate(good, "\"n_cells\": 1", "\"n_cells\": \"1\""),
           "shard result.n_cells: expected number, got string"},
          {"string-for-nested-number",
           mutate(good, "\"keys_learned\": 25", "\"keys_learned\": \"25\""),
           "shard result.cells[0].attacker.keys_learned: expected number, "
           "got string"},
          {"shard-past-32-bits",
           mutate(mutate(good, "\"shard\": 0", "\"shard\": 4294967296"),
                  "\"n_shards\": 1", "\"n_shards\": 4294967297"),
           "shard result.shard: value 4294967296 does not fit in 32 bits"},
          {"n_shards-past-32-bits",
           mutate(good, "\"n_shards\": 1", "\"n_shards\": 4294967297"),
           "shard result.n_shards: value 4294967297 does not fit in 32 bits"},
          {"short-hex-bits",
           mutate(good, "\"mean_bits\": \"0x",
                  "\"mean_bits\": \"0x1\", \"x\": \""),
           "shard result.cells[0].lifetime.mean_bits: expected \"0x\" + 16 "
           "hex digits, got \"0x1\""},
          {"non-hex-bits",
           mutate(good, "\"mean_bits\": \"0x",
                  "\"mean_bits\": \"0x000000000000000g\", \"x\": \""),
           "shard result.cells[0].lifetime.mean_bits: invalid hex literal "
           "\"0x000000000000000g\""},
          {"63-latency-bins", short_bins,
           "shard result.cells[0].traffic.latency_bins: expected 64 bins, "
           "got 63"},
          {"65-latency-bins", long_bins,
           "shard result.cells[0].traffic.latency_bins: expected 64 bins, "
           "got 65"},
          {"unknown-system",
           mutate(good, "\"system\": \"S0\"", "\"system\": \"S3\""),
           "shard result.cells[0].system: unknown system \"S3\" (want "
           "S0|S1|S2)"},
          {"wrong-schema",
           mutate(good, "fortress-campaign-shard-v1",
                  "fortress-campaign-shard-v2"),
           "shard result.schema: expected \"fortress-campaign-shard-v1\""},
      },
      [](const std::string& text) { shard_result_from_json(text); });
}

TEST(ShardSpecTest, MalformedSpecsAreRejectedWithFieldPaths) {
  CampaignSpec spec = smoke_spec();
  StoppingRule rule;
  rule.abs_floor = 0.5;
  spec.config.adaptive.rules = {rule};
  const std::string good = campaign_spec_to_json(spec);
  expect_rejected(
      {
          {"unknown-nested-key",
           mutate(good, "\"abs_floor\": 0.5\n",
                  "\"abs_floor\": 0.5, \"abs_ceiling\": 1\n"),
           "campaign spec.adaptive.rules[0]: unknown key \"abs_ceiling\""},
          {"missing-nested-key",
           mutate(good, "\"round_trials\"", "\"round_trialz\""),
           "campaign spec.adaptive: missing required key \"round_trials\""},
          {"missing-plan-key",
           mutate(good, "\"horizon_steps\"", "\"horizon\""),
           "campaign spec.plans[0]: missing required key \"horizon_steps\""},
          {"string-for-number",
           mutate(good, "\"base_seed\": 404", "\"base_seed\": \"404\""),
           "campaign spec.base_seed: expected number, got string"},
          {"threads-past-32-bits",
           mutate(good, "\"threads\": 2", "\"threads\": 4294967296"),
           "campaign spec.threads: value 4294967296 does not fit in 32 bits"},
          {"unknown-metric",
           mutate(good, "\"mean_lifetime\"", "\"median_uptime\""),
           "campaign spec.adaptive.rules[0].metric: unknown metric "
           "\"median_uptime\" (want "
           "mean_lifetime|compromise_probability|latency_quantile)"},
          {"unknown-scheduler",
           mutate(good, "\"scheduler\": \"wheel\"", "\"scheduler\": \"fifo\""),
           "campaign spec.scheduler: unknown scheduler \"fifo\" (want "
           "wheel|heap)"},
          {"unknown-system",
           mutate(good, "\"S2\"", "\"S3\""),
           "campaign spec.systems[1]: unknown system \"S3\" (want S0|S1|S2)"},
          {"unknown-plan-enum",
           mutate(good, "\"policy\": \"drop_tail\"", "\"policy\": \"reject\""),
           "campaign spec.plans[0].service.policy: unknown overload policy"},
      },
      [](const std::string& text) { campaign_spec_from_json(text); });
}

// The malformed-input rows above reject 2^32 for each u32 field (a bare
// cast once read shard 2^32 of 2^32 + 1 as shard 0 of 1, and threads 2^32
// as 0, "all hardware threads"); the largest 32-bit value still decodes.
TEST(ShardSpecTest, U32FieldsDecodeUpToTheirLimit) {
  const CampaignSpec spec = campaign_spec_from_json(
      mutate(campaign_spec_to_json(smoke_spec()), "\"threads\": 2",
             "\"threads\": 4294967295"));
  EXPECT_EQ(spec.config.threads, 4294967295u);
}

}  // namespace
}  // namespace fortress::scenario
