// Committed-fixture regression suite. Every committed campaign spec
// (specs/*.json, and one spec per scenario under scenarios/*.json) has a
// pinned report at <dir>/reports/<stem>.json: the bytes `campaign_driver
// run --spec F --shards 1` writes. This suite checks the specs' canonical
// form and replays each one under execution modes the pin was not captured
// with; the three dense-plane golden specs are also replayed on one thread
// with pooled and with fresh stacks, the modes their cells were first pinned
// under. The `fortress_tests_shard` ctest lane (tools/pin_check.py) checks
// the same pins through the multi-process driver, with pooled stacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/fields.hpp"
#include "same_result.hpp"
#include "scenario/campaign.hpp"
#include "scenario/differential.hpp"
#include "scenario/shard.hpp"

#ifndef FORTRESS_SCENARIO_DIR
#error "build defines FORTRESS_SCENARIO_DIR (see CMakeLists.txt)"
#endif

namespace fortress::scenario {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

const fs::path kScenarioDir = FORTRESS_SCENARIO_DIR;
const fs::path kSpecDir = kScenarioDir.parent_path() / "specs";

/// The *.json files directly under `dir` (not its reports/), sorted.
std::vector<fs::path> json_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".json") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<fs::path> committed_specs() {
  std::vector<fs::path> files = json_files(kSpecDir);
  const std::vector<fs::path> scenarios = json_files(kScenarioDir);
  files.insert(files.end(), scenarios.begin(), scenarios.end());
  return files;
}

fs::path pin_of(const fs::path& spec) {
  return spec.parent_path() / "reports" / spec.filename();
}

// The scenarios are a committed fixture set: losing a member silently would
// disarm the regression gate, so the roster itself is pinned.
TEST(ScenarioCorpusTest, RosterIsComplete) {
  std::set<std::string> names;
  for (const auto& path : json_files(kScenarioDir)) {
    names.insert(campaign_spec_from_json(slurp(path)).name);
  }
  for (const char* required :
       {"partition_quorum_loss", "partition_proxy_islands", "outage_waves",
        "heavy_tail_latency", "diurnal_churn"}) {
    EXPECT_TRUE(names.count(required)) << "missing scenario " << required;
  }
}

// Every committed spec is a canonical fixed point and is named after its
// file; a scenario holds exactly one plan, also named after the file.
TEST(ShardSpecTest, CommittedSpecsAreCanonicalFixedPoints) {
  std::size_t checked = 0;
  for (const fs::path& path : committed_specs()) {
    SCOPED_TRACE(path.string());
    const std::string text = slurp(path);
    const CampaignSpec spec = campaign_spec_from_json(text);
    EXPECT_EQ(campaign_spec_to_json(spec), text);
    EXPECT_EQ(spec.name, path.stem().string());
    if (path.parent_path() == kScenarioDir) {
      ASSERT_EQ(spec.plans.size(), 1u);
      EXPECT_EQ(spec.plans.front().name, path.stem().string());
    }
    ++checked;
  }
  EXPECT_GE(checked, 9u) << "specs missing under " << kSpecDir << " or "
                         << kScenarioDir;
}

/// The cells of a pinned report, read back through CellStats' table.
std::vector<CellStats> pinned_cells(const std::string& pin) {
  const json::Value doc = json::parse(pin);
  const json::Path root("report");
  const json::Path cells_path(root, "cells");
  std::vector<CellStats> cells;
  for (const json::Value& row :
       json::ObjectReader(doc, root).required("cells").as_array(cells_path)) {
    json::ObjectReader r(row, cells_path);
    std::uint64_t index = 0;
    fields::read_field(r, "index", index, fields::kU64, fields::Doubles::Bits);
    fields::read_members(r, cells.emplace_back(), fields::Doubles::Bits);
    r.done();
  }
  return cells;
}

/// Shape checks on a pin, independent of its bits, so that a re-capture
/// cannot silently pin a cell that stopped exercising its plane. Returns
/// how many golden-d/golden-e cells (specs/golden_de.json) it saw.
int expect_planes_exercised(const std::vector<CampaignCell>& cells,
                            const std::string& pin) {
  const std::vector<CellStats> pinned = pinned_cells(pin);
  EXPECT_EQ(pinned.size(), cells.size());
  int plane_cells = 0;
  for (std::size_t i = 0; i < std::min(cells.size(), pinned.size()); ++i) {
    const net::ScenarioPlan& plan = cells[i].plan;
    const CellStats& c = pinned[i];
    SCOPED_TRACE(plan.name);
    // A plane a plan does not opt into must stay inert.
    if (!plan.traffic.enabled()) EXPECT_EQ(c.traffic.offered, 0u);
    if (!plan.population.enabled()) EXPECT_EQ(c.population.offered, 0u);
    if (plan.name == "golden-d") {
      // Traffic flowed and crossed the degrade watermark.
      EXPECT_GT(c.traffic.offered, 0u);
      EXPECT_GT(c.traffic.completed, 0u);
      EXPECT_GT(c.traffic.degraded, 0u);
      ++plane_cells;
    }
    if (plan.name == "golden-e") {
      // The population generated load, completed some, and drops forced
      // retries; none of its responses failed verification.
      EXPECT_GT(c.population.offered, 1000u);
      EXPECT_GT(c.population.completed, 0u);
      EXPECT_GT(c.population.retries, 0u);
      EXPECT_EQ(c.population.rejected_responses, 0u);
      ++plane_cells;
    }
  }
  return plane_cells;
}

// A pin must hold under the campaign determinism contract, not only under
// the spec's own config: re-run every committed spec on 4 threads with
// fresh stacks, once under each scheduler, and demand the pinned report
// byte for byte. The spec names its scheduler; the modes override it.
TEST(CommittedSpecTest, PinnedReportsHoldUnderEveryExecutionMode) {
  int plane_cells = 0;
  for (const fs::path& path : committed_specs()) {
    SCOPED_TRACE(path.string());
    const CampaignSpec spec = campaign_spec_from_json(slurp(path));
    const std::vector<CampaignCell> cells = spec.cells();
    const std::string pin = slurp(pin_of(path));
    expect_no_divergences(report_divergences(
        cells, spec.config,
        {{4, /*pooled=*/false, sim::SchedulerKind::Wheel},
         {4, /*pooled=*/false, sim::SchedulerKind::Heap}},
        pin));
    plane_cells += expect_planes_exercised(cells, pin);
  }
  EXPECT_EQ(plane_cells, 2) << "golden-d and golden-e";
}

/// Replays the three dense-plane golden specs (specs/golden_*.json) the way
/// their cells were first pinned: one thread, trial stacks pooled per worker
/// or built fresh per trial. Both must give the pinned report byte for byte.
void expect_golden_specs_hold(bool pooled) {
  int plane_cells = 0;
  for (const char* stem : {"golden_ab", "golden_c", "golden_de"}) {
    const fs::path path = kSpecDir / (std::string(stem) + ".json");
    SCOPED_TRACE(path.string());
    const CampaignSpec spec = campaign_spec_from_json(slurp(path));
    const std::vector<CampaignCell> cells = spec.cells();
    const std::string pin = slurp(pin_of(path));
    expect_no_divergences(report_divergences(
        cells, spec.config, {{1, pooled, spec.config.scheduler}}, pin));
    plane_cells += expect_planes_exercised(cells, pin);
  }
  EXPECT_EQ(plane_cells, 2) << "golden-d and golden-e";
}

TEST(DensePlaneGoldenTest, PooledArenaAggregatesMatchStringPlaneGolden) {
  expect_golden_specs_hold(/*pooled=*/true);
}

TEST(DensePlaneGoldenTest, FreshStackAggregatesMatchStringPlaneGolden) {
  expect_golden_specs_hold(/*pooled=*/false);
}

}  // namespace
}  // namespace fortress::scenario
