// shard.hpp — the campaign scale-out plane: specs, shards, and the merge.
//
// A campaign grid (systems x plans) can outgrow one process long before it
// outgrows one machine's cores: trial stacks are arena-pooled per worker
// slot, so N processes give N independent arena pools, N independent
// allocators, and no shared-pool contention. This header defines the three
// pieces the scale-out needs:
//
//  * CampaignSpec — a campaign AS A FILE: the full CampaignConfig (adaptive
//    rules included), the system classes, and the scenario plans, in one
//    canonical strict-JSON document ("fortress-campaign-v1"). The spec is
//    the unit of distribution: every shard process loads the same bytes.
//  * ShardResult — the sidecar one shard process writes: the global cell
//    indices it owned and their full CellStats, every double pinned BY BIT
//    PATTERN ("0x" + 16 hex), histograms as raw bin counts, RunningStats as
//    raw accumulator state. The sidecar codec is
//    exact by construction: shard_result_from_json(shard_result_to_json(r))
//    rebuilds bit-identical stats, so merging deserialized sidecars equals
//    merging in-memory results.
//  * merge_shards — reassembles the full grid from sidecars, verifying
//    exactly-once cell coverage and spec-digest agreement, in GLOBAL cell
//    order — so the merged result is bit-identical to the one-process
//    run_campaign over the same spec.
//
// All three codecs are the generic fields:: visitors over field tables:
// CampaignSpec's and CampaignConfig's below and in campaign.hpp, and
// CellStats' (with TrafficStats', PopulationStats' and AttackerStats'
// beside their structs). A counter added to one of those tables is merged,
// carried by sidecars, reported and fingerprinted with no codec edit; a
// u32 field past 32 bits is rejected on read, never truncated.
//
// Why the merge can be bit-identical at all: trial seeds derive from the
// GLOBAL cell index (run_campaign_subset), and adaptive stopping decisions
// are per-cell — a cell's close/continue history depends only on its own
// trials. Partitioning cells across processes therefore does not change any
// cell's executed (cell, trial) seed set.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "model/params.hpp"
#include "net/scenario.hpp"
#include "scenario/campaign.hpp"

namespace fortress::scenario {

/// A campaign as a distributable document: config + grid. Cells are the
/// cross product (systems x plans), systems-major — the same order
/// cross() produces and the global cell indexing every shard agrees on.
struct CampaignSpec {
  std::string name;
  std::string description;
  CampaignConfig config;
  std::vector<model::SystemKind> systems;
  std::vector<net::ScenarioPlan> plans;

  std::vector<CampaignCell> cells() const {
    return cross(systems, plans);
  }
};

/// The spec document's member list; the config's own table is spliced in
/// flat, between the description and the grid.
template <fields::FieldsOf<CampaignSpec> S, class V>
constexpr void visit_fields(S& s, V&& v) {
  v("name", s.name, fields::kString);
  v("description", s.description, fields::kString);
  v("config", s.config, fields::kInline);
  v("systems", s.systems, model::kSystemKindNames);
  v("plans", s.plans, fields::kNested);
}
static_assert(fields::complete<CampaignSpec>());

/// Canonical encode ("fortress-campaign-v1", the committed-file form).
/// Plans are spliced in their plan_codec pretty encoding, so a spec file's
/// plan subtrees obey exactly the plan fixture contract.
std::string campaign_spec_to_json(const CampaignSpec& spec);

/// Strict decode: unknown keys, type confusion, duplicate keys, a bad
/// schema tag and malformed plans all throw json::ParseError (plans
/// additionally pass ScenarioPlan::validate()). Every config field is
/// required — a spec file reads complete, like a plan file.
CampaignSpec campaign_spec_from_json(std::string_view text);

/// FNV-1a 64 over the canonical encoding — the agreement token shard
/// sidecars carry so a merge of sidecars from different specs fails loudly.
std::uint64_t campaign_spec_digest(const CampaignSpec& spec);

/// What one shard process computed: its slice of the grid, as (global cell
/// index, CellStats) pairs in ascending index order.
struct ShardResult {
  std::uint32_t shard = 0;     ///< this shard's id in [0, n_shards)
  std::uint32_t n_shards = 1;  ///< total shards in the partition
  std::uint64_t n_cells = 0;   ///< FULL grid size (all shards agree)
  std::uint64_t spec_digest = 0;  ///< campaign_spec_digest (0 = unpinned)
  std::vector<std::uint64_t> cell_indices;  ///< global indices, ascending
  std::vector<CellStats> cells;             ///< parallel to cell_indices
};

/// Run shard `shard` of an `n_shards`-way partition of `cells` (the FULL
/// grid, in global order): cells are assigned round-robin (index % n_shards
/// == shard, which interleaves systems-major neighbours — adjacent cells
/// tend to cost alike, so round-robin is also the static load balancer).
/// Seeds derive from global indices via run_campaign_subset, so each cell's
/// stats are bit-identical to the single-process run's. Preconditions:
/// n_shards >= 1, shard < n_shards.
ShardResult run_campaign_shard(const std::vector<CampaignCell>& cells,
                               const CampaignConfig& config,
                               std::uint32_t shard, std::uint32_t n_shards,
                               std::uint64_t spec_digest = 0);

/// Reassemble the full grid from shard sidecars. Verifies: non-empty input,
/// all shards agree on n_cells / n_shards / spec digest (nonzero digests
/// must match), and the union of cell indices covers [0, n_cells) exactly
/// once. Returns the cells in GLOBAL order with summed totals, bit-identical
/// to run_campaign on the full grid.
/// Throws json::ParseError on any violation (the merge is a codec-layer
/// integrity check, not a numeric one).
CampaignResult merge_shards(const std::vector<ShardResult>& shards);

/// Sidecar codec ("fortress-campaign-shard-v1"): every double by bit
/// pattern, histograms as 64 raw bin counts, RunningStats as raw Welford
/// state. from(to(r)) rebuilds r bit-for-bit (tested); decode is strict.
std::string shard_result_to_json(const ShardResult& result);
ShardResult shard_result_from_json(std::string_view text);

/// Report codec ("fortress-campaign-result-v1") for a merged (or directly
/// computed) CampaignResult: same exact cell encoding as the sidecar, cells
/// in input order with their global index. Byte-comparing two of these is
/// the shard lane's bit-identity oracle.
std::string campaign_result_to_json(const CampaignResult& result);

}  // namespace fortress::scenario
