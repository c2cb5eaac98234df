#include "scenario/shard.hpp"

#include "common/check.hpp"
#include "common/fields.hpp"
#include "common/json.hpp"

namespace fortress::scenario {

namespace {

using fields::Doubles;
using json::ParseError;

constexpr const char* kSpecSchema = "fortress-campaign-v1";
constexpr const char* kShardSchema = "fortress-campaign-shard-v1";
constexpr const char* kResultSchema = "fortress-campaign-result-v1";

// Cells cross the sidecar and the report with every double as a bit
// pattern, never as decimal text: the merge's bit-identity contract has no
// room for a parse round-trip to be "close". (Shortest round-trip formatting
// would in fact round-trip too, but bits make the intent unmissable and
// survive any future formatter.)

/// One row of a sidecar or report: the cell's global index, then its
/// CellStats members.
void write_cell(json::Writer& w, std::uint64_t index, const CellStats& c) {
  w.begin_object();
  fields::write_field(w, "index", index, fields::kU64, Doubles::Bits);
  fields::write_members(w, c, Doubles::Bits);
  w.end_object();
}

}  // namespace

// --- CampaignSpec codec ---------------------------------------------------

std::string campaign_spec_to_json(const CampaignSpec& spec) {
  return fields::to_document(spec, kSpecSchema, Doubles::Decimal);
}

CampaignSpec campaign_spec_from_json(std::string_view text) {
  CampaignSpec spec = fields::from_document<CampaignSpec>(
      text, "campaign spec", kSpecSchema, Doubles::Decimal);
  if (spec.systems.empty()) {
    throw ParseError(
        "campaign spec.systems: must list at least one system class");
  }
  if (spec.plans.empty()) {
    throw ParseError("campaign spec.plans: must list at least one plan");
  }
  for (const net::ScenarioPlan& plan : spec.plans) plan.validate();
  return spec;
}

std::uint64_t campaign_spec_digest(const CampaignSpec& spec) {
  return json::fnv1a64(campaign_spec_to_json(spec));
}

// --- Shard execution and merge --------------------------------------------

ShardResult run_campaign_shard(const std::vector<CampaignCell>& cells,
                               const CampaignConfig& config,
                               std::uint32_t shard, std::uint32_t n_shards,
                               std::uint64_t spec_digest) {
  FORTRESS_EXPECTS(n_shards >= 1);
  FORTRESS_EXPECTS(shard < n_shards);
  ShardResult result;
  result.shard = shard;
  result.n_shards = n_shards;
  result.n_cells = cells.size();
  result.spec_digest = spec_digest;
  std::vector<CampaignCell> mine;
  for (std::size_t c = shard; c < cells.size(); c += n_shards) {
    mine.push_back(cells[c]);
    result.cell_indices.push_back(c);
  }
  if (mine.empty()) return result;  // more shards than cells: empty slice
  CampaignResult r = run_campaign_subset(mine, config, result.cell_indices);
  result.cells = std::move(r.cells);
  return result;
}

CampaignResult merge_shards(const std::vector<ShardResult>& shards) {
  if (shards.empty()) throw ParseError("merge: no shard results");
  const std::uint64_t n_cells = shards[0].n_cells;
  const std::uint32_t n_shards = shards[0].n_shards;
  std::uint64_t digest = 0;
  for (const ShardResult& s : shards) {
    if (s.n_cells != n_cells) {
      throw ParseError("merge: shard " + std::to_string(s.shard) +
                       " reports n_cells " + std::to_string(s.n_cells) +
                       ", shard " + std::to_string(shards[0].shard) +
                       " reports " + std::to_string(n_cells));
    }
    if (s.n_shards != n_shards) {
      throw ParseError("merge: shard " + std::to_string(s.shard) +
                       " reports n_shards " + std::to_string(s.n_shards) +
                       ", expected " + std::to_string(n_shards));
    }
    if (s.spec_digest != 0) {
      if (digest != 0 && s.spec_digest != digest) {
        throw ParseError("merge: shard " + std::to_string(s.shard) +
                         " was computed from a different spec (digest " +
                         json::hex64(s.spec_digest) + " vs " +
                         json::hex64(digest) + ")");
      }
      digest = s.spec_digest;
    }
    if (s.cell_indices.size() != s.cells.size()) {
      throw ParseError("merge: shard " + std::to_string(s.shard) +
                       " has " + std::to_string(s.cell_indices.size()) +
                       " indices but " + std::to_string(s.cells.size()) +
                       " cell records");
    }
  }

  std::vector<const CellStats*> by_index(n_cells, nullptr);
  for (const ShardResult& s : shards) {
    for (std::size_t i = 0; i < s.cell_indices.size(); ++i) {
      const std::uint64_t idx = s.cell_indices[i];
      if (idx >= n_cells) {
        throw ParseError("merge: shard " + std::to_string(s.shard) +
                         " reports cell index " + std::to_string(idx) +
                         " outside the grid of " + std::to_string(n_cells));
      }
      if (by_index[idx] != nullptr) {
        throw ParseError("merge: cell " + std::to_string(idx) +
                         " appears in more than one shard");
      }
      by_index[idx] = &s.cells[i];
    }
  }
  for (std::uint64_t idx = 0; idx < n_cells; ++idx) {
    if (by_index[idx] == nullptr) {
      throw ParseError("merge: cell " + std::to_string(idx) +
                       " is covered by no shard");
    }
  }

  CampaignResult result;
  result.cells.reserve(n_cells);
  for (std::uint64_t idx = 0; idx < n_cells; ++idx) {
    result.cells.push_back(*by_index[idx]);
    result.total_trials += by_index[idx]->trials;
    result.total_events += by_index[idx]->events_executed;
  }
  return result;
}

// --- Sidecar and report codecs --------------------------------------------

std::string shard_result_to_json(const ShardResult& result) {
  FORTRESS_EXPECTS(result.cell_indices.size() == result.cells.size());
  json::Writer w(/*compact=*/false);
  w.begin_object();
  w.key("schema");
  w.value(std::string_view(kShardSchema));
  fields::write_field(w, "shard", result.shard, fields::kU32, Doubles::Bits);
  fields::write_field(w, "n_shards", result.n_shards, fields::kU32,
                      Doubles::Bits);
  fields::write_field(w, "n_cells", result.n_cells, fields::kU64,
                      Doubles::Bits);
  fields::write_field(w, "spec_digest", result.spec_digest, fields::kHex,
                      Doubles::Bits);
  w.key("cells");
  w.begin_array();
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    write_cell(w, result.cell_indices[i], result.cells[i]);
  }
  w.end_array();
  w.end_object();
  std::string out = w.str();
  out.push_back('\n');
  return out;
}

ShardResult shard_result_from_json(std::string_view text) {
  const json::Value root = json::parse(text);
  const json::Path path("shard result");
  json::ObjectReader r(root, path);
  fields::check_schema(r, kShardSchema);
  ShardResult s;
  fields::read_field(r, "shard", s.shard, fields::kU32, Doubles::Bits);
  fields::read_field(r, "n_shards", s.n_shards, fields::kU32, Doubles::Bits);
  fields::read_field(r, "n_cells", s.n_cells, fields::kU64, Doubles::Bits);
  fields::read_field(r, "spec_digest", s.spec_digest, fields::kHex,
                     Doubles::Bits);
  if (s.n_shards < 1 || s.shard >= s.n_shards) {
    json::fail_at(path, ": shard " + std::to_string(s.shard) +
                            " outside n_shards " + std::to_string(s.n_shards));
  }
  const json::Path cells_path(path, "cells");
  const auto& rows = r.required("cells").as_array(cells_path);
  r.done();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const json::Path row_path(cells_path, i);
    json::ObjectReader row(rows[i], row_path);
    std::uint64_t index = 0;
    fields::read_field(row, "index", index, fields::kU64, Doubles::Bits);
    CellStats& cell = s.cells.emplace_back();
    fields::read_members(row, cell, Doubles::Bits);
    row.done();
    if (i > 0 && index <= s.cell_indices.back()) {
      json::fail_at(row_path, ": cell indices must be strictly ascending");
    }
    s.cell_indices.push_back(index);
  }
  return s;
}

std::string campaign_result_to_json(const CampaignResult& result) {
  json::Writer w(/*compact=*/false);
  w.begin_object();
  w.key("schema");
  w.value(std::string_view(kResultSchema));
  fields::write_field(w, "total_trials", result.total_trials, fields::kU64,
                      Doubles::Bits);
  fields::write_field(w, "total_events", result.total_events, fields::kU64,
                      Doubles::Bits);
  w.key("cells");
  w.begin_array();
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    write_cell(w, i, result.cells[i]);
  }
  w.end_array();
  w.end_object();
  std::string out = w.str();
  out.push_back('\n');
  return out;
}

}  // namespace fortress::scenario
