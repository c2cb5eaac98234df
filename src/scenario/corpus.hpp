// corpus.hpp — the committed-scenario fixture contract.
//
// A corpus entry (one `scenarios/<name>.json` file) is a named ScenarioPlan
// plus everything needed to re-run it as a regression oracle:
//
//   {
//     "schema": "fortress-scenario-v1",
//     "name": ...,            // must equal plan.name
//     "description": ...,     // one line: what this scenario stresses
//     "base_seed": ...,       // campaign base seed
//     "trials_per_cell": ..., // campaign budget
//     "systems": ["S0", ...], // one campaign cell per listed class
//     "digest": "fnv1a64:..", // plan_digest_string(plan) — semantic pin
//     "plan": { ... },        // canonical plan encoding (plan_codec)
//     "golden": [ ... ]       // one row per cell: pinned aggregates
//   }
//
// The pins are exact: lifetime-mean bits, attacker probe counts, simulator
// event counts and the traffic/population latency fingerprints must be
// BIT-identical when the entry's campaign is re-run (any thread count, any
// isolation mode, either scheduler — the campaign determinism contract).
// `tools/corpus_check.py` re-checks every committed entry via `plan_tool
// check` in the ctest lane; `plan_tool capture` re-captures golden rows
// when a deliberate behaviour change moves them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/fields.hpp"
#include "model/params.hpp"
#include "net/scenario.hpp"
#include "scenario/campaign.hpp"

namespace fortress::scenario {

/// Pinned aggregates of one (system x plan) campaign cell. Doubles are
/// pinned by bit pattern (hex strings in the file) — "close" is not a
/// fixture contract, equal bits are.
struct CorpusGoldenCell {
  model::SystemKind system = model::SystemKind::S2;
  std::uint64_t trials = 0;
  std::uint64_t compromised = 0;
  std::uint64_t censored = 0;
  std::uint64_t lifetime_mean_bits = 0;
  std::uint64_t direct_probes = 0;
  std::uint64_t indirect_probes = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t blacklisted_sources = 0;
  std::uint64_t traffic_fingerprint = 0;     ///< TrafficStats::latency
  std::uint64_t population_fingerprint = 0;  ///< PopulationStats::latency
};

/// A golden row's file layout, and the pin list check_corpus_entry walks.
template <fields::FieldsOf<CorpusGoldenCell> S, class V>
constexpr void visit_fields(S& s, V&& v) {
  v("system", s.system, model::kSystemKindNames);
  v("trials", s.trials, fields::kU64);
  v("compromised", s.compromised, fields::kU64);
  v("censored", s.censored, fields::kU64);
  v("lifetime_mean_bits", s.lifetime_mean_bits, fields::kHex);
  v("direct_probes", s.direct_probes, fields::kU64);
  v("indirect_probes", s.indirect_probes, fields::kU64);
  v("events_executed", s.events_executed, fields::kU64);
  v("blacklisted_sources", s.blacklisted_sources, fields::kU64);
  v("traffic_fingerprint", s.traffic_fingerprint, fields::kHex);
  v("population_fingerprint", s.population_fingerprint, fields::kHex);
}
static_assert(fields::complete<CorpusGoldenCell>());

struct CorpusEntry {
  std::string name;
  std::string description;
  std::uint64_t base_seed = 1;
  std::uint64_t trials_per_cell = 4;
  std::vector<model::SystemKind> systems;
  std::string digest;  ///< "fnv1a64:<16 hex>" over the plan
  net::ScenarioPlan plan;
  std::vector<CorpusGoldenCell> golden;  ///< one per system, same order
};

template <fields::FieldsOf<CorpusEntry> S, class V>
constexpr void visit_fields(S& s, V&& v) {
  v("name", s.name, fields::kString);
  v("description", s.description, fields::kString);
  v("base_seed", s.base_seed, fields::kU64);
  v("trials_per_cell", s.trials_per_cell, fields::kU64);
  v("systems", s.systems, model::kSystemKindNames);
  v("digest", s.digest, fields::kString);
  v("plan", s.plan, fields::kNested);
  v("golden", s.golden, fields::kNested);
}
static_assert(fields::complete<CorpusEntry>());

/// Strict decode (json::ParseError on malformed wrapper or plan;
/// net::PlanValidationError on an invalid plan). Checks structural
/// consistency (name matches plan.name, one golden row per system, schema
/// tag) but NOT the digest/golden pins — that is check_corpus_entry's job,
/// so capture tooling can load an entry whose pins are stale.
CorpusEntry corpus_entry_from_json(std::string_view text);

/// Canonical encode (the committed-file form; byte-reproducible).
std::string corpus_entry_to_json(const CorpusEntry& entry);

/// Run the entry's campaign (1 thread, pooled arenas, default scheduler)
/// and return one freshly captured golden row per system.
std::vector<CorpusGoldenCell> capture_corpus_golden(const CorpusEntry& entry);

/// Full fixture check: plan digest matches the pinned digest, the canonical
/// re-encode of the whole entry is byte-identical to `original_text`, and a
/// fresh campaign reproduces every golden row bit-for-bit. Returns a list
/// of human-readable mismatches (empty == entry is sound).
std::vector<std::string> check_corpus_entry(const CorpusEntry& entry,
                                            std::string_view original_text);

/// Parses "S0"/"S1"/"S2" (throws json::ParseError otherwise).
model::SystemKind system_kind_from_string(const std::string& s,
                                          const std::string& ctx);

}  // namespace fortress::scenario
