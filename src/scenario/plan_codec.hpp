// plan_codec.hpp — the canonical JSON codec for net::ScenarioPlan.
//
// A serialized plan is a FIXTURE: the bytes, not just the meaning, are part
// of the contract. The codec therefore defines exactly one encoding —
// fields in struct-declaration order, 2-space indent, shortest round-trip
// number formatting, enums as lower-snake strings — and a strict decoder
// that rejects unknown keys, type confusion, duplicate keys and truncated
// documents with precise errors (json::ParseError), then runs the decoded
// plan through ScenarioPlan::validate() (net::PlanValidationError) so a
// malformed file can never reach the simulator.
//
// Invariants (pinned by scenario_plan_codec_test + the planfuzz lane):
//  * plan_from_json(plan_to_json(p)) reproduces p exactly — re-encoding is
//    byte-identical;
//  * plan_digest is FNV-1a 64 over the COMPACT canonical encoding, so it is
//    a semantic digest: stable across whitespace/tooling, changed by any
//    field change (including the name). Corpus files pin it as
//    "fnv1a64:<16 hex digits>".
//
// Both directions are the generic fields:: visitors (common/fields.hpp)
// walking the plan's field tables — the visit_fields beside each struct in
// net/scenario.hpp, whose line order is the member order above. A new plan
// field is one table line, encoded and strictly decoded with no codec edit.
//
// Default-valued fields ARE emitted (no omit-if-default): a plan file reads
// complete, and adding a field to ScenarioPlan visibly changes every digest
// — which is what forces corpus golden values to be re-captured when the
// plan vocabulary grows.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/scenario.hpp"

namespace fortress::scenario {

/// Canonical pretty encoding (the committed-fixture form).
std::string plan_to_json(const net::ScenarioPlan& plan);

/// Canonical compact encoding (no whitespace) — the digest input. Parses to
/// the same plan as the pretty form.
std::string plan_to_json_compact(const net::ScenarioPlan& plan);

/// Strict decode + validate. Throws json::ParseError on malformed JSON,
/// unknown keys or type confusion; net::PlanValidationError on a
/// well-formed but semantically invalid plan.
net::ScenarioPlan plan_from_json(std::string_view text);

/// FNV-1a 64 over plan_to_json_compact(plan).
std::uint64_t plan_digest(const net::ScenarioPlan& plan);

/// plan_digest rendered as the corpus pin string "fnv1a64:0123456789abcdef".
std::string plan_digest_string(const net::ScenarioPlan& plan);

}  // namespace fortress::scenario
