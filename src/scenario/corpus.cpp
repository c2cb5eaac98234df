#include "scenario/corpus.hpp"

#include <bit>
#include <type_traits>

#include "common/fields.hpp"
#include "common/json.hpp"
#include "scenario/plan_codec.hpp"

namespace fortress::scenario {

namespace {

using fields::Doubles;
using json::ParseError;

constexpr const char* kSchemaTag = "fortress-scenario-v1";

}  // namespace

model::SystemKind system_kind_from_string(const std::string& s,
                                          const std::string& ctx) {
  model::SystemKind kind{};
  fields::read_value(json::Value::make_string(s), json::Path(ctx.c_str()),
                     kind, model::kSystemKindNames, Doubles::Decimal);
  return kind;
}

CorpusEntry corpus_entry_from_json(std::string_view text) {
  // Strict key set; canonical order is NOT required on load (re-encode
  // byte-identity is checked separately by check_corpus_entry).
  CorpusEntry e = fields::from_document<CorpusEntry>(
      text, "corpus entry", kSchemaTag, Doubles::Decimal);
  const std::string ctx = "corpus entry";
  if (e.trials_per_cell < 1) {
    throw ParseError(ctx + ".trials_per_cell: must be >= 1");
  }
  if (e.systems.empty()) {
    throw ParseError(ctx + ".systems: must list at least one system class");
  }
  e.plan.validate();
  if (e.plan.name != e.name) {
    throw ParseError(ctx + ": name \"" + e.name +
                     "\" does not match plan.name \"" + e.plan.name + "\"");
  }
  if (!e.golden.empty() && e.golden.size() != e.systems.size()) {
    throw ParseError(ctx + ": golden has " + std::to_string(e.golden.size()) +
                     " rows but systems lists " +
                     std::to_string(e.systems.size()) + " classes");
  }
  return e;
}

std::string corpus_entry_to_json(const CorpusEntry& entry) {
  return fields::to_document(entry, kSchemaTag, Doubles::Decimal);
}

std::vector<CorpusGoldenCell> capture_corpus_golden(const CorpusEntry& entry) {
  std::vector<CampaignCell> cells;
  for (model::SystemKind s : entry.systems) cells.push_back({s, entry.plan});
  CampaignConfig cfg;
  cfg.trials_per_cell = entry.trials_per_cell;
  cfg.base_seed = entry.base_seed;
  cfg.threads = 1;
  const CampaignResult result = run_campaign(cells, cfg);

  std::vector<CorpusGoldenCell> rows;
  for (const CellStats& c : result.cells) {
    CorpusGoldenCell g;
    g.system = c.system;
    g.trials = c.trials;
    g.compromised = c.compromised;
    g.censored = c.censored;
    g.lifetime_mean_bits = std::bit_cast<std::uint64_t>(c.mean_lifetime());
    g.direct_probes = c.attacker.direct_probes;
    g.indirect_probes = c.attacker.indirect_probes;
    g.events_executed = c.events_executed;
    g.blacklisted_sources = c.blacklisted_sources;
    g.traffic_fingerprint = c.traffic.latency.fingerprint();
    g.population_fingerprint = c.population.latency.fingerprint();
    rows.push_back(g);
  }
  return rows;
}

std::vector<std::string> check_corpus_entry(const CorpusEntry& entry,
                                            std::string_view original_text) {
  std::vector<std::string> problems;

  const std::string expect_digest = plan_digest_string(entry.plan);
  if (entry.digest != expect_digest) {
    problems.push_back("digest drift: file pins " + entry.digest +
                       " but the plan encodes to " + expect_digest);
  }

  const std::string reencoded = corpus_entry_to_json(entry);
  if (reencoded != original_text) {
    problems.push_back(
        "canonical-form drift: re-encoding the entry does not reproduce the "
        "file bytes (run `plan_tool capture` and commit the output)");
  }

  if (entry.golden.empty()) {
    problems.push_back("no golden rows: run `plan_tool capture`");
    return problems;
  }

  const std::vector<CorpusGoldenCell> fresh = capture_corpus_golden(entry);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const CorpusGoldenCell& want = entry.golden[i];
    const CorpusGoldenCell& got = fresh[i];
    const std::string cell =
        "golden[" + std::to_string(i) + "] (" + model::to_string(got.system) +
        ")";
    if (want.system != got.system) {
      problems.push_back(cell + ": system order mismatch");
      continue;
    }
    fields::zip(want, got, [&](const char* field, const auto& w,
                               const auto& g, auto) {
      if constexpr (std::is_same_v<std::remove_cvref_t<decltype(w)>,
                                   std::uint64_t>) {
        if (w != g) {
          problems.push_back(cell + "." + field + ": pinned " +
                             std::to_string(w) + ", re-run produced " +
                             std::to_string(g));
        }
      }
    });
  }
  return problems;
}

}  // namespace fortress::scenario
