// Canonical-codec contract tests: round-trip byte-identity and digest
// stability over random plans, the malformed-input rejection table, and the
// precise-error-string guarantees of ScenarioPlan::validate(). The whole
// suite also runs under the -DFORTRESS_SANITIZE=address build (it is part
// of fortress_tests), so the parser is continuously exercised against
// exactly-sized heap buffers.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/json.hpp"
#include "scenario/plan_codec.hpp"
#include "scenario/plan_generator.hpp"

namespace fortress::scenario {
namespace {

net::ScenarioPlan rich_plan() {
  net::ScenarioPlan p;
  p.name = "codec-rich";
  p.latency = net::LatencySpec::exponential(0.05, 0.4);
  p.drop_probability = 0.03;
  p.duplicate_probability = 0.01;
  p.partitions.push_back({10.0, 40.0, {"s0-replica-0", "s2-proxy-1"}});
  p.faults.push_back({net::FaultEvent::Target::Proxy, 1, 120.0,
                      net::FaultEvent::Kind::Crash});
  p.faults.push_back({net::FaultEvent::Target::Proxy, 1, 240.0,
                      net::FaultEvent::Kind::Recover});
  p.attack.sybil_identities = 3;
  p.proxy_blacklist = true;
  p.detection_threshold = 4;
  p.service.enabled = true;
  p.service.policy = net::OverloadPolicy::Backpressure;
  p.traffic.clients = 2;
  p.traffic.schedule = {{0.0, 2.0}, {100.0, 0.0}, {200.0, 3.5}};
  p.population.clients = 512;
  return p;
}

TEST(PlanCodecTest, RichPlanRoundTripsExactly) {
  const net::ScenarioPlan p = rich_plan();
  const std::string encoded = plan_to_json(p);
  const net::ScenarioPlan decoded = plan_from_json(encoded);
  EXPECT_EQ(plan_to_json(decoded), encoded);
  EXPECT_EQ(plan_digest(decoded), plan_digest(p));
  // Spot-check a few decoded fields (byte-identity already implies them).
  EXPECT_EQ(decoded.name, "codec-rich");
  EXPECT_EQ(decoded.partitions.size(), 1u);
  EXPECT_EQ(decoded.faults[0].kind, net::FaultEvent::Kind::Crash);
  EXPECT_EQ(decoded.service.policy, net::OverloadPolicy::Backpressure);
  EXPECT_EQ(decoded.traffic.schedule.size(), 3u);
  EXPECT_EQ(decoded.population.clients, 512u);
}

TEST(PlanCodecTest, CompactAndPrettyFormsDecodeIdentically) {
  const net::ScenarioPlan p = rich_plan();
  const net::ScenarioPlan from_pretty = plan_from_json(plan_to_json(p));
  const net::ScenarioPlan from_compact =
      plan_from_json(plan_to_json_compact(p));
  EXPECT_EQ(plan_to_json(from_pretty), plan_to_json(from_compact));
  EXPECT_EQ(plan_digest(from_pretty), plan_digest(from_compact));
}

// The round-trip PROPERTY: every generator-reachable plan (all axes, all
// enum values, fractional doubles) encodes to JSON that decodes to a plan
// that re-encodes byte-identically, with a stable digest.
TEST(PlanCodecTest, RandomPlansRoundTripByteIdentically) {
  PlanGenerator gen(0xC0DEC);
  for (int i = 0; i < 64; ++i) {
    const net::ScenarioPlan p = gen.next();
    SCOPED_TRACE(p.name);
    const std::string encoded = plan_to_json(p);
    net::ScenarioPlan decoded;
    ASSERT_NO_THROW(decoded = plan_from_json(encoded));
    EXPECT_EQ(plan_to_json(decoded), encoded);
    EXPECT_EQ(plan_digest(decoded), plan_digest(p));
    // Digest is stable across re-encode cycles, and the pin string has the
    // fixed "fnv1a64:" + 16 hex form.
    const std::string pin = plan_digest_string(p);
    ASSERT_EQ(pin.size(), 8u + 16u);
    EXPECT_EQ(pin.substr(0, 8), "fnv1a64:");
  }
}

TEST(PlanCodecTest, DigestIsSemanticNotCosmetic) {
  const net::ScenarioPlan p = rich_plan();
  net::ScenarioPlan q = p;
  EXPECT_EQ(plan_digest(p), plan_digest(q));
  q.drop_probability = 0.04;  // any field change moves the digest
  EXPECT_NE(plan_digest(p), plan_digest(q));
  net::ScenarioPlan r = p;
  r.name = "codec-rich-renamed";  // the name is part of the digest
  EXPECT_NE(plan_digest(p), plan_digest(r));
}

// --- malformed-input rejection table ---------------------------------------

/// Every row must be rejected by plan_from_json with the expected substring
/// in the error — precise errors are part of the codec contract.
struct BadInput {
  const char* label;
  std::string text;
  std::string expect_substring;
};

std::string valid_text() { return plan_to_json(rich_plan()); }

/// Replace the first occurrence of `from` in the valid encoding, or the first
/// one after `after` (a key that shares its name with an earlier one).
std::string mutate(const std::string& from, const std::string& to,
                   const std::string& after = "") {
  std::string text = valid_text();
  const std::size_t at = text.find(from, text.find(after));
  EXPECT_NE(at, std::string::npos) << "bad table row: " << from;
  text.replace(at, from.size(), to);
  return text;
}

/// A row whose parse fails: `to` replaces `from` as in mutate(), and the
/// parser stops `at` bytes into `to`; the row expects the whole message.
BadInput parse_row(const char* label, const std::string& from,
                   const std::string& to, std::size_t at,
                   const std::string& what) {
  const std::size_t offset = valid_text().find(from) + at;
  return {label, mutate(from, to),
          "JSON parse error at byte " + std::to_string(offset) + ": " + what};
}

TEST(PlanCodecTest, MalformedInputsAreRejectedWithPreciseErrors) {
  const std::string valid = valid_text();
  const std::vector<BadInput> table = {
      // Truncations at interesting depths.
      {"empty", "", "unexpected end of input"},
      {"truncated-half", valid.substr(0, valid.size() / 2), "JSON parse"},
      {"truncated-tail", valid.substr(0, valid.size() - 2), "JSON parse"},
      {"trailing-garbage", valid + "x", "trailing bytes"},
      // Unknown / misspelled / duplicate keys. A misspelling reads as the
      // required key going missing; a pure addition reads as unknown.
      {"misspelled-root-key", mutate("\"keyspace\"", "\"keyspace_\""),
       "missing required key \"keyspace\""},
      {"unknown-root-key",
       mutate("\"keyspace\": 1024", "\"keyspace\": 1024, \"keyspacex\": 7"),
       "unknown key \"keyspacex\""},
      {"unknown-nested-key",
       mutate("\"probes_per_step\": 16",
              "\"probes_per_step\": 16, \"probes_extra\": 1"),
       "unknown key \"probes_extra\""},
      {"duplicate-key",
       mutate("\"drop_probability\": 0.03",
              "\"drop_probability\": 0.03, \"drop_probability\": 0.03"),
       "duplicate object key"},
      // Type confusion.
      {"string-for-number", mutate("\"keyspace\": 1024", "\"keyspace\": \"1024\""),
       "expected number, got string"},
      {"number-for-string", mutate("\"name\": \"codec-rich\"", "\"name\": 7"),
       "expected string, got number"},
      {"bool-for-number", mutate("\"keyspace\": 1024", "\"keyspace\": true"),
       "plan.keyspace: expected number, got bool"},
      {"array-for-number", mutate("\"keyspace\": 1024", "\"keyspace\": []"),
       "plan.keyspace: expected number, got array"},
      {"float-for-u64", mutate("\"keyspace\": 1024", "\"keyspace\": 1024.5"),
       "expected unsigned integer"},
      {"negative-for-u64",
       mutate("\"horizon_steps\": 100", "\"horizon_steps\": -100"),
       "expected unsigned integer"},
      // JSON-level strictness.
      {"nan-literal",
       mutate("\"drop_probability\": 0.03", "\"drop_probability\": NaN"),
       "invalid value"},
      {"leading-zero", mutate("\"keyspace\": 1024", "\"keyspace\": 01024"),
       "leading zeros"},
      {"bad-escape", mutate("codec-rich", "codec\\qrich"), "invalid escape"},
      // Strings are read verbatim: no escape is decoded, no control byte
      // is taken, and `null` is not a value.
      parse_row("control-byte", "codec-rich", std::string("codec\x01") + "rich",
                5, "control character in string"),
      parse_row("escaped-quote", "codec-rich", "codec\\\"rich", 5,
                "invalid escape sequence"),
      parse_row("unicode-escape", "codec-rich", "codec\\u0041rich", 5,
                "invalid escape sequence"),
      parse_row("null", "\"drop_probability\": 0.03",
                "\"drop_probability\": null", 20, "invalid value"),
      parse_row("truncated-true", "\"proxy_blacklist\": true",
                "\"proxy_blacklist\": tru", 19,
                "invalid literal (expected 'true')"),
      parse_row("missing-colon", "\"keyspace\": 1024", "\"keyspace\" 1024", 11,
                "expected ':'"),
      parse_row("bare-decimal-point", "\"keyspace\": 1024", "\"keyspace\": 1.",
                14, "digit required after decimal point"),
      parse_row("bare-exponent", "\"keyspace\": 1024", "\"keyspace\": 1e", 14,
                "digit required in exponent"),
      parse_row("huge-exponent", "\"keyspace\": 1024", "\"keyspace\": 1e999",
                12, "number out of range: '1e999'"),
      {"float-for-int", mutate("\"index\": 1", "\"index\": 1.5"),
       "plan.faults[0].index: expected integer, got '1.5'"},
      // Enum vocabulary.
      {"unknown-enum",
       mutate("\"kind\": \"exponential\"", "\"kind\": \"pareto\""),
       "unknown latency kind"},
      {"unknown-policy",
       mutate("\"policy\": \"backpressure\"", "\"policy\": \"reject\""),
       "unknown overload policy"},
      // Semantically invalid (codec parses, validate() rejects).
      {"negative-rate",
       mutate("\"drop_probability\": 0.03", "\"drop_probability\": -0.25"),
       "must be in [0, 1]"},
      {"inverted-partition", mutate("\"start\": 10", "\"start\": 50"),
       "inverted window"},
      {"zero-keyspace", mutate("\"keyspace\": 1024", "\"keyspace\": 1"),
       "keyspace must be >= 2"},
      {"zero-threshold-under-blacklist",
       mutate("\"detection_threshold\": 4", "\"detection_threshold\": 0"),
       "detection_threshold must be >= 1 under proxy_blacklist"},
      // One row per remaining validate() check, each with its whole message.
      {"zero-exponential-mean", mutate("\"b\": 0.4", "\"b\": 0"),
       "ScenarioPlan 'codec-rich'.latency: b must be finite and > 0 "
       "(exponential mean), got 0"},
      {"negative-fault-index", mutate("\"index\": 1", "\"index\": -1"),
       "ScenarioPlan 'codec-rich': faults[0].index must be >= 0, got -1"},
      {"zero-probe-rate",
       mutate("\"probes_per_step\": 16", "\"probes_per_step\": 0"),
       "ScenarioPlan 'codec-rich': attack.probes_per_step must be finite and "
       "> 0, got 0"},
      {"zero-sybils",
       mutate("\"sybil_identities\": 3", "\"sybil_identities\": 0"),
       "ScenarioPlan 'codec-rich': attack.sybil_identities must be >= 1, "
       "got 0"},
      {"zero-step", mutate("\"step_duration\": 100", "\"step_duration\": 0"),
       "ScenarioPlan 'codec-rich': step_duration must be finite and > 0, "
       "got 0"},
      {"zero-servers", mutate("\"n_servers\": 3", "\"n_servers\": 0"),
       "ScenarioPlan 'codec-rich': n_servers must be >= 1, got 0"},
      {"zero-proxies", mutate("\"n_proxies\": 3", "\"n_proxies\": 0"),
       "ScenarioPlan 'codec-rich': n_proxies must be >= 1, got 0"},
      {"zero-horizon", mutate("\"horizon_steps\": 100", "\"horizon_steps\": 0"),
       "ScenarioPlan 'codec-rich': horizon_steps must be >= 1, got 0"},
      {"zero-detection-window",
       mutate("\"detection_window\": 500", "\"detection_window\": 0"),
       "ScenarioPlan 'codec-rich': detection_window must be finite and > 0 "
       "under proxy_blacklist, got 0"},
      {"zero-queue", mutate("\"queue_capacity\": 64", "\"queue_capacity\": 0"),
       "ScenarioPlan 'codec-rich'.service: queue_capacity must be >= 1, got 0"},
      {"zero-pushback",
       mutate("\"pushback_delay\": 0.5", "\"pushback_delay\": 0"),
       "ScenarioPlan 'codec-rich'.service: pushback_delay must be finite and "
       "> 0 under Backpressure, got 0"},
      {"zero-traffic-keys",
       mutate("\"distinct_keys\": 16", "\"distinct_keys\": 0"),
       "ScenarioPlan 'codec-rich'.traffic: distinct_keys must be >= 1, got 0"},
      {"zero-traffic-retry-base",
       mutate("\"retry_base\": 2", "\"retry_base\": 0"),
       "ScenarioPlan 'codec-rich'.traffic: retry_base must be finite and > 0, "
       "got 0"},
      {"shrinking-traffic-backoff",
       mutate("\"retry_multiplier\": 2", "\"retry_multiplier\": 0.5"),
       "ScenarioPlan 'codec-rich'.traffic: retry_multiplier must be finite "
       "and >= 1, got 0.5"},
      {"full-jitter", mutate("\"retry_jitter\": 0.1", "\"retry_jitter\": 1"),
       "ScenarioPlan 'codec-rich'.traffic: retry_jitter must be in [0, 1), "
       "got 1"},
      {"too-many-population-keys",
       mutate("\"distinct_keys\": 16", "\"distinct_keys\": 65537",
              "\"population\""),
       "ScenarioPlan 'codec-rich'.population: distinct_keys must be in "
       "[1, 65536], got 65537"},
      {"zero-tick", mutate("\"tick_interval\": 1", "\"tick_interval\": 0"),
       "ScenarioPlan 'codec-rich'.population: tick_interval must be finite "
       "and > 0, got 0"},
      {"zero-population-retry-base",
       mutate("\"retry_base\": 2", "\"retry_base\": 0", "\"population\""),
       "ScenarioPlan 'codec-rich'.population: retry_base must be finite and "
       "> 0, got 0"},
      {"shrinking-population-backoff",
       mutate("\"retry_multiplier\": 2", "\"retry_multiplier\": 0.5",
              "\"population\""),
       "ScenarioPlan 'codec-rich'.population: retry_multiplier must be "
       "finite and >= 1, got 0.5"},
  };
  for (const BadInput& row : table) {
    SCOPED_TRACE(row.label);
    try {
      plan_from_json(row.text);
      ADD_FAILURE() << "accepted malformed input";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find(row.expect_substring),
                std::string::npos)
          << "error was: " << e.what();
    }
  }
}

// The writer emits strings verbatim, so it refuses one that would need an
// escape, and it does so before writing anything.
TEST(PlanCodecTest, WriterRefusesStringsThatWouldNeedAnEscape) {
  net::ScenarioPlan p = rich_plan();
  p.name = "a\"b";
  try {
    plan_to_json(p);
    FAIL() << "encoded a name with a quote";
  } catch (const json::ParseError& e) {
    EXPECT_STREQ(e.what(), "JSON writer: string 'a\"b' would need an escape");
  }
  for (const std::string bad : {"a\"b", "a\\b", "a\x1f"}) {
    SCOPED_TRACE(bad);
    json::Writer w;
    w.begin_array();
    w.value(std::string_view("x"));
    EXPECT_THROW(w.value(std::string_view(bad)), json::ParseError);
    EXPECT_THROW(w.key(bad), json::ParseError);
    w.end_array();
    EXPECT_EQ(w.str(), "[\n  \"x\"\n]");
  }
}

TEST(PlanCodecTest, ContainerTypeConfusionIsRejected) {
  // A default plan has empty containers, which makes the swap textual:
  // "partitions": [] → {} and "attack": {...} → [].
  const std::string base = plan_to_json(net::ScenarioPlan{});
  std::string arr_to_obj = base;
  const std::size_t at = arr_to_obj.find("\"partitions\": []");
  ASSERT_NE(at, std::string::npos);
  arr_to_obj.replace(at, 16, "\"partitions\": {}");
  try {
    plan_from_json(arr_to_obj);
    FAIL() << "accepted object where array expected";
  } catch (const json::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("expected array, got object"),
              std::string::npos)
        << e.what();
  }
}

TEST(PlanCodecTest, ValidateRejectsNaNAndNamesTheField) {
  net::ScenarioPlan p = rich_plan();
  p.drop_probability = std::numeric_limits<double>::quiet_NaN();
  try {
    p.validate();
    FAIL() << "NaN accepted";
  } catch (const net::PlanValidationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("codec-rich"), std::string::npos) << what;
    EXPECT_NE(what.find("drop_probability"), std::string::npos) << what;
  }
}

TEST(PlanCodecTest, ValidateRejectsInvertedRatePhases) {
  net::ScenarioPlan p = rich_plan();
  p.traffic.schedule = {{50.0, 1.0}, {20.0, 2.0}};  // out of order
  try {
    p.validate();
    FAIL() << "inverted rate phases accepted";
  } catch (const net::PlanValidationError& e) {
    EXPECT_NE(std::string(e.what()).find("schedule[1]"), std::string::npos)
        << e.what();
  }
}

TEST(PlanCodecTest, ValidateRejectsZeroSizeCohorts) {
  net::ScenarioPlan p = rich_plan();
  p.population.cohort_size = 0;
  try {
    p.validate();
    FAIL() << "zero-size cohort accepted";
  } catch (const net::PlanValidationError& e) {
    EXPECT_NE(std::string(e.what()).find("cohort_size"), std::string::npos)
        << e.what();
  }
}

TEST(PlanCodecTest, ValidateAllowsFaultsAtOrPastHorizonByPolicy) {
  // Explicit policy: such faults are valid (the campaign drops them), so
  // validate() must accept, and the codec must round-trip them.
  net::ScenarioPlan p = rich_plan();
  p.faults.push_back({net::FaultEvent::Target::Server, 0,
                      p.step_duration * static_cast<double>(p.horizon_steps) *
                          2.0,
                      net::FaultEvent::Kind::Recover});
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(plan_to_json(plan_from_json(plan_to_json(p))), plan_to_json(p));
}

TEST(PlanCodecTest, ValidateRejectsEmptyPartitionIsland) {
  net::ScenarioPlan p = rich_plan();
  p.partitions.push_back({1.0, 2.0, {}});
  EXPECT_THROW(p.validate(), net::PlanValidationError);
}

}  // namespace
}  // namespace fortress::scenario
