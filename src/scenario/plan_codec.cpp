#include "scenario/plan_codec.hpp"

#include "common/fields.hpp"
#include "common/json.hpp"

namespace fortress::scenario {

namespace {

std::string encode(const net::ScenarioPlan& plan, bool compact) {
  json::Writer w(compact);
  fields::write_value(w, plan, fields::kNested, fields::Doubles::Decimal);
  return w.str();
}

}  // namespace

std::string plan_to_json(const net::ScenarioPlan& plan) {
  return encode(plan, /*compact=*/false);
}

std::string plan_to_json_compact(const net::ScenarioPlan& plan) {
  return encode(plan, /*compact=*/true);
}

net::ScenarioPlan plan_from_json(std::string_view text) {
  const json::Value root = json::parse(text);
  net::ScenarioPlan plan;
  fields::read_value(root, json::Path("plan"), plan, fields::kNested,
                     fields::Doubles::Decimal);
  plan.validate();
  return plan;
}

std::uint64_t plan_digest(const net::ScenarioPlan& plan) {
  return json::fnv1a64(plan_to_json_compact(plan));
}

std::string plan_digest_string(const net::ScenarioPlan& plan) {
  return "fnv1a64:" + json::hex64(plan_digest(plan)).substr(2);
}

}  // namespace fortress::scenario
