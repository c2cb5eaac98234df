// plan_tool — the scenario-plan workbench (canonicalize, digest, generate,
// fuzz, minimize).
//
//   plan_tool canon    <plan-or-spec.json>      re-emit canonical plan JSON
//   plan_tool digest   <plan-or-spec.json>      print "fnv1a64:..." digest
//   plan_tool gen      <seed> [count]           print `count` random plans
//   plan_tool fuzz     <seed> [count]           differential-check `count`
//                                               random plans (exit 1 on any
//                                               divergence)
//   plan_tool minimize <plan-or-spec.json> --pred P
//                                               shrink a failing plan and
//                                               print the minimal repro JSON
//
// Built-in minimizer predicates (--pred):
//   pooled-vs-fresh | threads | wheel-vs-heap   the matching differential
//                                               arm diverges
//   any-divergence                              any arm diverges
//   crash                                       run_trial throws
// Knobs: --systems S0,S2 (default all), --trials N (default 3), --seed S.
//
// A plan argument is a bare plan file or a campaign spec holding exactly one
// plan, such as a committed scenarios/<name>.json.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fields.hpp"
#include "scenario/differential.hpp"
#include "scenario/minimize.hpp"
#include "scenario/plan_codec.hpp"
#include "scenario/plan_generator.hpp"
#include "scenario/shard.hpp"

namespace {

using namespace fortress;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// A bare plan, or the one plan of a campaign spec (a plan has no "schema"
/// member; a spec document does).
net::ScenarioPlan load_plan(const std::string& path) {
  const std::string text = slurp(path);
  if (text.find("\"schema\"") == std::string::npos) {
    return scenario::plan_from_json(text);
  }
  scenario::CampaignSpec spec = scenario::campaign_spec_from_json(text);
  if (spec.plans.size() != 1) {
    throw std::runtime_error(path + ": spec holds " +
                             std::to_string(spec.plans.size()) +
                             " plans, expected exactly one");
  }
  return std::move(spec.plans.front());
}

int cmd_canon(const std::string& path) {
  std::cout << scenario::plan_to_json(load_plan(path)) << "\n";
  return 0;
}

int cmd_digest(const std::string& path) {
  std::cout << scenario::plan_digest_string(load_plan(path)) << "\n";
  return 0;
}

int cmd_gen(std::uint64_t seed, std::uint64_t count) {
  scenario::PlanGenerator gen(seed);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::cout << scenario::plan_to_json(gen.next()) << "\n";
  }
  return 0;
}

int cmd_fuzz(std::uint64_t seed, std::uint64_t count) {
  scenario::PlanGenerator gen(seed);
  int divergent = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const net::ScenarioPlan plan = gen.next();
    const std::vector<std::string> problems =
        scenario::differential_check(plan);
    if (problems.empty()) {
      std::cout << "OK   " << plan.name << "\n";
      continue;
    }
    ++divergent;
    std::cout << "FAIL " << plan.name << "\n";
    for (const std::string& p : problems) std::cout << "     " << p << "\n";
    std::cout << "     repro plan:\n" << scenario::plan_to_json(plan) << "\n";
  }
  return divergent == 0 ? 0 : 1;
}

/// Parses "S0"/"S1"/"S2" (throws json::ParseError otherwise).
model::SystemKind system_kind_from_string(const std::string& s) {
  model::SystemKind kind{};
  fields::read_value(json::Value::make_string(s), json::Path("--systems"),
                     kind, model::kSystemKindNames, fields::Doubles::Decimal);
  return kind;
}

std::vector<model::SystemKind> parse_systems(const std::string& csv) {
  std::vector<model::SystemKind> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.push_back(system_kind_from_string(item));
  }
  if (out.empty()) throw std::runtime_error("--systems: empty list");
  return out;
}

int cmd_minimize(const std::vector<std::string>& args) {
  std::string path, pred_name;
  scenario::DifferentialOptions diff;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw std::runtime_error(a + " needs an argument");
      }
      return args[++i];
    };
    if (a == "--pred") pred_name = next();
    else if (a == "--systems") diff.systems = parse_systems(next());
    else if (a == "--trials") diff.trials_per_cell = std::stoull(next());
    else if (a == "--seed") diff.base_seed = std::stoull(next());
    else if (!a.empty() && a[0] == '-') {
      throw std::runtime_error("unknown option " + a);
    } else if (path.empty()) {
      path = a;
    } else {
      throw std::runtime_error("unexpected argument " + a);
    }
  }
  if (path.empty() || pred_name.empty()) {
    throw std::runtime_error("usage: plan_tool minimize <plan.json> --pred "
                             "pooled-vs-fresh|threads|wheel-vs-heap|"
                             "any-divergence|crash [--systems S0,S2] "
                             "[--trials N] [--seed S]");
  }

  scenario::PlanPredicate pred;
  if (pred_name == "crash") {
    pred = [&diff](const net::ScenarioPlan& p) {
      try {
        for (model::SystemKind s : diff.systems) {
          for (std::uint64_t t = 0; t < diff.trials_per_cell; ++t) {
            scenario::run_trial(s, p, diff.base_seed + t);
          }
        }
        return false;
      } catch (...) {
        return true;
      }
    };
  } else {
    // Arm-labelled divergence predicates share differential_check; match on
    // the arm label prefix inside the divergence message.
    std::string needle;
    if (pred_name == "pooled-vs-fresh") needle = "fresh-stacks";
    else if (pred_name == "threads") needle = "threads";
    else if (pred_name == "wheel-vs-heap") needle = "heap scheduler";
    else if (pred_name == "any-divergence") needle = "";
    else throw std::runtime_error("unknown predicate " + pred_name);
    pred = [&diff, needle](const net::ScenarioPlan& p) {
      for (const std::string& d : scenario::differential_check(p, diff)) {
        if (needle.empty() || d.find(needle) != std::string::npos) {
          return true;
        }
      }
      return false;
    };
  }

  const net::ScenarioPlan failing = load_plan(path);
  const scenario::MinimizeResult result =
      scenario::minimize_plan(failing, pred);
  std::cerr << "minimized in " << result.predicate_calls
            << " predicate calls, " << result.reductions
            << " accepted reductions; digest "
            << scenario::plan_digest_string(result.plan) << "\n";
  std::cout << scenario::plan_to_json(result.plan) << "\n";
  return 0;
}

int usage() {
  std::cerr << "usage: plan_tool canon|digest|gen|fuzz|minimize"
               " ... (see tools/plan_tool.cpp header)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string cmd = args[0];
  args.erase(args.begin());
  try {
    if (cmd == "canon" && args.size() == 1) return cmd_canon(args[0]);
    if (cmd == "digest" && args.size() == 1) return cmd_digest(args[0]);
    if (cmd == "gen" && (args.size() == 1 || args.size() == 2)) {
      return cmd_gen(std::stoull(args[0]),
                     args.size() == 2 ? std::stoull(args[1]) : 1);
    }
    if (cmd == "fuzz" && (args.size() == 1 || args.size() == 2)) {
      return cmd_fuzz(std::stoull(args[0]),
                      args.size() == 2 ? std::stoull(args[1]) : 8);
    }
    if (cmd == "minimize") return cmd_minimize(args);
  } catch (const std::exception& e) {
    std::cerr << "plan_tool " << cmd << ": " << e.what() << "\n";
    return 1;
  }
  return usage();
}
