// plan_generator.hpp — seeded random ScenarioPlans for differential fuzzing.
//
// PlanGenerator samples structurally VALID but adversarial plans across
// every plan axis: latency kind, drop/dup probabilities, partition windows
// (over the real tier address vocabulary of all three system classes),
// crash/recover fault schedules (including events at/past the horizon, to
// exercise the campaign's documented drop policy), attack shape (on/off,
// direct/indirect, sybils), the service model under every overload policy,
// piecewise traffic schedules (including zero-rate pauses — diurnal churn),
// and the compact client population.
//
// Guarantees (pinned by the codec round-trip property test and the plan
// fuzz test):
//  * next() is deterministic in (seed, call index);
//  * every emitted plan passes ScenarioPlan::validate();
//  * every knob stays inside the cost caps in plan_generator.cpp, so a fuzz
//    campaign over the plan is cheap enough to run 64 plans per test run.
#pragma once

#include <cstdint>

#include "net/scenario.hpp"

namespace fortress::scenario {

class PlanGenerator {
 public:
  explicit PlanGenerator(std::uint64_t seed) : seed_(seed) {}

  /// The next random plan (named "fuzz-<seed>-<index>"). Always valid.
  net::ScenarioPlan next();

 private:
  std::uint64_t seed_;
  std::uint64_t index_ = 0;
};

}  // namespace fortress::scenario
