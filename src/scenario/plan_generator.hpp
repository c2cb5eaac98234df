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
// Guarantees (pinned by the codec round-trip property test and the
// planfuzz lane):
//  * next() is deterministic in (seed, call index);
//  * every emitted plan passes ScenarioPlan::validate();
//  * every knob stays inside GeneratorConfig's cost caps, so a fuzz
//    campaign over the plan is cheap enough to run 64+ plans per CI lane.
#pragma once

#include <cstdint>

#include "net/scenario.hpp"

namespace fortress::scenario {

/// Cost ceilings for generated plans. Defaults keep one (plan x 3-trial)
/// campaign in the low-millisecond range so the differential lane can
/// afford dozens of plans times four campaign configurations.
struct GeneratorConfig {
  std::uint64_t max_horizon_steps = 5;
  double max_step_duration = 60.0;
  double max_probes_per_step = 24.0;
  int max_servers = 4;
  int max_proxies = 4;
  int max_traffic_clients = 3;
  double max_traffic_rate = 4.0;
  std::uint64_t max_population = 4096;
  /// Probability weights for opting into each optional plane.
  double p_partitions = 0.5;
  double p_faults = 0.6;
  double p_service = 0.45;
  double p_traffic = 0.4;
  double p_population = 0.3;
};

class PlanGenerator {
 public:
  explicit PlanGenerator(std::uint64_t seed, GeneratorConfig config = {});

  /// The next random plan (named "fuzz-<seed>-<index>"). Always valid.
  net::ScenarioPlan next();

 private:
  std::uint64_t seed_;
  std::uint64_t index_ = 0;
  GeneratorConfig cfg_;
};

}  // namespace fortress::scenario
