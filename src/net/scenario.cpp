#include "net/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace fortress::net {

sim::Time LatencySpec::sample(Rng& rng) const {
  switch (kind) {
    case Kind::Fixed: return a;
    case Kind::Uniform: return a + (b - a) * rng.uniform01();
    case Kind::Exponential: return a + rng.exponential(1.0 / b);
  }
  FORTRESS_CHECK(false);
  return a;
}

namespace {

// Validation helpers: the success path is pure comparisons — the error
// string (field path + expectation + offending value) is only built when a
// check fails, so per-trial plan validation costs branches, not allocations.

[[noreturn]] void plan_fail(const std::string& ctx, const char* field,
                            const char* expectation, double got) {
  std::ostringstream os;
  os << ctx << ": " << field << " " << expectation << ", got " << got;
  throw PlanValidationError(os.str());
}

[[noreturn]] void plan_fail_msg(const std::string& ctx, const std::string& m) {
  throw PlanValidationError(ctx + ": " + m);
}

/// Finite and >= 0 — the shape every rate, probability floor, cost and
/// timestamp in a plan shares. NaN fails every comparison, so checks are
/// written as negations of the allowed range.
void check_nonneg(const std::string& ctx, const char* field, double v) {
  if (!(std::isfinite(v) && v >= 0.0)) {
    plan_fail(ctx, field, "must be finite and >= 0", v);
  }
}

void check_probability(const std::string& ctx, const char* field, double v) {
  if (!(std::isfinite(v) && v >= 0.0 && v <= 1.0)) {
    plan_fail(ctx, field, "must be in [0, 1]", v);
  }
}

std::string indexed(const char* field, std::size_t i) {
  return std::string(field) + "[" + std::to_string(i) + "]";
}

}  // namespace

void LatencySpec::validate(const std::string& ctx) const {
  check_nonneg(ctx, "a", a);
  switch (kind) {
    case Kind::Fixed:
      break;
    case Kind::Uniform:
      if (!(std::isfinite(b) && b >= a)) {
        plan_fail(ctx, "b", "must be finite and >= a (uniform)", b);
      }
      break;
    case Kind::Exponential:
      if (!(std::isfinite(b) && b > 0.0)) {
        plan_fail(ctx, "b", "must be finite and > 0 (exponential mean)", b);
      }
      break;
  }
}

bool PartitionWindow::contains(const Address& addr) const {
  return std::find(island.begin(), island.end(), addr) != island.end();
}

void ServiceModel::validate(const std::string& ctx) const {
  if (!enabled) return;
  request_service.validate(ctx + ".request_service");
  response_service.validate(ctx + ".response_service");
  other_service.validate(ctx + ".other_service");
  check_nonneg(ctx, "verify_cost", verify_cost);
  if (queue_capacity < 1) {
    plan_fail(ctx, "queue_capacity", "must be >= 1", queue_capacity);
  }
  if (policy == OverloadPolicy::Backpressure &&
      !(std::isfinite(pushback_delay) && pushback_delay > 0.0)) {
    plan_fail(ctx, "pushback_delay",
              "must be finite and > 0 under Backpressure", pushback_delay);
  }
}

void TrafficSpec::validate(const std::string& ctx) const {
  if (!enabled()) return;  // so clients >= 1 below
  check_probability(ctx, "write_fraction", write_fraction);
  if (distinct_keys < 1) {
    plan_fail(ctx, "distinct_keys", "must be >= 1", distinct_keys);
  }
  sim::Time prev = -1.0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const RatePhase& phase = schedule[i];
    if (!(std::isfinite(phase.at) && phase.at >= 0.0 && phase.at > prev)) {
      plan_fail_msg(
          ctx, indexed("schedule", i) + ".at must be finite, >= 0 and " +
                   "strictly after the previous phase (" +
                   std::to_string(prev) + "), got " + std::to_string(phase.at));
    }
    check_nonneg(ctx, indexed("schedule", i).append(".rate").c_str(),
                 phase.rate);
    prev = phase.at;
  }
  if (!(std::isfinite(retry_base) && retry_base > 0.0)) {
    plan_fail(ctx, "retry_base", "must be finite and > 0", retry_base);
  }
  if (!(std::isfinite(retry_multiplier) && retry_multiplier >= 1.0)) {
    plan_fail(ctx, "retry_multiplier", "must be finite and >= 1",
              retry_multiplier);
  }
  check_nonneg(ctx, "retry_cap", retry_cap);
  if (!(std::isfinite(retry_jitter) && retry_jitter >= 0.0 &&
        retry_jitter < 1.0)) {
    plan_fail(ctx, "retry_jitter", "must be in [0, 1)", retry_jitter);
  }
  check_nonneg(ctx, "request_deadline", request_deadline);
}

void PopulationSpec::validate(const std::string& ctx) const {
  if (!enabled()) return;
  if (cohort_size < 1) {
    plan_fail(ctx, "cohort_size", "must be >= 1 (zero-size cohorts)",
              cohort_size);
  }
  check_nonneg(ctx, "request_rate", request_rate);
  check_probability(ctx, "write_fraction", write_fraction);
  // Keys live in a u16 table column.
  if (distinct_keys < 1 || distinct_keys > 65536) {
    plan_fail(ctx, "distinct_keys", "must be in [1, 65536]", distinct_keys);
  }
  if (!(std::isfinite(tick_interval) && tick_interval > 0.0)) {
    plan_fail(ctx, "tick_interval", "must be finite and > 0", tick_interval);
  }
  if (!(std::isfinite(retry_base) && retry_base > 0.0)) {
    plan_fail(ctx, "retry_base", "must be finite and > 0", retry_base);
  }
  if (!(std::isfinite(retry_multiplier) && retry_multiplier >= 1.0)) {
    plan_fail(ctx, "retry_multiplier", "must be finite and >= 1",
              retry_multiplier);
  }
  check_nonneg(ctx, "retry_cap", retry_cap);
  check_nonneg(ctx, "request_deadline", request_deadline);
}

void ScenarioPlan::validate() const {
  const std::string ctx = "ScenarioPlan '" + name + "'";
  latency.validate(ctx + ".latency");
  check_probability(ctx, "drop_probability", drop_probability);
  check_probability(ctx, "duplicate_probability", duplicate_probability);
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    const PartitionWindow& w = partitions[i];
    check_nonneg(ctx, indexed("partitions", i).append(".start").c_str(),
                 w.start);
    if (!(std::isfinite(w.end) && w.end >= w.start)) {
      plan_fail_msg(ctx, indexed("partitions", i) + ": inverted window [" +
                             std::to_string(w.start) + ", " +
                             std::to_string(w.end) + ")");
    }
    if (w.island.empty()) {
      plan_fail_msg(ctx, indexed("partitions", i) +
                             ".island must name at least one address");
    }
  }
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultEvent& f = faults[i];
    // Policy note: `at` at or past the horizon is VALID — the campaign
    // drops such events (dead work) rather than rejecting the plan.
    check_nonneg(ctx, indexed("faults", i).append(".at").c_str(), f.at);
    if (f.index < 0) {
      plan_fail(ctx, indexed("faults", i).append(".index").c_str(),
                "must be >= 0", f.index);
    }
  }
  if (attack.enabled) {
    if (!(std::isfinite(attack.probes_per_step) &&
          attack.probes_per_step > 0.0)) {
      plan_fail(ctx, "attack.probes_per_step", "must be finite and > 0",
                attack.probes_per_step);
    }
    check_nonneg(ctx, "attack.indirect_fraction", attack.indirect_fraction);
    check_nonneg(ctx, "attack.start_time", attack.start_time);
    if (attack.sybil_identities < 1) {
      plan_fail(ctx, "attack.sybil_identities", "must be >= 1",
                attack.sybil_identities);
    }
  }
  if (keyspace < 2) plan_fail(ctx, "keyspace", "must be >= 2",
                              static_cast<double>(keyspace));
  if (!(std::isfinite(step_duration) && step_duration > 0.0)) {
    plan_fail(ctx, "step_duration", "must be finite and > 0", step_duration);
  }
  if (n_servers < 1) plan_fail(ctx, "n_servers", "must be >= 1", n_servers);
  if (n_proxies < 1) plan_fail(ctx, "n_proxies", "must be >= 1", n_proxies);
  if (horizon_steps < 1) {
    plan_fail(ctx, "horizon_steps", "must be >= 1",
              static_cast<double>(horizon_steps));
  }
  if (proxy_blacklist &&
      !(std::isfinite(detection_window) && detection_window > 0.0)) {
    plan_fail(ctx, "detection_window",
              "must be finite and > 0 under proxy_blacklist",
              detection_window);
  }
  if (proxy_blacklist && detection_threshold == 0) {
    // A zero threshold flags every source on its first suspicious event.
    plan_fail(ctx, "detection_threshold", "must be >= 1 under proxy_blacklist",
              0.0);
  }
  service.validate(ctx + ".service");
  traffic.validate(ctx + ".traffic");
  population.validate(ctx + ".population");
}

}  // namespace fortress::net
