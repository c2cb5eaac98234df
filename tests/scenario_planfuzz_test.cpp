// The standing differential fuzz guard. Each random plan's campaign is run
// four ways — reference (1 thread, pooled arenas, wheel scheduler) against
// fresh-stacks, 8-thread and heap-scheduler arms — and every aggregate must
// be bit-identical (campaign_fingerprint covers lifetime moments, attacker
// counters, traffic/population stats and both latency-histogram
// fingerprints). Each plan also round-trips through the codec first, so the
// fuzzer exercises parser and simulator together.
//
// The guard covers the first 64 plans of one generator stream, each its own
// test case, so a failure names the plan's index.
#include <gtest/gtest.h>

#include <string>

#include "scenario/differential.hpp"
#include "scenario/plan_codec.hpp"
#include "scenario/plan_generator.hpp"

namespace fortress::scenario {
namespace {

class PlanFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(PlanFuzzTest, RandomPlansAreDeterministicAcrossExecutionModes) {
  PlanGenerator gen(0xF0221);
  for (int i = 0; i < GetParam(); ++i) gen.next();
  const net::ScenarioPlan original = gen.next();
  SCOPED_TRACE(original.name);

  // Codec round-trip first: the plan under differential test is the
  // DECODED one, so a codec bug that perturbs a field shows up as either
  // a byte diff here or a fingerprint diff below.
  const std::string encoded = plan_to_json(original);
  const net::ScenarioPlan plan = plan_from_json(encoded);
  ASSERT_EQ(plan_to_json(plan), encoded);

  for (const std::string& divergence : differential_check(plan)) {
    ADD_FAILURE() << divergence << "\nrepro plan:\n" << encoded;
  }
}

INSTANTIATE_TEST_SUITE_P(Plans, PlanFuzzTest, ::testing::Range(0, 64));

// The generator itself is part of the guard's trust base: same seed, same
// plans, forever — otherwise a fuzz failure in CI is not reproducible
// locally.
TEST(PlanFuzzTest, GeneratorIsDeterministicInSeedAndIndex) {
  PlanGenerator a(42), b(42);
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(plan_to_json_compact(a.next()), plan_to_json_compact(b.next()));
  }
  // Streams are index-addressed, not state-chained: a generator that
  // already emitted plans continues to agree with a fresh one.
  PlanGenerator c(42);
  for (int i = 0; i < 16; ++i) c.next();
  EXPECT_EQ(plan_to_json_compact(a.next()), plan_to_json_compact(c.next()));
  // Different seeds give different streams.
  PlanGenerator d(43);
  EXPECT_NE(plan_to_json_compact(PlanGenerator(42).next()),
            plan_to_json_compact(d.next()));
}

TEST(PlanFuzzTest, GeneratorCoversEveryOptionalPlane) {
  // 64 plans at the default opt-in weights make a never-sampled plane
  // astronomically unlikely; this catches a generator regression that
  // silently stops exercising an axis.
  PlanGenerator gen(7);
  bool saw_partitions = false, saw_faults = false, saw_service = false,
       saw_traffic = false, saw_population = false, saw_crash = false,
       saw_zero_rate = false, saw_past_horizon = false;
  for (int i = 0; i < 64; ++i) {
    const net::ScenarioPlan p = gen.next();
    saw_partitions |= !p.partitions.empty();
    saw_service |= p.service.enabled;
    saw_traffic |= p.traffic.enabled();
    saw_population |= p.population.enabled();
    for (const net::FaultEvent& f : p.faults) {
      saw_faults = true;
      saw_crash |= f.kind == net::FaultEvent::Kind::Crash;
      saw_past_horizon |=
          f.at >= p.step_duration * static_cast<double>(p.horizon_steps);
    }
    for (const net::RatePhase& phase : p.traffic.schedule) {
      saw_zero_rate |= phase.rate == 0.0;
    }
  }
  EXPECT_TRUE(saw_partitions);
  EXPECT_TRUE(saw_faults);
  EXPECT_TRUE(saw_service);
  EXPECT_TRUE(saw_traffic);
  EXPECT_TRUE(saw_population);
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_zero_rate);
  EXPECT_TRUE(saw_past_horizon);
}

}  // namespace
}  // namespace fortress::scenario
