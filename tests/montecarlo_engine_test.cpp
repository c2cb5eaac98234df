#include "montecarlo/engine.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "common/check.hpp"
#include "model/step_model.hpp"

namespace fortress::montecarlo {
namespace {

using model::AttackParams;
using model::Granularity;
using model::Obfuscation;
using model::SystemShape;

AttackParams params(double alpha, double kappa = 0.5) {
  AttackParams p;
  p.alpha = alpha;
  p.kappa = kappa;
  return p;
}

McConfig config(std::uint64_t trials, unsigned threads = 1) {
  McConfig cfg;
  cfg.trials = trials;
  cfg.seed = 11;
  cfg.threads = threads;
  cfg.max_steps = 1ull << 40;
  return cfg;
}

TEST(EngineTest, EstimatesS1PoLifetime) {
  auto r = estimate_lifetime(SystemShape::s1(), params(0.01),
                             Obfuscation::Proactive, Granularity::Step,
                             config(50000));
  EXPECT_EQ(r.stats.count(), 50000u);
  EXPECT_EQ(r.censored, 0u);
  EXPECT_NEAR(r.expected_lifetime(), 99.0, 2.0);
  EXPECT_TRUE(r.ci.contains(99.0));
}

TEST(EngineTest, ResultIndependentOfThreadCount) {
  auto seq = estimate_lifetime(SystemShape::s2(), params(0.01),
                               Obfuscation::Proactive, Granularity::Step,
                               config(8000, 1));
  auto par = estimate_lifetime(SystemShape::s2(), params(0.01),
                               Obfuscation::Proactive, Granularity::Step,
                               config(8000, 4));
  // Identical trials (same substreams), identical reduction up to fp
  // associativity in the merge.
  EXPECT_EQ(seq.stats.count(), par.stats.count());
  EXPECT_NEAR(seq.expected_lifetime(), par.expected_lifetime(), 1e-9);
  EXPECT_EQ(seq.censored, par.censored);
  EXPECT_EQ(seq.route_counts, par.route_counts);
}

TEST(EngineTest, ResultBitIdenticalAcrossThreadCounts) {
  // Stronger than statistical agreement: per-trial substreams plus the
  // fixed chunk grid and chunk-index-order reduction make every derived
  // quantity BIT-identical for any thread count, including the
  // floating-point accumulators. Trials chosen to not divide the chunk size
  // so the ragged final chunk is covered too.
  for (auto [obf, gran] :
       {std::pair{Obfuscation::Proactive, Granularity::Step},
        std::pair{Obfuscation::Proactive, Granularity::Probe},
        std::pair{Obfuscation::StartupOnly, Granularity::Step}}) {
    auto t1 = estimate_lifetime(SystemShape::s2(), params(0.01), obf, gran,
                                config(10007, 1));
    auto t3 = estimate_lifetime(SystemShape::s2(), params(0.01), obf, gran,
                                config(10007, 3));
    auto t8 = estimate_lifetime(SystemShape::s2(), params(0.01), obf, gran,
                                config(10007, 8));
    for (const auto* r : {&t3, &t8}) {
      EXPECT_EQ(t1.stats.count(), r->stats.count());
      EXPECT_EQ(t1.stats.mean(), r->stats.mean());
      EXPECT_EQ(t1.stats.variance(), r->stats.variance());
      EXPECT_EQ(t1.stats.min(), r->stats.min());
      EXPECT_EQ(t1.stats.max(), r->stats.max());
      EXPECT_EQ(t1.ci.lo, r->ci.lo);
      EXPECT_EQ(t1.ci.hi, r->ci.hi);
      EXPECT_EQ(t1.censored, r->censored);
      EXPECT_EQ(t1.route_counts, r->route_counts);
    }
  }
}

TEST(EngineTest, RouteFractionSkipsNone) {
  McResult r;
  r.route_counts[model::CompromiseRoute::None] = 100;
  r.route_counts[model::CompromiseRoute::ServerIndirect] = 30;
  r.route_counts[model::CompromiseRoute::AllProxies] = 10;
  // None is not a compromise: fractions are over the 40 compromised trials
  // and None itself reports 0.
  EXPECT_DOUBLE_EQ(r.route_fraction(model::CompromiseRoute::None), 0.0);
  EXPECT_DOUBLE_EQ(r.route_fraction(model::CompromiseRoute::ServerIndirect),
                   0.75);
  EXPECT_DOUBLE_EQ(r.route_fraction(model::CompromiseRoute::AllProxies), 0.25);
}

TEST(EngineTest, SeedChangesSamplesButNotDistribution) {
  McConfig a = config(20000);
  McConfig b = config(20000);
  b.seed = 999;
  auto ra = estimate_lifetime(SystemShape::s1(), params(0.01),
                              Obfuscation::Proactive, Granularity::Step, a);
  auto rb = estimate_lifetime(SystemShape::s1(), params(0.01),
                              Obfuscation::Proactive, Granularity::Step, b);
  EXPECT_NE(ra.expected_lifetime(), rb.expected_lifetime());
  EXPECT_NEAR(ra.expected_lifetime(), rb.expected_lifetime(),
              ra.ci.width() + rb.ci.width());
}

TEST(EngineTest, CensoringCountsReported) {
  McConfig cfg = config(500);
  cfg.max_steps = 10;  // S1PO EL ~ 99: most trials censor
  auto r = estimate_lifetime(SystemShape::s1(), params(0.01),
                             Obfuscation::Proactive, Granularity::Step, cfg);
  EXPECT_GT(r.censored, 400u);
  EXPECT_TRUE(r.any_censored());
  EXPECT_GT(r.route_counts[model::CompromiseRoute::None], 0u);
}

TEST(EngineTest, RouteAttributionForS2) {
  auto r = estimate_lifetime(SystemShape::s2(), params(0.01, 1.0),
                             Obfuscation::Proactive, Granularity::Step,
                             config(30000));
  // With kappa = 1, the indirect route dominates (~alpha vs ~3 alpha^2).
  EXPECT_GT(r.route_fraction(model::CompromiseRoute::ServerIndirect), 0.9);
  double total =
      r.route_fraction(model::CompromiseRoute::ServerIndirect) +
      r.route_fraction(model::CompromiseRoute::ServerViaProxy) +
      r.route_fraction(model::CompromiseRoute::AllProxies);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(EngineTest, RouteFractionEmptyIsZero) {
  McResult empty;
  EXPECT_DOUBLE_EQ(
      empty.route_fraction(model::CompromiseRoute::ServerIndirect), 0.0);
}

TEST(EngineTest, TooFewTrialsViolatesContract) {
  McConfig cfg = config(1);
  EXPECT_THROW(estimate_lifetime(SystemShape::s1(), params(0.01),
                                 Obfuscation::Proactive, Granularity::Step,
                                 cfg),
               ContractViolation);
}

TEST(EngineTest, ThreadsClampedToTrials) {
  McConfig cfg = config(3, 16);
  auto r = estimate_lifetime(SystemShape::s1(), params(0.1),
                             Obfuscation::Proactive, Granularity::Step, cfg);
  EXPECT_EQ(r.stats.count(), 3u);
}

TEST(EngineTest, SoTrialsAreCheapEvenForHugeLifetimes) {
  // SO trials are O(1): even at alpha = 1e-5 (EL ~ 3e4 steps) a large batch
  // must complete quickly and uncensored.
  auto r = estimate_lifetime(SystemShape::s0(), params(1e-5),
                             Obfuscation::StartupOnly, Granularity::Step,
                             config(20000));
  EXPECT_EQ(r.censored, 0u);
  EXPECT_GT(r.expected_lifetime(), 1000.0);
}

}  // namespace
}  // namespace fortress::montecarlo
