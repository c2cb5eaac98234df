#include "model/lifetime_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "common/stats.hpp"
#include "model/step_model.hpp"
#include "montecarlo/engine.hpp"

namespace fortress::model {
namespace {

AttackParams params(double alpha, double kappa = 0.5,
                    std::uint64_t chi = 1ull << 16) {
  AttackParams p;
  p.alpha = alpha;
  p.kappa = kappa;
  p.chi = chi;
  return p;
}

double mc_mean(const SystemShape& shape, const AttackParams& p,
               Obfuscation obf, Granularity gran, std::uint64_t trials,
               std::uint64_t seed = 7) {
  RunningStats stats;
  for (std::uint64_t t = 0; t < trials; ++t) {
    Rng rng = Rng::substream(seed, t);
    auto r = TrialKernel(shape, p, obf, gran).run(rng, 1ull << 40);
    EXPECT_FALSE(r.censored);
    stats.add(static_cast<double>(r.whole_steps));
  }
  return stats.mean();
}

TEST(LifetimeSimTest, RouteNames) {
  EXPECT_STREQ(to_string(CompromiseRoute::None), "none");
  EXPECT_STREQ(to_string(CompromiseRoute::SharedKey), "shared-key");
  EXPECT_STREQ(to_string(CompromiseRoute::AllProxies), "all-proxies");
}

TEST(LifetimeSimTest, CensoringReportsCapAndRouteNone) {
  Rng rng(1);
  auto r = TrialKernel(SystemShape::s1(), params(1e-5), Obfuscation::Proactive,
                       Granularity::Step)
               .run(rng, /*max_steps=*/1);
  // With EL ~ 1e5 a 1-step cap censors essentially always.
  EXPECT_TRUE(r.censored);
  EXPECT_EQ(r.whole_steps, 1u);
  EXPECT_EQ(r.route, CompromiseRoute::None);
}

TEST(LifetimeSimTest, S1PoStepMatchesClosedForm) {
  auto p = params(0.01);
  double mean = mc_mean(SystemShape::s1(), p, Obfuscation::Proactive,
                        Granularity::Step, 40000);
  EXPECT_NEAR(mean / expected_lifetime_po(SystemShape::s1(), p), 1.0, 0.03);
}

TEST(LifetimeSimTest, S0PoStepMatchesClosedForm) {
  auto p = params(0.02);
  double mean = mc_mean(SystemShape::s0(), p, Obfuscation::Proactive,
                        Granularity::Step, 40000);
  EXPECT_NEAR(mean / expected_lifetime_po(SystemShape::s0(), p), 1.0, 0.05);
}

TEST(LifetimeSimTest, S2PoStepMatchesClosedForm) {
  auto p = params(0.01, 0.7);
  double mean = mc_mean(SystemShape::s2(), p, Obfuscation::Proactive,
                        Granularity::Step, 40000);
  EXPECT_NEAR(mean / expected_lifetime_po(SystemShape::s2(), p), 1.0, 0.03);
}

TEST(LifetimeSimTest, NaiveLoopAgreesWithFastForward) {
  // The literal per-step Bernoulli loop (at the default period 1) and the
  // geometric fast-forward must produce statistically identical lifetimes.
  auto p = params(0.05, 0.5);
  ASSERT_EQ(p.period, 1u);
  for (auto shape : {SystemShape::s0(), SystemShape::s1(), SystemShape::s2()}) {
    RunningStats naive;
    for (std::uint64_t t = 0; t < 20000; ++t) {
      Rng rng = Rng::substream(100, t);
      auto r = simulate_lifetime_po_period_naive(shape, p, rng, 1ull << 30);
      naive.add(static_cast<double>(r.whole_steps));
    }
    double fast = mc_mean(shape, p, Obfuscation::Proactive, Granularity::Step,
                          20000, 200);
    EXPECT_NEAR(naive.mean() / fast, 1.0, 0.08)
        << to_string(shape.kind);
  }
}

TEST(LifetimeSimTest, S1SoMatchesClosedForm) {
  auto p = params(0.01);
  double mean = mc_mean(SystemShape::s1(), p, Obfuscation::StartupOnly,
                        Granularity::Step, 60000);
  EXPECT_NEAR(mean / expected_lifetime_s1_so(p), 1.0, 0.03);
}

TEST(LifetimeSimTest, S0SoMatchesClosedForm) {
  auto p = params(0.01);
  double mean = mc_mean(SystemShape::s0(), p, Obfuscation::StartupOnly,
                        Granularity::Step, 60000);
  EXPECT_NEAR(mean / expected_lifetime_s0_so(SystemShape::s0(), p), 1.0, 0.04);
}

TEST(LifetimeSimTest, SoIsGranularityInvariant) {
  // SO trials are position-based; Step and Probe must give identical draws
  // for identical substreams.
  auto p = params(0.005);
  for (std::uint64_t t = 0; t < 200; ++t) {
    Rng r1 = Rng::substream(5, t);
    Rng r2 = Rng::substream(5, t);
    auto a = TrialKernel(SystemShape::s2(), p, Obfuscation::StartupOnly,
                         Granularity::Step)
                 .run(r1, 1ull << 40);
    auto b = TrialKernel(SystemShape::s2(), p, Obfuscation::StartupOnly,
                         Granularity::Probe)
                 .run(r2, 1ull << 40);
    EXPECT_EQ(a.whole_steps, b.whole_steps);
    EXPECT_EQ(a.route, b.route);
  }
}

TEST(LifetimeSimTest, S1ProbeGranularityMatchesOmegaOverChi)
{
  // For S1PO the probe model's per-step probability is exactly omega/chi.
  auto p = params(0.01);
  double a_eff = static_cast<double>(p.omega()) / static_cast<double>(p.chi);
  double expected_el = (1.0 - a_eff) / a_eff;
  double mean = mc_mean(SystemShape::s1(), p, Obfuscation::Proactive,
                        Granularity::Probe, 40000);
  EXPECT_NEAR(mean / expected_el, 1.0, 0.03);
}

TEST(LifetimeSimTest, S2ProbeModelWeakerThanStepModelButAboveS1) {
  // The probe-granular launch-pad rule charges route 2 only (1-f*) of a full
  // alpha, so S2PO EL(probe) >= EL(step); both must still beat S1PO at
  // kappa = 0.5.
  auto p = params(0.01, 0.5);
  double step = mc_mean(SystemShape::s2(), p, Obfuscation::Proactive,
                        Granularity::Step, 30000);
  double probe = mc_mean(SystemShape::s2(), p, Obfuscation::Proactive,
                         Granularity::Probe, 30000);
  double s1 = expected_lifetime_po(SystemShape::s1(), p);
  EXPECT_GT(probe, step * 0.95);  // probe model is no more pessimistic
  EXPECT_GT(step, s1 * 0.9);
  EXPECT_GT(probe, s1 * 0.9);
}

TEST(LifetimeSimTest, S2SoRoutesRespondToKappa) {
  // With kappa = 1 indirect compromise dominates; with kappa = 0 the server
  // can only fall after a proxy falls (or all proxies fall).
  auto count_routes = [&](double kappa) {
    auto p = params(0.01, kappa);
    std::map<CompromiseRoute, int> counts;
    for (std::uint64_t t = 0; t < 4000; ++t) {
      Rng rng = Rng::substream(11, t);
      auto r = TrialKernel(SystemShape::s2(), p, Obfuscation::StartupOnly,
                           Granularity::Step)
                   .run(rng, 1ull << 40);
      ++counts[r.route];
    }
    return counts;
  };
  auto high = count_routes(1.0);
  // With kappa = 1 the server key is reached by step ceil(V/omega); it is
  // classified indirect when found before the first proxy falls (~1/4 of
  // trials) and via-proxy after; server routes together dominate.
  EXPECT_GT(high[CompromiseRoute::ServerIndirect], 600);
  EXPECT_GT(high[CompromiseRoute::ServerIndirect] +
                high[CompromiseRoute::ServerViaProxy],
            2500);
  auto zero = count_routes(0.0);
  EXPECT_EQ(zero[CompromiseRoute::ServerIndirect], 0);
  EXPECT_GT(zero[CompromiseRoute::ServerViaProxy] +
                zero[CompromiseRoute::AllProxies],
            3999);
}

TEST(LifetimeSimTest, S2SoKappaZeroSlowerThanKappaOne) {
  auto p1 = params(0.01, 1.0);
  auto p0 = params(0.01, 0.0);
  double el1 = mc_mean(SystemShape::s2(), p1, Obfuscation::StartupOnly,
                       Granularity::Step, 20000);
  double el0 = mc_mean(SystemShape::s2(), p0, Obfuscation::StartupOnly,
                       Granularity::Step, 20000);
  EXPECT_GT(el0, el1);
}

TEST(LifetimeSimTest, DeterministicGivenSameStream) {
  auto p = params(0.01, 0.3);
  for (auto obf : {Obfuscation::StartupOnly, Obfuscation::Proactive}) {
    for (auto gran : {Granularity::Step, Granularity::Probe}) {
      Rng r1(99), r2(99);
      auto a = TrialKernel(SystemShape::s2(), p, obf, gran).run(r1, 1u << 20);
      auto b = TrialKernel(SystemShape::s2(), p, obf, gran).run(r2, 1u << 20);
      EXPECT_EQ(a.whole_steps, b.whole_steps);
      EXPECT_EQ(a.route, b.route);
    }
  }
}

// Property sweep: for every system/policy the EL decreases as alpha grows.
struct MonotoneCase {
  SystemKind kind;
  Obfuscation obf;
};

class AlphaMonotoneSweep : public ::testing::TestWithParam<MonotoneCase> {};

TEST_P(AlphaMonotoneSweep, ElDecreasesWithAlpha) {
  auto c = GetParam();
  SystemShape shape = c.kind == SystemKind::S0 ? SystemShape::s0()
                      : c.kind == SystemKind::S1 ? SystemShape::s1()
                                                 : SystemShape::s2();
  double prev = std::numeric_limits<double>::infinity();
  for (double a : {0.002, 0.01, 0.05}) {
    double el = mc_mean(shape, params(a), c.obf, Granularity::Step, 15000);
    EXPECT_LT(el, prev) << to_string(c.kind) << " alpha=" << a;
    prev = el;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, AlphaMonotoneSweep,
    ::testing::Values(MonotoneCase{SystemKind::S0, Obfuscation::StartupOnly},
                      MonotoneCase{SystemKind::S1, Obfuscation::StartupOnly},
                      MonotoneCase{SystemKind::S2, Obfuscation::StartupOnly},
                      MonotoneCase{SystemKind::S0, Obfuscation::Proactive},
                      MonotoneCase{SystemKind::S1, Obfuscation::Proactive},
                      MonotoneCase{SystemKind::S2, Obfuscation::Proactive}));

}  // namespace
}  // namespace fortress::model
