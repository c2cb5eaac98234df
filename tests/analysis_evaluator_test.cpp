#include "analysis/evaluator.hpp"

#include <gtest/gtest.h>

#include "analysis/markov.hpp"
#include "model/step_model.hpp"
#include "montecarlo/engine.hpp"

namespace fortress::analysis {
namespace {

using model::AttackParams;
using model::Granularity;
using model::Obfuscation;
using model::SystemKind;
using model::SystemShape;

AttackParams params(double alpha, double kappa = 0.5) {
  AttackParams p;
  p.alpha = alpha;
  p.kappa = kappa;
  return p;
}

TEST(EvaluatorTest, S2SoUsesNumericIntegration) {
  auto r = analytic_lifetime(SystemShape::s2(), params(0.01),
                             Obfuscation::StartupOnly);
  EXPECT_EQ(r.method, Method::NumericIntegration);
  EXPECT_GT(r.expected_lifetime, 0.0);
}

TEST(EvaluatorTest, PoPeriodOneUsesClosedForm) {
  auto r = analytic_lifetime(SystemShape::s2(), params(0.01),
                             Obfuscation::Proactive);
  EXPECT_EQ(r.method, Method::ClosedForm);
  EXPECT_NEAR(r.expected_lifetime,
              model::expected_lifetime_po(SystemShape::s2(), params(0.01)),
              1e-12);
}

TEST(EvaluatorTest, PoLongerPeriodUsesMarkov) {
  auto p = params(0.01);
  p.period = 4;
  auto r = analytic_lifetime(SystemShape::s0(), p, Obfuscation::Proactive);
  EXPECT_EQ(r.method, Method::MarkovChain);
  EXPECT_NEAR(r.expected_lifetime, expected_lifetime_markov(SystemShape::s0(), p),
              1e-12);
}

TEST(EvaluatorTest, SoUsesClosedForms) {
  auto r1 = analytic_lifetime(SystemShape::s1(), params(0.01),
                              Obfuscation::StartupOnly);
  EXPECT_EQ(r1.method, Method::ClosedForm);
  EXPECT_NEAR(r1.expected_lifetime, model::expected_lifetime_s1_so(params(0.01)),
              1e-12);

  auto r0 = analytic_lifetime(SystemShape::s0(), params(0.01),
                              Obfuscation::StartupOnly);
  EXPECT_NEAR(r0.expected_lifetime,
              model::expected_lifetime_s0_so(SystemShape::s0(), params(0.01)),
              1e-12);
}

TEST(EvaluatorTest, MethodNames) {
  EXPECT_STREQ(to_string(Method::ClosedForm), "closed-form");
  EXPECT_STREQ(to_string(Method::MarkovChain), "markov-chain");
  EXPECT_STREQ(to_string(Method::NumericIntegration), "numeric-integration");
}

// Cross-validation: the analytic evaluator agrees with Monte-Carlo within
// the 99% confidence interval for every analytically solvable combination.
struct CrossCase {
  SystemKind kind;
  Obfuscation obf;
  double alpha;
};

class AnalyticVsMcSweep : public ::testing::TestWithParam<CrossCase> {};

TEST_P(AnalyticVsMcSweep, McCiCoversAnalyticValue) {
  const auto c = GetParam();
  SystemShape shape = c.kind == SystemKind::S0 ? SystemShape::s0()
                      : c.kind == SystemKind::S1 ? SystemShape::s1()
                                                 : SystemShape::s2();
  auto p = params(c.alpha, 0.5);
  auto analytic = analytic_lifetime(shape, p, c.obf);

  montecarlo::McConfig cfg;
  cfg.trials = 60000;
  cfg.seed = 77;
  cfg.ci_level = 0.99;
  cfg.max_steps = 1ull << 40;
  auto mc = montecarlo::estimate_lifetime(shape, p, c.obf, Granularity::Step,
                                          cfg);
  EXPECT_EQ(mc.censored, 0u);
  // Allow the tiny quantization gap between alpha and omega/chi by widening
  // the tolerance to max(CI half-width, 1.5% relative).
  double tol = std::max(mc.ci.width() / 2.0,
                        0.015 * analytic.expected_lifetime);
  EXPECT_NEAR(mc.expected_lifetime(), analytic.expected_lifetime, tol)
      << model::system_label(c.kind, c.obf) << " alpha=" << c.alpha;
}

INSTANTIATE_TEST_SUITE_P(
    Combos, AnalyticVsMcSweep,
    ::testing::Values(CrossCase{SystemKind::S0, Obfuscation::Proactive, 0.01},
                      CrossCase{SystemKind::S1, Obfuscation::Proactive, 0.01},
                      CrossCase{SystemKind::S2, Obfuscation::Proactive, 0.01},
                      CrossCase{SystemKind::S0, Obfuscation::StartupOnly, 0.01},
                      CrossCase{SystemKind::S1, Obfuscation::StartupOnly, 0.01},
                      CrossCase{SystemKind::S0, Obfuscation::Proactive, 0.002},
                      CrossCase{SystemKind::S1, Obfuscation::StartupOnly, 0.002}));

}  // namespace
}  // namespace fortress::analysis
