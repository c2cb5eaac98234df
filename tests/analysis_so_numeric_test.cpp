#include "analysis/so_numeric.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "model/step_model.hpp"
#include "montecarlo/engine.hpp"

namespace fortress::analysis {
namespace {

using model::AttackParams;
using model::SystemShape;

AttackParams params(double alpha, double kappa,
                    std::uint64_t chi = 1ull << 16) {
  AttackParams p;
  p.alpha = alpha;
  p.kappa = kappa;
  p.chi = chi;
  return p;
}

TEST(S2SoNumericTest, RequiresS2Shape) {
  EXPECT_THROW(
      expected_lifetime_s2_so_numeric(SystemShape::s1(), params(0.01, 0.5)),
      ContractViolation);
}

TEST(S2SoNumericTest, KappaOneMatchesS1SoApproximately) {
  // With kappa = 1 the server channel is a plain single-key SO channel and
  // it dominates the lifetime (servers fall before all np proxies with
  // overwhelming probability), so EL(S2SO) ~ EL(S1SO) from below... in fact
  // compromise = min(server, all-proxies), so EL is slightly SMALLER.
  auto p = params(0.01, 1.0);
  double s2 = expected_lifetime_s2_so_numeric(SystemShape::s2(), p);
  double s1 = model::expected_lifetime_s1_so(p);
  EXPECT_LT(s2, s1);
  EXPECT_GT(s2, 0.8 * s1);
}

TEST(S2SoNumericTest, KappaZeroStillFallsViaProxies) {
  // With kappa = 0 the server can only fall after a pad exists; the system
  // still falls by sweep completion (all proxies at the latest).
  auto p = params(0.01, 0.0);
  double el = expected_lifetime_s2_so_numeric(SystemShape::s2(), p);
  EXPECT_GT(el, 0.0);
  // The full sweep takes chi/omega = 100 steps; EL must stay below that.
  EXPECT_LT(el, 101.0);
}

TEST(S2SoNumericTest, MonotoneDecreasingInKappa) {
  double prev = 1e300;
  for (double kappa : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    double el = expected_lifetime_s2_so_numeric(SystemShape::s2(),
                                                params(0.005, kappa));
    EXPECT_LT(el, prev) << "kappa=" << kappa;
    prev = el;
  }
}

TEST(S2SoNumericTest, ProxyCountTradesPadSpeedAgainstSweepLength) {
  // At kappa = 0 two routes compete as np grows: the pad appears sooner
  // (min of more uniform draws ~ chi/(np+1), helping the attacker) but the
  // all-proxies sweep finishes later (max ~ chi*np/(np+1), hurting him).
  // With alpha = 0.01 the compromise is min(server-via-pad, all-proxies):
  // np = 2 is bounded by the sweep (~2/3 chi), np = 5 by the pad route
  // (~1/6 chi + 1/2 chi), so np = 5 survives slightly LONGER here — the
  // benefit of extra proxies is not redundancy (see paper_report's
  // ablation_proxies claim).
  auto p = params(0.01, 0.0);
  double np2 = expected_lifetime_s2_so_numeric(SystemShape::s2(2), p);
  double np5 = expected_lifetime_s2_so_numeric(SystemShape::s2(5), p);
  EXPECT_LT(np2, np5);
  EXPECT_NEAR(np2, np5, 0.15 * np5);  // and the difference is small
}

// The decisive check: quadrature agrees with Monte-Carlo (whose SO trials
// are exact order-statistic draws) within the 99% confidence interval.
struct NumericVsMcCase {
  double alpha;
  double kappa;
};

class S2SoNumericVsMc : public ::testing::TestWithParam<NumericVsMcCase> {};

TEST_P(S2SoNumericVsMc, AgreesWithinCi) {
  auto c = GetParam();
  auto p = params(c.alpha, c.kappa);
  double numeric = expected_lifetime_s2_so_numeric(SystemShape::s2(), p);

  montecarlo::McConfig cfg;
  cfg.trials = 120000;
  cfg.seed = 31337;
  cfg.threads = 4;
  cfg.ci_level = 0.99;
  cfg.max_steps = 1ull << 40;
  auto mc = montecarlo::estimate_lifetime(SystemShape::s2(), p,
                                          model::Obfuscation::StartupOnly,
                                          model::Granularity::Step, cfg);
  EXPECT_EQ(mc.censored, 0u);
  double tol = std::max(mc.ci.width() / 2.0, 0.01 * numeric);
  EXPECT_NEAR(mc.expected_lifetime(), numeric, tol)
      << "alpha=" << c.alpha << " kappa=" << c.kappa;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, S2SoNumericVsMc,
    ::testing::Values(NumericVsMcCase{0.01, 0.0}, NumericVsMcCase{0.01, 0.3},
                      NumericVsMcCase{0.01, 1.0}, NumericVsMcCase{0.001, 0.5},
                      NumericVsMcCase{0.0001, 0.5},
                      NumericVsMcCase{0.001, 0.9}));

}  // namespace
}  // namespace fortress::analysis
