#include "model/params.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace fortress::model {
namespace {

TEST(ParamsTest, Labels) {
  EXPECT_EQ(system_label(SystemKind::S0, Obfuscation::StartupOnly), "S0SO");
  EXPECT_EQ(system_label(SystemKind::S1, Obfuscation::Proactive), "S1PO");
  EXPECT_EQ(system_label(SystemKind::S2, Obfuscation::Proactive), "S2PO");
}

TEST(ParamsTest, DefaultAttackParamsValid) {
  AttackParams p;
  p.validate();  // must not throw
}

TEST(ParamsTest, ValidationRejectsBadAlpha) {
  AttackParams p;
  p.alpha = 0.0;
  EXPECT_THROW(p.validate(), ContractViolation);
  p.alpha = 1.5;
  EXPECT_THROW(p.validate(), ContractViolation);
}

TEST(ParamsTest, ValidationRejectsBadKappa) {
  AttackParams p;
  p.kappa = -0.1;
  EXPECT_THROW(p.validate(), ContractViolation);
  p.kappa = 1.1;
  EXPECT_THROW(p.validate(), ContractViolation);
}

TEST(ParamsTest, ValidationRejectsDegenerateChiAndPeriod) {
  AttackParams p;
  p.chi = 1;
  EXPECT_THROW(p.validate(), ContractViolation);
  p.chi = 1 << 16;
  p.period = 0;
  EXPECT_THROW(p.validate(), ContractViolation);
}

TEST(ParamsTest, OmegaFromAlphaChi) {
  AttackParams p;
  p.chi = 1 << 16;
  p.alpha = 0.01;
  EXPECT_EQ(p.omega(), 655u);  // round(0.01 * 65536)
  p.alpha = 1e-5;
  EXPECT_EQ(p.omega(), 1u);  // round(0.65536) -> 1 (floored at 1)
}

TEST(ParamsTest, OmegaNeverZeroOrAboveChi) {
  AttackParams p;
  p.chi = 64;
  p.alpha = 1e-9;
  EXPECT_EQ(p.omega(), 1u);
  p.alpha = 1.0;
  EXPECT_EQ(p.omega(), 64u);
}

TEST(ShapeTest, PaperDefaults) {
  SystemShape s0 = SystemShape::s0();
  EXPECT_EQ(s0.kind, SystemKind::S0);
  EXPECT_EQ(s0.n_servers, 4);
  EXPECT_EQ(s0.smr_compromise, 2);
  s0.validate();

  SystemShape s1 = SystemShape::s1();
  EXPECT_EQ(s1.n_servers, 3);
  EXPECT_EQ(s1.n_proxies, 0);
  s1.validate();

  SystemShape s2 = SystemShape::s2();
  EXPECT_EQ(s2.n_proxies, 3);
  s2.validate();

  SystemShape s2big = SystemShape::s2(5);
  EXPECT_EQ(s2big.n_proxies, 5);
  s2big.validate();
}

TEST(ShapeTest, ValidationCatchesInconsistencies) {
  SystemShape bad = SystemShape::s0();
  bad.n_proxies = 2;  // S0 has no proxy tier
  EXPECT_THROW(bad.validate(), ContractViolation);

  SystemShape bad2 = SystemShape::s2();
  bad2.n_proxies = 0;
  EXPECT_THROW(bad2.validate(), ContractViolation);

  SystemShape bad3 = SystemShape::s0();
  bad3.smr_compromise = 5;  // exceeds n_servers
  EXPECT_THROW(bad3.validate(), ContractViolation);
}

}  // namespace
}  // namespace fortress::model
