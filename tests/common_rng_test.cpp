#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/check.hpp"

namespace fortress {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(1234);
  SplitMix64 b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro256Test, Deterministic) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(RngTest, BelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, BelowZeroViolatesContract) {
  Rng rng(7);
  EXPECT_THROW(rng.below(0), ContractViolation);
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.below(kBuckets)];
  }
  // Expected 10000 per bucket; allow 5% deviation (far beyond 5-sigma).
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.05);
  }
}

TEST(RngTest, Uniform01InHalfOpenInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(RngTest, GeometricMeanMatchesTheory) {
  Rng rng(17);
  const double p = 0.01;
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(rng.geometric(p));
  }
  double mean = sum / kSamples;
  // E[failures before success] = (1-p)/p = 99.
  EXPECT_NEAR(mean, (1.0 - p) / p, 2.0);
}

TEST(RngTest, GeometricTinyPDoesNotLoopForever) {
  Rng rng(19);
  // With p = 1e-12 inversion sampling must return instantly.
  std::uint64_t g = rng.geometric(1e-12);
  EXPECT_GT(g, 0u);
}

TEST(RngTest, GeometricPOneIsZero) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(RngTest, GeometricInvalidPThrows) {
  Rng rng(23);
  EXPECT_THROW(rng.geometric(0.0), ContractViolation);
  EXPECT_THROW(rng.geometric(1.5), ContractViolation);
}

TEST(RngTest, ExponentialMeanMatchesTheory) {
  Rng rng(29);
  const double lambda = 0.5;
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(lambda);
  EXPECT_NEAR(sum / kSamples, 1.0 / lambda, 0.05);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (auto v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(37);
  auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, SampleWithoutReplacementKZero) {
  Rng rng(37);
  EXPECT_TRUE(rng.sample_without_replacement(10, 0).empty());
}

TEST(RngTest, SampleWithoutReplacementUniformMarginal) {
  // Each element of [0, 10) should appear in a 3-sample with p = 0.3.
  Rng rng(41);
  std::vector<int> counts(10, 0);
  constexpr int kTrials = 50000;
  for (int t = 0; t < kTrials; ++t) {
    for (auto v : rng.sample_without_replacement(10, 3)) ++counts[v];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kTrials, 0.3, 0.02);
  }
}

TEST(RngTest, SubstreamsAreDecorrelated) {
  Rng a = Rng::substream(100, 0);
  Rng b = Rng::substream(100, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.bits() == b.bits()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, SubstreamIsDeterministic) {
  Rng a = Rng::substream(100, 5);
  Rng b = Rng::substream(100, 5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.bits(), b.bits());
}

TEST(RngTest, ResetSubstreamMatchesSubstream) {
  // In-place re-pointing must be bit-identical to constructing the
  // substream — the Monte-Carlo engine relies on this for determinism.
  Rng reused(999);
  reused.bits();  // disturb the state; reset must not care
  for (std::uint64_t index : {0ull, 1ull, 7ull, 1ull << 40}) {
    Rng fresh = Rng::substream(2026, index);
    reused.reset_substream(2026, index);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(fresh.bits(), reused.bits());
  }
}

TEST(RngTest, SampleWithoutReplacementIntoMatchesVectorVariant) {
  // Same draw sequence -> same sample, so the allocation-free kernel path
  // is stream-compatible with the reference implementation.
  for (std::uint64_t k : {0ull, 1ull, 5ull, 16ull}) {
    Rng a(123);
    Rng b(123);
    auto expect = a.sample_without_replacement(40, k);
    std::array<std::uint64_t, 16> got{};
    b.sample_without_replacement_into(40, k, got.data());
    for (std::uint64_t i = 0; i < k; ++i) EXPECT_EQ(got[i], expect[i]);
    // Both generators must end in the same state.
    EXPECT_EQ(a.bits(), b.bits());
  }
}

}  // namespace
}  // namespace fortress
