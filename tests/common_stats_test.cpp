#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace fortress {
namespace {

TEST(RunningStatsTest, EmptyPreconditions) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_THROW(s.mean(), ContractViolation);
  EXPECT_THROW(s.min(), ContractViolation);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_THROW(s.variance(), ContractViolation);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, n-1 = 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, MergeEqualsSequential) {
  RunningStats all, a, b;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.uniform01() * 10;
    all.add(x);
    if (i % 2 == 0) {
      a.add(x);
    } else {
      b.add(x);
    }
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);

  RunningStats target;
  target.merge(a);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 2.0);
}

TEST(ConfidenceIntervalTest, CoversTrueMeanApproximately) {
  // 95% CI should contain the true mean in ~95% of repetitions.
  int covered = 0;
  constexpr int kReps = 400;
  for (int rep = 0; rep < kReps; ++rep) {
    Rng rng(1000 + rep);
    RunningStats s;
    for (int i = 0; i < 200; ++i) s.add(rng.uniform01());
    ConfidenceInterval ci = normal_ci(s, 0.95);
    if (ci.contains(0.5)) ++covered;
  }
  double coverage = static_cast<double>(covered) / kReps;
  EXPECT_GT(coverage, 0.90);
  EXPECT_LE(coverage, 1.0);
}

TEST(ConfidenceIntervalTest, WiderAtHigherLevel) {
  RunningStats s;
  Rng rng(2);
  for (int i = 0; i < 100; ++i) s.add(rng.uniform01());
  EXPECT_LT(normal_ci(s, 0.90).width(), normal_ci(s, 0.95).width());
  EXPECT_LT(normal_ci(s, 0.95).width(), normal_ci(s, 0.99).width());
}

TEST(ConfidenceIntervalTest, LevelBucketsPinned) {
  // normal_ci buckets the level to the nearest supported z-score (the
  // adaptive campaign stopping rule depends on these widths): >= 0.989 ->
  // z99, >= 0.949 -> z95, below -> z90. Pin all three, and pin that an
  // off-grid level like 0.97 lands in the 95% bucket rather than anything
  // bespoke.
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  const double se = s.stderr_mean();
  constexpr double kZ90 = 1.6448536269514722;
  constexpr double kZ95 = 1.959963984540054;
  constexpr double kZ99 = 2.5758293035489004;
  EXPECT_DOUBLE_EQ(normal_ci(s, 0.90).width(), 2.0 * kZ90 * se);
  EXPECT_DOUBLE_EQ(normal_ci(s, 0.95).width(), 2.0 * kZ95 * se);
  EXPECT_DOUBLE_EQ(normal_ci(s, 0.99).width(), 2.0 * kZ99 * se);
  EXPECT_DOUBLE_EQ(normal_ci(s, 0.97).width(), 2.0 * kZ95 * se);   // bucketed
  EXPECT_DOUBLE_EQ(normal_ci(s, 0.949).width(), 2.0 * kZ95 * se);  // boundary
  EXPECT_DOUBLE_EQ(normal_ci(s, 0.5).width(), 2.0 * kZ90 * se);
}

TEST(ConfidenceIntervalTest, LevelOutOfRangeThrows) {
  RunningStats s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_THROW(normal_ci(s, 0.0), ContractViolation);
  EXPECT_THROW(normal_ci(s, 1.0), ContractViolation);
  EXPECT_THROW(normal_ci(s, -0.5), ContractViolation);
  EXPECT_THROW(normal_ci(s, 1.5), ContractViolation);
}

TEST(QuantileTest, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(QuantileTest, Extremes) {
  std::vector<double> data{5.0, 1.0, 9.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(data, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(data, 1.0), 9.0);
}

TEST(QuantileTest, Interpolates) {
  // Sorted: 0, 10. q=0.25 -> 2.5.
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.25), 2.5);
}

TEST(QuantileTest, SingleElement) {
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.9), 7.0);
}

TEST(QuantileTest, EmptyThrows) {
  EXPECT_THROW(quantile({}, 0.5), ContractViolation);
}

TEST(RunningStatsTest, FromRawRebuildsBitIdenticalState) {
  // The shard sidecar contract: round-tripping the raw Welford state must
  // reproduce the accumulator exactly, so merges of deserialized stats are
  // bit-identical to merges of the originals.
  RunningStats a;
  for (double x : {3.25, -1.5, 12.0, 7.75, 0.125}) a.add(x);
  const RunningStats b = RunningStats::from_raw(
      a.count(), a.raw_mean(), a.raw_m2(), a.raw_min(), a.raw_max());
  EXPECT_EQ(b.count(), a.count());
  EXPECT_EQ(b.mean(), a.mean());
  EXPECT_EQ(b.variance(), a.variance());
  EXPECT_EQ(b.min(), a.min());
  EXPECT_EQ(b.max(), a.max());

  // Continuing to accumulate after the round-trip stays bit-identical.
  RunningStats a2 = a, b2 = b;
  a2.add(42.5);
  b2.add(42.5);
  EXPECT_EQ(b2.mean(), a2.mean());
  EXPECT_EQ(b2.variance(), a2.variance());

  // Raw state is defined (all zero) even when empty.
  const RunningStats empty;
  EXPECT_EQ(empty.raw_mean(), 0.0);
  EXPECT_EQ(empty.raw_m2(), 0.0);
  const RunningStats rebuilt = RunningStats::from_raw(0, 0.0, 0.0, 0.0, 0.0);
  EXPECT_EQ(rebuilt.count(), 0u);
}

TEST(WilsonCiTest, MatchesClosedFormAndStaysInRange) {
  // 19/100 at 95%: check against the Wilson closed form directly.
  const ConfidenceInterval ci = wilson_ci(19, 100, 0.95);
  const double z = 1.959963985;
  const double p = 0.19, n = 100.0;
  const double denom = 1.0 + z * z / n;
  const double center = (p + z * z / (2 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom;
  EXPECT_NEAR(ci.lo, center - half, 1e-9);
  EXPECT_NEAR(ci.hi, center + half, 1e-9);
  EXPECT_EQ(ci.level, 0.95);

  // Proportions live in [0, 1]; the interval must too, at both extremes.
  const ConfidenceInterval zero = wilson_ci(0, 10, 0.95);
  EXPECT_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  const ConfidenceInterval all = wilson_ci(10, 10, 0.95);
  EXPECT_LT(all.lo, 1.0);
  EXPECT_NEAR(all.hi, 1.0, 1e-12);
  EXPECT_LE(all.hi, 1.0);
}

TEST(WilsonCiTest, ZeroSuccessWidthShrinksLikeZSquaredOverN) {
  // The rare-event property the compromise-probability stopping rule
  // leans on: at p-hat = 0 the width still shrinks as n grows (unlike the
  // Wald interval, which is stuck at zero width and no information).
  const double w100 = wilson_ci(0, 100).width();
  const double w1000 = wilson_ci(0, 1000).width();
  EXPECT_GT(w100, 0.0);
  EXPECT_LT(w1000, w100 / 5.0);
  // Symmetry: successes and failures mirror.
  EXPECT_NEAR(wilson_ci(0, 50).width(), wilson_ci(50, 50).width(), 1e-12);
}

TEST(WilsonCiTest, Preconditions) {
  EXPECT_THROW(wilson_ci(1, 0), ContractViolation);
  EXPECT_THROW(wilson_ci(5, 4), ContractViolation);
  EXPECT_THROW(wilson_ci(1, 10, 1.5), ContractViolation);
}

TEST(LatencyHistogramTest, AddBinRebuildsExactly) {
  LatencyHistogram a;
  for (double v : {0.02, 0.02, 0.5, 3.0, 700.0}) a.add(v);
  LatencyHistogram b;
  for (int bin = 0; bin < LatencyHistogram::kBins; ++bin) {
    if (a.bin(bin) > 0) b.add_bin(bin, a.bin(bin));
  }
  EXPECT_EQ(b.count(), a.count());
  EXPECT_EQ(b.fingerprint(), a.fingerprint());
  EXPECT_EQ(b.quantile(0.5), a.quantile(0.5));
  EXPECT_THROW(b.add_bin(-1, 1), ContractViolation);
  EXPECT_THROW(b.add_bin(LatencyHistogram::kBins, 1), ContractViolation);
}

TEST(LatencyHistogramTest, MergingAnEmptyHistogramChangesNothing) {
  LatencyHistogram h;
  for (double v : {0.005, 0.02, 0.5, 3.0, 700.0}) h.add(v);
  LatencyHistogram before = h;
  h.merge(LatencyHistogram{});
  EXPECT_EQ(h.count(), before.count());
  for (int bin = 0; bin < LatencyHistogram::kBins; ++bin) {
    EXPECT_EQ(h.bin(bin), before.bin(bin)) << "bin " << bin;
  }
  // And the other way round: an empty histogram takes the other's bins.
  LatencyHistogram empty;
  empty.merge(h);
  EXPECT_EQ(empty.count(), h.count());
  EXPECT_EQ(empty.fingerprint(), h.fingerprint());
}

TEST(LatencyHistogramTest, QuantileCiEmptyAndSingleBin) {
  const LatencyHistogram empty;
  const ConfidenceInterval none = empty.quantile_ci(0.5);
  EXPECT_EQ(none.lo, 0.0);
  EXPECT_EQ(none.hi, 0.0);

  // All mass in one bin: the rank band cannot leave it, so the interval
  // collapses to zero width at that bin's upper edge.
  LatencyHistogram h;
  h.add_bin(17, 1000);
  const ConfidenceInterval ci = h.quantile_ci(0.99);
  EXPECT_EQ(ci.lo, ci.hi);
  EXPECT_EQ(ci.lo, LatencyHistogram::bin_upper_edge(17));
}

TEST(LatencyHistogramTest, QuantileCiBandCoversPointEstimate) {
  // Mass spread over several bins with a small sample: the binomial rank
  // band spans bins, the interval has real width, and it brackets the
  // point quantile. More samples at the same shape tighten it.
  LatencyHistogram small;
  small.add_bin(10, 4);
  small.add_bin(20, 4);
  small.add_bin(30, 4);
  const ConfidenceInterval wide = small.quantile_ci(0.5);
  EXPECT_GT(wide.width(), 0.0);
  EXPECT_LE(wide.lo, small.quantile(0.5));
  EXPECT_GE(wide.hi, small.quantile(0.5));

  LatencyHistogram big;
  big.add_bin(10, 4000);
  big.add_bin(20, 4000);
  big.add_bin(30, 4000);
  EXPECT_LT(big.quantile_ci(0.5).width(), wide.width());

  // A band touching the overflow bin has no finite upper edge.
  LatencyHistogram tail;
  tail.add_bin(LatencyHistogram::kBins - 1, 8);
  EXPECT_EQ(tail.quantile_ci(0.99).hi,
            std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace fortress
