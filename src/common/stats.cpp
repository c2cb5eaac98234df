#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace fortress {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  FORTRESS_EXPECTS(n_ > 0);
  return mean_;
}

double RunningStats::variance() const {
  FORTRESS_EXPECTS(n_ > 1);
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const {
  return stddev() / std::sqrt(static_cast<double>(n_));
}

double RunningStats::min() const {
  FORTRESS_EXPECTS(n_ > 0);
  return min_;
}

double RunningStats::max() const {
  FORTRESS_EXPECTS(n_ > 0);
  return max_;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  std::uint64_t n = n_ + other.n_;
  double delta = other.mean_ - mean_;
  double mean = mean_ + delta * static_cast<double>(other.n_) /
                            static_cast<double>(n);
  double m2 = m2_ + other.m2_ +
              delta * delta * static_cast<double>(n_) *
                  static_cast<double>(other.n_) / static_cast<double>(n);
  n_ = n;
  mean_ = mean;
  m2_ = m2;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

RunningStats RunningStats::from_raw(std::uint64_t n, double mean, double m2,
                                    double min, double max) {
  RunningStats s;
  s.n_ = n;
  s.mean_ = mean;
  s.m2_ = m2;
  s.min_ = min;
  s.max_ = max;
  return s;
}

namespace {

// Bucketed z-score shared by every normal-approximation interval here (see
// the normal_ci doc comment for the buckets).
double z_for_level(double level) {
  FORTRESS_EXPECTS(level > 0.0 && level < 1.0);
  if (level >= 0.989) return 2.5758293035489004;  // 99%
  if (level >= 0.949) return 1.959963984540054;   // 95%
  return 1.6448536269514722;                      // 90%
}

}  // namespace

ConfidenceInterval normal_ci(const RunningStats& stats, double level) {
  FORTRESS_EXPECTS(stats.count() > 1);
  const double z = z_for_level(level);
  double half = z * stats.stderr_mean();
  return ConfidenceInterval{stats.mean() - half, stats.mean() + half, level};
}

ConfidenceInterval wilson_ci(std::uint64_t successes, std::uint64_t trials,
                             double level) {
  FORTRESS_EXPECTS(trials > 0);
  FORTRESS_EXPECTS(successes <= trials);
  const double z = z_for_level(level);
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      (z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))) / denom;
  return ConfidenceInterval{std::max(0.0, center - half),
                            std::min(1.0, center + half), level};
}

double quantile(std::vector<double> data, double q) {
  FORTRESS_EXPECTS(!data.empty());
  FORTRESS_EXPECTS(q >= 0.0 && q <= 1.0);
  std::sort(data.begin(), data.end());
  if (data.size() == 1) return data[0];
  double pos = q * static_cast<double>(data.size() - 1);
  std::size_t i = static_cast<std::size_t>(pos);
  double frac = pos - static_cast<double>(i);
  if (i + 1 >= data.size()) return data.back();
  return data[i] * (1.0 - frac) + data[i + 1] * frac;
}

double relative_error(double a, double b, double eps) {
  double denom = std::max({std::fabs(a), std::fabs(b), eps});
  return std::fabs(a - b) / denom;
}

void LatencyHistogram::add(double v) {
  int idx;
  if (!(v >= kMinLatency)) {  // catches < kMin, 0, and NaN -> underflow
    idx = 0;
  } else {
    idx = 1 + static_cast<int>(std::floor(4.0 * std::log2(v / kMinLatency)));
    idx = std::min(std::max(idx, 1), kBins - 1);
  }
  ++bins_[static_cast<unsigned>(idx)];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  // Exact: count_ is the sum of the bins, so an empty histogram has all-zero
  // bins. Trials without a traffic or population plane merge two of these.
  if (other.count_ == 0) return;
  for (int b = 0; b < kBins; ++b) {
    bins_[static_cast<unsigned>(b)] += other.bins_[static_cast<unsigned>(b)];
  }
  count_ += other.count_;
}

void LatencyHistogram::add_bin(int b, std::uint64_t n) {
  FORTRESS_EXPECTS(b >= 0 && b < kBins);
  bins_[static_cast<unsigned>(b)] += n;
  count_ += n;
}

double LatencyHistogram::bin_upper_edge(int b) {
  FORTRESS_EXPECTS(b >= 0 && b < kBins);
  if (b == 0) return kMinLatency;
  if (b == kBins - 1) return std::numeric_limits<double>::infinity();
  return kMinLatency * std::exp2(static_cast<double>(b) / 4.0);
}

double LatencyHistogram::quantile(double q) const {
  FORTRESS_EXPECTS(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0.0;
  // Rank of the target observation, 1-based: ceil(q * count), floored at 1.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cumulative = 0;
  for (int b = 0; b < kBins; ++b) {
    cumulative += bins_[static_cast<unsigned>(b)];
    if (cumulative >= rank) return bin_upper_edge(b);
  }
  return bin_upper_edge(kBins - 1);
}

ConfidenceInterval LatencyHistogram::quantile_ci(double q,
                                                 double level) const {
  FORTRESS_EXPECTS(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return ConfidenceInterval{0.0, 0.0, level};
  const double z = z_for_level(level);
  const double n = static_cast<double>(count_);
  const double target = q * n;
  const double spread = z * std::sqrt(n * q * (1.0 - q));
  // Rank band of the q-th order statistic, clamped to the sample.
  const std::uint64_t lo_rank = std::max<std::uint64_t>(
      1, target > spread
             ? static_cast<std::uint64_t>(std::ceil(target - spread))
             : 1);
  const std::uint64_t hi_rank = std::min<std::uint64_t>(
      count_, std::max<std::uint64_t>(
                  1, static_cast<std::uint64_t>(std::ceil(target + spread))));
  // Map both ranks to their bin edges in one cumulative scan.
  double lo_edge = bin_upper_edge(kBins - 1);
  double hi_edge = bin_upper_edge(kBins - 1);
  bool lo_found = false;
  std::uint64_t cumulative = 0;
  for (int b = 0; b < kBins; ++b) {
    cumulative += bins_[static_cast<unsigned>(b)];
    if (!lo_found && cumulative >= lo_rank) {
      lo_edge = bin_upper_edge(b);
      lo_found = true;
    }
    if (cumulative >= hi_rank) {
      hi_edge = bin_upper_edge(b);
      break;
    }
  }
  return ConfidenceInterval{lo_edge, hi_edge, level};
}

std::uint64_t LatencyHistogram::fingerprint() const {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  auto mix = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  for (int b = 0; b < kBins; ++b) mix(bins_[static_cast<unsigned>(b)]);
  return h;
}

}  // namespace fortress
