// stats.hpp — summary statistics for Monte-Carlo estimation.
#pragma once

#include <cstdint>
#include <vector>

namespace fortress {

/// Welford's online mean/variance accumulator. O(1) per observation.
class RunningStats {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  /// Precondition: count() > 0.
  double mean() const;
  /// Sample variance (n-1 denominator). Precondition: count() > 1.
  double variance() const;
  /// Sample standard deviation. Precondition: count() > 1.
  double stddev() const;
  /// Standard error of the mean. Precondition: count() > 1.
  double stderr_mean() const;
  double min() const;
  double max() const;

  /// Merge another accumulator (parallel reduction).
  void merge(const RunningStats& other);

  /// Raw accumulator state, defined at ANY count (all zero when empty) —
  /// the campaign shard sidecar serializes these by bit pattern and
  /// rebuilds with from_raw(), so a merge of deserialized accumulators is
  /// bit-identical to a merge of the originals. mean()/variance() are NOT
  /// usable for that: they have count preconditions and variance() derives
  /// (m2 / (n-1)) instead of exposing the merged state.
  double raw_mean() const { return mean_; }
  double raw_m2() const { return m2_; }
  double raw_min() const { return min_; }
  double raw_max() const { return max_; }
  static RunningStats from_raw(std::uint64_t n, double mean, double m2,
                               double min, double max);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A two-sided confidence interval [lo, hi] around a mean.
struct ConfidenceInterval {
  double lo = 0.0;
  double hi = 0.0;
  double level = 0.95;

  bool contains(double x) const { return lo <= x && x <= hi; }
  double width() const { return hi - lo; }
};

/// Normal-approximation CI for the mean of `stats` at the given confidence
/// level. Precondition: count() > 1 and 0 < level < 1. Levels are bucketed
/// to the nearest supported z-score: >= 0.989 -> 99%, >= 0.949 -> 95%,
/// everything below -> 90% (so e.g. 0.97 gets the 95% z).
ConfidenceInterval normal_ci(const RunningStats& stats, double level = 0.95);

/// Wilson score interval for a binomial proportion: `successes` out of
/// `trials`, at the same bucketed z as normal_ci. Unlike the Wald interval
/// it is well-defined and non-degenerate at 0 or `trials` successes — a
/// zero-success cell still gets a shrinking upper bound (~z^2/n), which is
/// what lets a rare-event stopping rule close on an absolute width floor
/// instead of stalling on a zero-width point estimate. Precondition:
/// trials > 0 and 0 < level < 1.
ConfidenceInterval wilson_ci(std::uint64_t successes, std::uint64_t trials,
                             double level = 0.95);

/// Linear-interpolation quantile of a sample (q in [0,1]). The input vector
/// is copied and sorted. Precondition: data non-empty.
double quantile(std::vector<double> data, double q);

/// Fixed-bin log-spaced latency histogram: O(1) add, exact elementwise
/// merge, deterministic quantiles. 64 bins at 4 per octave starting at
/// kMinLatency: bin 0 is underflow (< kMinLatency), bin 63 overflow, bin b
/// in between covers [kMinLatency·2^((b-1)/4), kMinLatency·2^(b/4)). Bins
/// span ~5 decades (0.01 to ~500 time units) — campaign latencies in this
/// codebase's scale land well inside. quantile() returns the UPPER edge of
/// the bin holding the q-th observation, so two histograms with equal bin
/// counts report bit-identical quantiles regardless of the samples' order —
/// that invariance (merge is a sum, quantile reads only bins) is what makes
/// campaign tail-latency aggregates bit-identical across thread counts.
class LatencyHistogram {
 public:
  static constexpr int kBins = 64;
  static constexpr double kMinLatency = 0.01;

  void add(double v);
  void merge(const LatencyHistogram& other);
  /// Add `n` observations directly to bin `b` — the deserialization
  /// primitive of the campaign shard sidecar (the histogram is merge-closed,
  /// so rebuilding from bin counts is exact). Precondition: 0 <= b < kBins.
  void add_bin(int b, std::uint64_t n);

  std::uint64_t count() const { return count_; }
  std::uint64_t bin(int b) const { return bins_[static_cast<unsigned>(b)]; }
  /// Upper edge of a bin's interval (underflow reports kMinLatency; the
  /// overflow bin has no finite edge and reports +inf).
  static double bin_upper_edge(int b);
  /// q in [0,1]: upper edge of the bin containing the ceil(q·count)-th
  /// smallest observation. Returns 0 when empty.
  double quantile(double q) const;
  /// Distribution-free CI for the q-th quantile via the binomial rank
  /// interval: the rank of the q-th order statistic is ~Binomial(n, q), so
  /// ranks ceil(nq ± z·sqrt(nq(1-q))) (clamped to [1, n]) bound it; the
  /// interval is [edge(bin at lo rank), edge(bin at hi rank)]. Because bins
  /// are discrete, the interval collapses to zero width once the rank band
  /// sits inside one bin — the histogram's resolution (~19% per bin) is the
  /// floor on what a quantile stopping rule can ask for. Returns {0, 0}
  /// when empty; the hi edge is +inf while the rank band touches the
  /// overflow bin. Level is bucketed like normal_ci.
  ConfidenceInterval quantile_ci(double q, double level = 0.95) const;
  /// FNV-1a over the bin counts — the golden-value digest campaign
  /// determinism tests compare across thread counts and isolation modes.
  std::uint64_t fingerprint() const;

 private:
  std::uint64_t bins_[kBins] = {};
  std::uint64_t count_ = 0;
};

}  // namespace fortress
