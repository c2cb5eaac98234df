// engine.hpp — Monte-Carlo expected-lifetime estimation (§5 of the paper).
//
// Runs N independent lifetime trials (model::TrialKernel) on
// deterministic per-trial substreams, optionally across threads, and reduces
// them to an EL estimate with a confidence interval plus per-route
// attribution. Censoring is reported, never silently dropped: a censored
// trial contributes its cap as a lower bound and marks the estimate.
#pragma once

#include <array>
#include <cstdint>

#include "common/stats.hpp"
#include "model/lifetime_sim.hpp"
#include "model/params.hpp"

namespace fortress::montecarlo {

/// Fixed-size per-route trial counters, indexed directly by the
/// CompromiseRoute enum. Replaces the per-shard std::map the trial loop used
/// to bump — incrementing a counter is now one indexed add, and merging
/// shards is branch-free.
class RouteCounts {
 public:
  /// Number of CompromiseRoute values (None..AllProxies).
  static constexpr std::size_t kRoutes =
      static_cast<std::size_t>(model::CompromiseRoute::AllProxies) + 1;

  std::uint64_t& operator[](model::CompromiseRoute route) {
    return counts_[index(route)];
  }
  std::uint64_t operator[](model::CompromiseRoute route) const {
    return counts_[index(route)];
  }

  /// Total trials that ended in a compromise (excludes None / censored).
  std::uint64_t compromised_total() const {
    std::uint64_t total = 0;
    for (std::size_t i = 1; i < kRoutes; ++i) total += counts_[i];
    return total;
  }

  void merge(const RouteCounts& other) {
    for (std::size_t i = 0; i < kRoutes; ++i) counts_[i] += other.counts_[i];
  }

  bool operator==(const RouteCounts&) const = default;

 private:
  static std::size_t index(model::CompromiseRoute route) {
    return static_cast<std::size_t>(route);
  }

  std::array<std::uint64_t, kRoutes> counts_{};
};

/// Configuration for an estimation run.
struct McConfig {
  std::uint64_t trials = 10000;
  std::uint64_t seed = 42;
  /// Per-trial step cap; survivors are censored.
  std::uint64_t max_steps = 100'000'000;
  /// Worker threads (1 = sequential). Results are BIT-IDENTICAL for any
  /// thread count: each trial runs on its own substream, trials are chunked
  /// on a grid that depends only on `trials`, and per-chunk partials are
  /// reduced in chunk-index order regardless of which worker ran them.
  unsigned threads = 1;
  double ci_level = 0.95;
};

/// Result of an estimation run.
struct McResult {
  RunningStats stats;             ///< lifetime samples (censored at cap)
  ConfidenceInterval ci{};        ///< CI for the mean (normal approx.)
  std::uint64_t censored = 0;     ///< trials that hit max_steps
  RouteCounts route_counts;

  double expected_lifetime() const { return stats.mean(); }
  bool any_censored() const { return censored > 0; }
  /// Fraction of (uncensored) compromises via `route`; O(1). `None` is not a
  /// compromise: route_fraction(None) == 0 by definition.
  double route_fraction(model::CompromiseRoute route) const;
};

/// Estimate the expected lifetime of (shape, params, obf, gran).
McResult estimate_lifetime(const model::SystemShape& shape,
                           const model::AttackParams& params,
                           model::Obfuscation obf, model::Granularity gran,
                           const McConfig& config);

}  // namespace fortress::montecarlo
