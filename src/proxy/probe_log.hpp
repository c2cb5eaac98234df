// probe_log.hpp — per-source observation logging and de-randomization
// attack detection (§2.2).
//
// "Since proxies do not do processing (unlike servers), they can be used for
// logging their observations on client behavior for longer periods which can
// be used for identifying sources suspected of launching de-randomization
// probes." A source accumulates suspicion from (a) malformed/invalid
// requests and (b) server child crashes that correlate with its forwarded
// requests. When the suspicion count inside the sliding window reaches the
// threshold, the source is flagged (and, in the proxy, blacklisted).
//
// Sources are identified by dense net::HostId (the interned sender id the
// Envelope carries), so the per-message record path indexes a flat table
// instead of a string-keyed map.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "net/interner.hpp"
#include "sim/simulator.hpp"

namespace fortress::proxy {

struct DetectionConfig {
  /// Sliding window length in simulation time units.
  sim::Time window = 500.0;
  /// Suspicious events within the window that trigger the flag.
  std::uint32_t threshold = 5;
};

/// Sliding-window per-source suspicion tracker.
class ProbeLog {
 public:
  explicit ProbeLog(DetectionConfig config) : config_(config) {}

  /// Forget every observation and adopt a new detection config (campaign
  /// trial-arena reuse path).
  void reset(DetectionConfig config) {
    config_ = config;
    sources_.clear();
  }

  /// Record a suspicious event from `source` at time `now`: a malformed
  /// request or a correlated crash, which the window counts alike.
  void record(net::HostId source, sim::Time now);

  /// Number of in-window suspicious events for `source` at time `now`.
  std::uint32_t score(net::HostId source, sim::Time now) const;

  /// True when `source` meets the detection threshold at time `now`.
  bool flagged(net::HostId source, sim::Time now) const;

  const DetectionConfig& config() const { return config_; }

 private:
  void expire(std::deque<sim::Time>& events, sim::Time now) const;

  DetectionConfig config_;
  /// Flat per-source table of in-window event times (older ones expired),
  /// indexed by HostId (grown on first record).
  mutable std::vector<std::deque<sim::Time>> sources_;
};

}  // namespace fortress::proxy
