// population.hpp — the compact client-population plane.
//
// core::Client models one client faithfully: a Handler object, a std::map of
// outstanding requests, per-request callbacks and a dedicated retry timer
// per in-flight request. That costs hundreds of bytes and several timer
// events per client — fine for tens of load generators, hopeless for the
// paper's "what if the population is 10^5 hosts" scale-out questions.
//
// ClientPopulation is the O(bytes) alternative: ONE Handler serving the
// whole population, clients as rows of a flat struct-of-arrays table
// (~28 bytes each), ONE self-rescheduling simulator event per COHORT of
// clients, and per-tier datagram batching (net::Network::send_batch) so a
// cohort tick hands the network one event per target instead of one per
// request. Requests, retries and deadlines follow core::Client's semantics
// quantized to the cohort tick. Documented divergences from core::Client:
//
//  * tick quantization — arrivals, retries and deadline expiries happen at
//    cohort ticks, not at exact event times (cohort ticks are staggered
//    across cohorts, which also decorrelates retry storms the way
//    per-client jitter does for core::Client);
//  * one outstanding request per client — an arrival that lands on a
//    fully-busy cohort is counted (skipped_busy), not queued;
//  * SMR acceptance — the population accepts the FIRST authentic
//    server-signed response instead of collecting f+1 matching votes
//    (vote sets are per-request heap state, exactly what the flat table
//    exists to avoid). Signature acceptance is core::authentic_response,
//    the same rule core::Client applies before its vote.
//
// Determinism: everything is drawn from per-cohort substreams of one seed,
// cohort ticks are ordinary simulator events, and batch delivery draws its
// drop coins in frame order — so the population plane is deterministic in
// (spec, seed) and bit-identical across scheduler kinds and thread counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/directory.hpp"
#include "crypto/signature.hpp"
#include "net/network.hpp"
#include "net/scenario.hpp"
#include "replication/message.hpp"
#include "sim/simulator.hpp"

namespace fortress::core {

/// Population-plane aggregates of one trial (all zero when the plan has no
/// PopulationSpec). merge() is the exact cell reduction over the field
/// table below — sums and an elementwise histogram add — so campaign
/// aggregates stay bit-identical for any trial batching.
struct PopulationStats {
  std::uint64_t offered = 0;    ///< requests submitted (excluding retries)
  std::uint64_t completed = 0;  ///< accepted responses
  std::uint64_t timed_out = 0;  ///< deadline failures
  std::uint64_t gave_up = 0;    ///< retry-budget failures
  std::uint64_t retries = 0;    ///< re-sends across all requests
  std::uint64_t rejected_responses = 0;  ///< failed a signature/validity rule
  /// Arrivals that found every client of their cohort busy (the open loop
  /// pressed harder than the one-outstanding-per-client table can carry).
  std::uint64_t skipped_busy = 0;
  /// Submit-to-completion latency of every completed request.
  LatencyHistogram latency;

  void merge(const PopulationStats& o);
};

template <fields::FieldsOf<PopulationStats> S, class V>
constexpr void visit_fields(S& s, V&& v) {
  v("offered", s.offered, fields::kU64);
  v("completed", s.completed, fields::kU64);
  v("timed_out", s.timed_out, fields::kU64);
  v("gave_up", s.gave_up, fields::kU64);
  v("retries", s.retries, fields::kU64);
  v("rejected_responses", s.rejected_responses, fields::kU64);
  v("skipped_busy", s.skipped_busy, fields::kU64);
  v("latency_bins", s.latency, fields::kHistogram);
}
static_assert(fields::complete<PopulationStats>());

inline void PopulationStats::merge(const PopulationStats& o) {
  fields::merge(*this, o);
}

class ClientPopulation final : public net::Handler {
 public:
  /// Builds the population table for `spec.clients` clients, attaches one
  /// network address per cohort ("pop-c<k>") and schedules the staggered
  /// cohort ticks. Ticks at or past `horizon` are never scheduled.
  ClientPopulation(sim::Simulator& sim, net::Network& network,
                   const crypto::KeyRegistry& registry, Directory directory,
                   const net::PopulationSpec& spec, sim::Time horizon,
                   std::uint64_t seed);
  ~ClientPopulation() override;
  ClientPopulation(const ClientPopulation&) = delete;
  ClientPopulation& operator=(const ClientPopulation&) = delete;

  /// Rewire after a Simulator/Network reset (the trial-arena pooling path):
  /// re-attaches every cohort address, reseeds the substreams, zeroes the
  /// table and stats, and reschedules the ticks — observationally identical
  /// to a freshly constructed population with the same arguments.
  void reset(Directory directory, const net::PopulationSpec& spec,
             sim::Time horizon, std::uint64_t seed);

  const PopulationStats& stats() const { return stats_; }

  /// Bytes of per-client table state (the flat-SoA row width) — the number
  /// the scale tests pin against the <= 64 bytes/client budget.
  static constexpr std::size_t bytes_per_client() {
    return sizeof(double)        // submitted_at
           + sizeof(double)      // retry_at
           + sizeof(float)       // next_delay
           + sizeof(std::uint32_t)   // counter
           + sizeof(std::uint16_t)   // key
           + sizeof(std::uint8_t)    // state
           + sizeof(std::uint8_t);   // retries_used
  }

  /// Actual heap footprint of the per-client arrays, for the scale test.
  std::size_t table_bytes() const;

  void on_message(const net::Envelope& env) override;

 private:
  // Per-client state machine. kIdle rows ignore every other column.
  static constexpr std::uint8_t kIdle = 0;
  static constexpr std::uint8_t kBusyRead = 1;   ///< outstanding GET
  static constexpr std::uint8_t kBusyWrite = 2;  ///< outstanding PUT

  std::size_t n_cohorts() const { return cohort_hosts_.size(); }
  std::uint32_t cohort_begin(std::size_t k) const {
    return static_cast<std::uint32_t>(k) * spec_.cohort_size;
  }
  std::uint32_t cohort_end(std::size_t k) const;

  void build(sim::Time horizon, std::uint64_t seed);
  void tick(std::size_t k);
  void scan_busy(std::size_t k, sim::Time now);
  void arrivals(std::size_t k, sim::Time now);
  void encode_request(std::size_t k, std::uint32_t slot);
  void append_to_batches(std::size_t k);
  void flush_batches(std::size_t k);

  sim::Simulator& sim_;
  net::Network& network_;
  const crypto::KeyRegistry& registry_;
  Directory directory_;
  net::PopulationSpec spec_;
  sim::Time horizon_ = 0.0;

  // --- per-client SoA table (bytes_per_client() bytes per row) ------------
  std::vector<double> submitted_at_;
  std::vector<double> retry_at_;        ///< next tick-quantized retry time
  std::vector<float> next_delay_;       ///< delay the NEXT retry will use
  std::vector<std::uint32_t> counter_;  ///< per-client request counter
  std::vector<std::uint16_t> key_;      ///< key of the outstanding request
  std::vector<std::uint8_t> state_;     ///< kIdle / kBusyRead / kBusyWrite
  std::vector<std::uint8_t> retries_used_;

  // --- per-cohort state ----------------------------------------------------
  std::vector<net::HostId> cohort_hosts_;
  std::vector<net::Address> cohort_addrs_;
  std::vector<Rng> cohort_rngs_;
  std::vector<std::uint32_t> cursors_;  ///< round-robin idle-slot cursor
  /// Non-idle rows per cohort, kept at every idle/busy transition, so a
  /// tick skips the busy-row scan of a cohort with nothing outstanding.
  std::vector<std::uint32_t> busy_;
  /// (host id, cohort index), sorted by host id — the response demux.
  std::vector<std::pair<net::HostId, std::uint32_t>> host_to_cohort_;

  /// Request targets (proxies when fortified, servers otherwise).
  std::vector<net::HostId> target_ids_;
  /// Per-target frame accumulators for the tick in progress; buffers are
  /// pool-acquired on first use and handed whole to send_batch.
  std::vector<Bytes> batch_;
  std::vector<std::uint32_t> batch_counts_;

  // Encode scratch, reused across every request of every tick.
  Bytes wire_;
  std::string body_;

  PopulationStats stats_;
};

}  // namespace fortress::core
