// lifetime_sim.hpp — single-trial lifetime simulation for every system class
// under both obfuscation policies (the Monte-Carlo kernel of §5).
//
// A trial returns the number of WHOLE unit time-steps elapsed before the
// step in which the system was compromised (the paper's EL sample), plus the
// compromise route for attribution.
//
// Policy/granularity matrix:
//  * StartupOnly (SO): keys are fixed positions in the attacker's candidate
//    order; lifetimes follow directly from order statistics — granularity
//    does not apply (the process is inherently probe-based).
//  * Proactive (PO) + Step: per-step compromise is memoryless with the
//    closed-form probability of step_model; sampled via a geometric
//    fast-forward (exactly the same distribution as a step loop).
//  * Proactive (PO) + Probe: the attacker's ω probes are sequential within
//    each step; a proxy falling at probe fraction f* redirects the remaining
//    (1-f*)·ω probes at the server key (launch-pad rule). Implemented with
//    an exact skip-ahead: steps in which no channel event occurs are skipped
//    geometrically, and event steps sample the joint outcome conditioned on
//    "at least one channel event".
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/alias.hpp"
#include "common/rng.hpp"
#include "model/params.hpp"

namespace fortress::model {

/// Which route compromised the system (for S2 attribution; other systems use
/// SharedKey / SmrQuorum).
enum class CompromiseRoute {
  None,            ///< censored — no compromise within the step budget
  SharedKey,       ///< S1: the single server key was uncovered/guessed
  SmrQuorum,       ///< S0: smr_compromise-th replica fell
  ServerIndirect,  ///< S2: server fell to an indirect (through-proxy) attack
  ServerViaProxy,  ///< S2: server fell to a direct attack from a compromised proxy
  AllProxies,      ///< S2: every proxy compromised
};

const char* to_string(CompromiseRoute route);

/// Outcome of one lifetime trial.
struct LifetimeResult {
  /// Whole steps elapsed before the compromise step (valid iff !censored).
  std::uint64_t whole_steps = 0;
  bool censored = false;
  CompromiseRoute route = CompromiseRoute::None;
};

/// Precompiled single-trial kernel: validates (shape, params) and derives
/// every per-run constant (ω, per-step compromise probability, conditional
/// route thresholds, probe-event pmf) ONCE, so that run() is allocation-free
/// and does no redundant arithmetic in the Monte-Carlo inner loop. The
/// Monte-Carlo engine builds one kernel per estimate_lifetime call and runs
/// it across millions of per-trial substreams.
class TrialKernel {
 public:
  /// Maximum channels the probe-granularity event sampler supports; also
  /// bounds n_servers/n_proxies for the startup-only order-statistic paths.
  static constexpr int kMaxChannels = 16;

  TrialKernel(const SystemShape& shape, const AttackParams& params,
              Obfuscation obf, Granularity gran);

  /// One lifetime trial on `rng`. `max_steps` caps the simulation; trials
  /// that survive longer are returned censored with whole_steps = max_steps.
  /// For Proactive/Step on S2 the compromise route is drawn from the exact
  /// conditional route distribution (single uniform draw) rather than by
  /// rejection.
  LifetimeResult run(Rng& rng, std::uint64_t max_steps) const;

  const SystemShape& shape() const { return shape_; }
  const AttackParams& params() const { return params_; }

 private:
  LifetimeResult run_so(Rng& rng, std::uint64_t max_steps) const;
  LifetimeResult run_po_step(Rng& rng, std::uint64_t max_steps) const;
  LifetimeResult run_po_probe(Rng& rng, std::uint64_t max_steps) const;

  SystemShape shape_;
  AttackParams params_;
  Obfuscation obf_;
  Granularity gran_;
  std::uint64_t omega_ = 0;

  // Proactive / Step.
  double p_step_ = 0.0;      ///< per-step compromise probability
  double inv_log_step_ = 0.0;  ///< hoisted 1/log(1-p_step) for the geometric
  double route_mass_ = 0.0;  ///< total per-step route mass (== p_step_)
  double cut_all_ = 0.0;     ///< cumulative: AllProxies
  double cut_indirect_ = 0.0;  ///< cumulative: AllProxies + ServerIndirect

  // Proactive / Probe. Event steps are sampled in O(1): the number of
  // channel events k ~ Bin(n, q) | k >= 1 comes from a Walker alias table,
  // and the uniformly random k-subset of channels from a precomputed table
  // of all C(n, k) channel bitmasks per (k, channel-count) pair — one
  // uniform index instead of Floyd's per-element rejection loop.
  int eff_nchan_ = 0;
  double p_event_ = 0.0;  ///< P(any channel event in a step)
  double inv_log_quiet_ = 0.0;  ///< hoisted 1/log(1-p_event)
  AliasTable event_count_alias_;  ///< over k-1, k in 1..n (truncated pmf)
  /// All non-empty channel subsets of {0..n-1} as bitmasks, bucketed by
  /// popcount: the size-k subsets occupy [subset_begin_[k], subset_begin_[k+1]).
  std::vector<std::uint16_t> subset_masks_;
  std::array<std::uint32_t, kMaxChannels + 2> subset_begin_{};
};

/// Reference implementation: a literal per-step, per-node Bernoulli loop for
/// PO at step granularity and re-randomization period P >= 1. Nodes
/// compromised mid-period stay controlled until the next boundary (steps
/// divisible by params.period), matching the semantics of
/// analysis::build_po_chain; at P = 1 every step is a boundary. O(max_steps)
/// — only usable for large α; exists so tests can cross-validate the
/// geometric fast-forward (P = 1) and the absorbing-Markov-chain lifetimes
/// (P > 1).
LifetimeResult simulate_lifetime_po_period_naive(const SystemShape& shape,
                                                 const AttackParams& params,
                                                 Rng& rng,
                                                 std::uint64_t max_steps);

}  // namespace fortress::model
