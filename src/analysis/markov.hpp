// markov.hpp — absorbing Markov chains and chain builders for the paper's
// proactively obfuscated systems.
//
// The paper (§5) uses "Absorbing Markov Chain methods (where state spaces
// are sufficiently small)". For re-randomization period P = 1 every PO
// system is memoryless and the chain collapses to the closed forms in
// model/step_model.hpp — the chain construction here reproduces those
// numbers exactly (tested), and additionally supports general P >= 1, where
// compromised-but-not-yet-cleansed nodes persist across steps until the next
// re-randomization boundary. That gives the period-ablation experiment its
// semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/matrix.hpp"
#include "model/params.hpp"

namespace fortress::analysis {

/// A finite absorbing Markov chain in canonical form.
///
/// States 0..t-1 are transient, states t..t+a-1 absorbing. Built from the
/// full one-step transition matrix; validates stochasticity on construction.
class AbsorbingChain {
 public:
  /// `transition` is the full (t+a) x (t+a) row-stochastic matrix with the
  /// transient states first. Rows of absorbing states are ignored (treated
  /// as self-loops). Tolerance for row sums: 1e-9.
  AbsorbingChain(Matrix transition, std::size_t transient_count);

  std::size_t transient_count() const { return t_; }

  /// Expected number of steps to absorption starting from each transient
  /// state: t = (I - Q)^{-1} 1.
  std::vector<double> expected_steps_to_absorption() const;

  /// Absorption probabilities B = N R: B(i, j) = P(absorbed in absorbing
  /// state j | start in transient state i).
  Matrix absorption_probabilities() const;

  /// Fundamental matrix N = (I - Q)^{-1}: N(i,j) = expected visits to
  /// transient state j starting from i.
  Matrix fundamental_matrix() const;

  const Matrix& transition() const { return p_; }

 private:
  Matrix q() const;  // transient-to-transient block
  Matrix r() const;  // transient-to-absorbing block

  /// One LU of (I - Q), computed on first use and shared by every solve
  /// (expected steps, absorption probabilities, fundamental matrix) — the
  /// seed re-factorized per call, and fundamental_matrix() did a full
  /// inverse(). Copies share the cache. Not synchronized: like the rest of
  /// the class, concurrent use needs external locking.
  const LuDecomposition& factorization() const;

  Matrix p_;
  std::size_t t_;
  std::size_t a_;
  mutable std::shared_ptr<const LuDecomposition> lu_;
};

/// Builds the PO chain for a system with re-randomization period
/// `params.period` and returns it together with the index of the initial
/// state (all fresh, phase 0).
struct PoChain {
  AbsorbingChain chain;
  std::size_t initial_state;
  std::vector<std::string> state_names;  ///< transient state labels
};

/// Construct the proactive-obfuscation chain for `shape`. Semantics:
///  * one transition = one unit time-step;
///  * a node compromised in phase φ stays compromised through phases
///    φ+1..P-1 and is cleansed at the boundary back to phase 0;
///  * absorption = system compromise per the class rules (§4).
/// For S1 the state space is the single "alive" state (the shared key gives
/// the attacker one memoryless channel; period does not matter).
PoChain build_po_chain(const model::SystemShape& shape,
                       const model::AttackParams& params);

/// Expected lifetime (whole steps before the compromise step) from the PO
/// chain: expected steps to absorption minus 1.
///
/// Solved structure-aware: the PO chain is block-sparse (phase φ only
/// transitions to φ+1, absorption, or — at the boundary — the fresh state),
/// so the expected-steps system collapses to a per-phase backward sweep in
/// O(P·n²) instead of a dense O((P·n)³) LU. Agrees with
/// build_po_chain(...).chain.expected_steps_to_absorption() to rounding
/// (tested), which remains the reference implementation.
double expected_lifetime_markov(const model::SystemShape& shape,
                                const model::AttackParams& params);

/// Route-resolved analysis for the FORTRESS system: the chain's single
/// "compromised" state is split into the three §4 routes (indirect,
/// direct-through-proxy, all-proxies), and the absorption probabilities
/// give the exact probability each route is the one that kills the system.
/// Precondition: shape.kind == S2.
struct S2RouteProbabilities {
  double server_indirect = 0.0;
  double server_via_proxy = 0.0;
  double all_proxies = 0.0;
};

S2RouteProbabilities s2_route_probabilities(const model::SystemShape& shape,
                                            const model::AttackParams& params);

}  // namespace fortress::analysis
