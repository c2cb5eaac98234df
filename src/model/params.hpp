// params.hpp — parameters of the paper's attack/obfuscation model (§4).
#pragma once

#include <cstdint>
#include <string>

#include "common/fields.hpp"

namespace fortress::model {

/// Obfuscation policy (§4.1).
///  * StartupOnly (SO): nodes are randomized once at T0 and merely recovered
///    (rebooted with the same key) each unit time-step — proactive recovery.
///    Attacker guessing is sampling WITHOUT replacement across steps.
///  * Proactive (PO): every node draws a fresh key at the end of every
///    re-randomization period — proactive obfuscation. Guessing is sampling
///    WITH replacement; per-step success is memoryless.
enum class Obfuscation { StartupOnly, Proactive };

/// Within-step resolution of the simulated attack process (DESIGN.md §3).
///  * Step: each channel resolves once per unit step with its aggregate
///    probability (α direct, κ·α indirect).
///  * Probe: the attacker's ω probes are sequential within the step; a proxy
///    compromised at probe t opens the direct server channel for the
///    remaining ω−t probes. Strictly more faithful to §4.2; only available
///    in the Monte-Carlo evaluator.
enum class Granularity { Step, Probe };

/// The three system classes of §4 (Definitions 1-3).
enum class SystemKind {
  S0,  ///< 1-tier, 4-node SMR, distinct keys; compromised when >1 node falls
  S1,  ///< 1-tier, 3-node primary-backup, shared key; any node = compromise
  S2,  ///< 2-tier FORTRESS: np proxies (distinct keys) + ns PB servers
       ///< (shared key); compromised via server (direct-through-proxy or
       ///< indirect) or via all np proxies
};

inline constexpr fields::EnumNames<SystemKind, 3> kSystemKindNames{
    "system", {"S0", "S1", "S2"}};

std::string to_string(SystemKind kind);
std::string to_string(Obfuscation obf);

/// Short label like "S2PO" used in benches and experiment output.
std::string system_label(SystemKind kind, Obfuscation obf);

/// Attack and obfuscation parameters (Definitions 4-6).
struct AttackParams {
  /// α: probability a DIRECT attack on a freshly randomized node succeeds
  /// within one unit time-step. Realistic range per §5: [1e-5, 1e-2].
  double alpha = 1e-3;

  /// κ ∈ [0,1]: indirect attack coefficient (Definition 5); an indirect
  /// attack (through a proxy) succeeds with probability κ·α.
  double kappa = 0.5;

  /// χ: number of possible randomization keys (key entropy 2^16 in §4.1).
  std::uint64_t chi = 1ull << 16;

  /// Re-randomization period in unit time-steps (paper fixes P=1; exposed
  /// for the period-ablation experiment). Only meaningful under Proactive.
  std::uint32_t period = 1;

  /// Validate ranges; throws ContractViolation on nonsense.
  void validate() const;

  /// ω: probes per channel per unit step implied by (α, χ) under
  /// sampling-without-replacement within a step: ω = round(α·χ), min 1.
  std::uint64_t omega() const;

  /// Effective probes per step on the indirect channel: round(κ·ω), may be 0.
  std::uint64_t omega_indirect() const;
};

/// Structural parameters of a system instance.
struct SystemShape {
  SystemKind kind = SystemKind::S2;
  int n_servers = 3;        ///< S0: 4, S1/S2: 3
  int n_proxies = 3;        ///< S2 only
  int smr_compromise = 2;   ///< S0: compromised when >= this many nodes fall

  /// The paper's default shapes.
  static SystemShape s0() { return {SystemKind::S0, 4, 0, 2}; }
  static SystemShape s1() { return {SystemKind::S1, 3, 0, 1}; }
  static SystemShape s2(int np = 3) { return {SystemKind::S2, 3, np, 1}; }

  void validate() const;
};

}  // namespace fortress::model
