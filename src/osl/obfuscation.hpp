// obfuscation.hpp — the proactive obfuscation / recovery scheduler (§2.3,
// §4.1).
//
// Drives the paper's unit time-step on the live stack: every `step_duration`
// simulation-time units, every registered machine is rebooted — with a fresh
// randomization key under Policy::Rerandomize (proactive obfuscation, PO) or
// with its existing key under Policy::Recover (proactive recovery, SO after
// the initial randomization).
//
// Key discipline follows §3: machines registered as a *shared group* (the PB
// server tier) always receive one common key, distinct from every other key
// in use; individually registered machines (proxies) get mutually distinct
// keys. At any instant (#groups + #individuals) distinct keys are live.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "osl/machine.hpp"
#include "sim/simulator.hpp"

namespace fortress::osl {

enum class ObfuscationPolicy {
  Recover,      ///< reboot with the same key each step (SO)
  Rerandomize,  ///< reboot with a fresh key each step (PO)
};

struct ObfuscationConfig {
  sim::Time step_duration = 100.0;
  ObfuscationPolicy policy = ObfuscationPolicy::Rerandomize;
  /// Keyspace size χ shared by every registered machine.
  std::uint64_t keyspace = 1ull << 16;
  std::uint64_t rng_seed = 7;
};

/// Schedules per-step reboots for a set of machines. Also the authority for
/// initial key assignment (boot_all()).
class ObfuscationScheduler {
 public:
  ObfuscationScheduler(sim::Simulator& sim, ObfuscationConfig config);

  /// Register a machine with its own (individually distinct) key.
  void add_machine(Machine& machine);

  /// Register a group of machines that must share one key (PB server tier).
  void add_shared_group(std::vector<Machine*> group);

  /// Register machines with individually distinct keys whose reboots are
  /// STAGGERED across each unit step (batches of one, evenly spaced), per
  /// the Roeder-Schneider rule that at most f replicas leave an SMR system
  /// at a time so the rest can serve state transfer (§2.3).
  void add_staggered_batch(std::vector<Machine*> batch);

  /// Draw the initial distinct keys and boot every registered machine.
  /// Precondition: machines registered, none booted yet.
  void boot_all();

  /// Begin stepping; the first boundary fires one step_duration from now.
  void start();
  void stop();

  /// Return to the pre-boot state under a new config, KEEPING the machine
  /// registrations (they are structural) but forgetting the step count, the
  /// RNG stream and all timers. Caller must have reset the simulator (the
  /// timers' pending events live there) and the machines; boot_all()/start()
  /// then replay exactly as after construction.
  void reset(const ObfuscationConfig& config);

  std::uint64_t steps_completed() const { return steps_; }

 private:
  void step_boundary();
  void staggered_boundary(std::size_t slot);
  std::vector<RandKey> draw_distinct_keys(std::size_t count);
  RandKey draw_fresh_key_avoiding_live() ;

  sim::Simulator& sim_;
  ObfuscationConfig config_;
  Rng rng_;
  std::vector<Machine*> individuals_;
  std::vector<std::vector<Machine*>> groups_;
  std::vector<Machine*> staggered_;
  sim::PeriodicTimer timer_;
  std::vector<std::unique_ptr<sim::PeriodicTimer>> staggered_timers_;
  std::uint64_t steps_ = 0;
  bool booted_ = false;
};

}  // namespace fortress::osl
