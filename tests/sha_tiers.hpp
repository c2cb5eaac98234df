// sha_tiers.hpp — run a crypto check once per SHA-256 kernel tier.
//
// The process hashes on the best tier CPUID reports; the scalar kernel is
// the oracle and the only tier on a CPU without SHA-NI. A known-answer test
// wrapped in on_every_tier() therefore checks each tier this CPU offers
// against the published value, not only the one the process started on.
#pragma once

#include <gtest/gtest.h>

#include "crypto/sha256_kernel.hpp"

namespace fortress::crypto {

/// Forces `tier` for its scope and restores the previous tier on exit, so
/// tests compose.
class ScopedTier {
 public:
  explicit ScopedTier(kernel::ShaTier tier)
      : saved_(kernel::active_tier()), forced_(kernel::force_tier(tier)) {}
  ~ScopedTier() { kernel::force_tier(saved_); }
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;
  bool forced() const { return forced_; }

 private:
  kernel::ShaTier saved_;
  bool forced_;
};

/// Runs `check` once per tier this CPU offers, with that tier forced and
/// its name in the trace of any failure.
template <typename Check>
void on_every_tier(Check check) {
  for (kernel::ShaTier tier :
       {kernel::ShaTier::Scalar, kernel::ShaTier::ShaNi}) {
    if (!kernel::tier_available(tier)) continue;
    ScopedTier scope(tier);
    ASSERT_TRUE(scope.forced()) << kernel::tier_name(tier);
    SCOPED_TRACE(kernel::tier_name(tier));
    check();
  }
}

}  // namespace fortress::crypto
