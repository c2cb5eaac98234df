// sha256_kernel.hpp — runtime-dispatched SHA-256 block kernels.
//
// Two tiers, CPUID-selected once at startup (the scalar reference is the
// tested oracle, mirroring the Markov dense-vs-sparse pattern):
//   * Scalar — the portable FIPS 180-4 compression loop; always available.
//   * ShaNi  — x86 SHA extensions: single-stream compression at a few
//              cycles per round quad.
//
// Every tier produces BIT-IDENTICAL digests (asserted by the tier-sweep
// tests); dispatch is therefore observationally invisible to everything
// above, including the campaign golden aggregates.
//
// Startup selection: the best tier CPUID reports, made lazily at the first
// hash or tier query. Tests and benches pick a tier with force_tier().
#pragma once

#include <cstddef>
#include <cstdint>

namespace fortress::crypto::kernel {

/// Dispatch tiers, ordered worst to best. Numeric values are stable — they
/// are reported as the `dispatch_tier` extra key in bench JSON.
enum class ShaTier : std::uint8_t { Scalar = 0, ShaNi = 2 };

const char* tier_name(ShaTier tier);

/// True iff this CPU can run `tier`.
bool tier_available(ShaTier tier);

/// The tier all kernel entry points currently route through.
ShaTier active_tier();

/// Force the active tier (tests/benches exercising a specific tier). Not
/// thread-safe against concurrent hashing — call before spinning up
/// workers. Returns false (and leaves dispatch unchanged) if `tier` is not
/// available on this CPU.
bool force_tier(ShaTier tier);

/// Compress `nblocks` consecutive 64-byte blocks into `state` (the eight
/// working variables, host-endian words) via the active tier.
void compress_blocks(std::uint32_t state[8], const std::uint8_t* data,
                     std::size_t nblocks);

/// The scalar reference compression, always available regardless of the
/// active tier — the oracle the dispatch tests compare against.
void compress_blocks_scalar(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks);

// Internal: tier-specific kernels, defined only when the toolchain can
// emit them (separate TUs compiled with the matching -m flags). Exposed
// here for the dispatcher and the lane tests; call only when the matching
// tier_available() holds.
#if defined(__x86_64__) || defined(__i386__)
void compress_blocks_shani(std::uint32_t state[8], const std::uint8_t* data,
                           std::size_t nblocks);
#endif

}  // namespace fortress::crypto::kernel
