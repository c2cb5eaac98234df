// sha256.hpp — SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used as the hash underlying HMAC signatures and key derivation in the
// FORTRESS protocol stack. Streaming interface plus one-shot helper.
// Block compression routes through the runtime-dispatched kernel tiers
// (sha256_kernel.hpp); every tier is bit-identical to the scalar
// reference, so digests never depend on the host CPU.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace fortress::crypto {

/// A 32-byte SHA-256 digest.
using Digest = std::array<std::uint8_t, 32>;

/// Streaming SHA-256 context.
///
/// Usage:
///   Sha256 h;
///   h.update(part1); h.update(part2);
///   Digest d = h.finish();
/// After finish() the context must not be reused (call reset() first).
class Sha256 {
 public:
  static constexpr std::size_t kBlockSize = 64;
  static constexpr std::size_t kDigestSize = 32;
  /// The eight working variables a fresh context starts from (FIPS 180-4
  /// §5.3.3).
  static constexpr std::array<std::uint32_t, 8> kInitialState = {
      0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

  Sha256() { reset(); }

  /// Restore the initial state so the context can hash a new message.
  void reset();

  /// Absorb `data` into the hash state.
  void update(BytesView data);

  /// Finalize and return the digest. The context is left in a finished
  /// state; further update() calls are a contract violation.
  Digest finish();

  /// One-shot convenience.
  static Digest hash(BytesView data);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finished_ = false;
};

/// Pad the last `tail.size()` (< kBlockSize) bytes of a `total_len`-byte
/// message and compress them into `state`: 0x80, zeros, then the 64-bit
/// big-endian bit length — one block, or two when the tail leaves fewer
/// than 8 bytes for the length.
void compress_tail(std::uint32_t state[8], BytesView tail,
                   std::uint64_t total_len);

/// The digest `state` spells: its words stored big-endian.
Digest digest_of_state(const std::uint32_t state[8]);

}  // namespace fortress::crypto
