// hmac.hpp — HMAC-SHA256 (RFC 2104 / FIPS 198-1).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace fortress::crypto {

/// A precomputed HMAC-SHA256 key schedule (RFC 2104's two midstates): the
/// SHA-256 working variables left after compressing the key's ipad and
/// opad blocks. Constructing one costs the two compressions a one-shot
/// HMAC spends on the pads; every mac() then pays only for the message:
/// its whole blocks compressed straight from the caller's buffer, one
/// padded tail, and the outer hash as one preformatted block. Used wherever
/// one key authenticates many messages (SigningKey, KeyRegistry::verify)
/// and for the registry's per-trial principal derivation. Copyable value
/// type.
class HmacKey {
 public:
  /// Empty schedule (no pads absorbed — mac() on it is NOT the HMAC of
  /// any key). Exists so holders can be members/map values; assign a
  /// real HmacKey before use.
  HmacKey() = default;
  explicit HmacKey(BytesView key);

  /// HMAC-SHA256(key, message) — bit-identical to hmac_sha256.
  Digest mac(BytesView message) const;

 private:
  std::array<std::uint32_t, 8> inner_mid_ = Sha256::kInitialState;
  std::array<std::uint32_t, 8> outer_mid_ = Sha256::kInitialState;
};

/// Compute HMAC-SHA256(key, message).
Digest hmac_sha256(BytesView key, BytesView message);

}  // namespace fortress::crypto
