// hmac.hpp — HMAC-SHA256 (RFC 2104 / FIPS 198-1).
#pragma once

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace fortress::crypto {

/// A precomputed HMAC-SHA256 key schedule: the SHA-256 midstates left after
/// absorbing the key's ipad/opad blocks. Constructing one costs the same
/// two compressions a one-shot HMAC spends on the pads; every subsequent
/// mac() call then pays only the two message/digest tails — about half the
/// work for the short messages the protocol signs. Used wherever one key
/// authenticates many messages (SigningKey, KeyRegistry::verify) and for
/// the registry's per-trial principal derivation. Copyable value type.
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
  Sha256 inner_mid_;
  Sha256 outer_mid_;
};

/// Compute HMAC-SHA256(key, message).
Digest hmac_sha256(BytesView key, BytesView message);

/// HKDF-style key derivation (simplified, single-block expand):
/// derive(key, label) = HMAC(key, label). Used to give each principal
/// independent per-purpose subkeys from one master secret.
Digest derive_key(BytesView key, BytesView label);

}  // namespace fortress::crypto
