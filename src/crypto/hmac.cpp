#include "crypto/hmac.hpp"

#include <array>

#include "crypto/sha256_kernel.hpp"

namespace fortress::crypto {

HmacKey::HmacKey(BytesView key) {
  constexpr std::size_t kBlock = Sha256::kBlockSize;
  std::array<std::uint8_t, kBlock> key_block{};

  if (key.size() > kBlock) {
    Digest kd = Sha256::hash(key);
    std::copy(kd.begin(), kd.end(), key_block.begin());
  } else {
    std::copy(key.begin(), key.end(), key_block.begin());
  }

  std::array<std::uint8_t, kBlock> ipad, opad;
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x5c);
  }
  kernel::compress_blocks(inner_mid_.data(), ipad.data(), 1);
  kernel::compress_blocks(outer_mid_.data(), opad.data(), 1);
}

Digest HmacKey::mac(BytesView message) const {
  constexpr std::size_t kBlock = Sha256::kBlockSize;
  // Inner hash, forked from the ipad midstate: the message's whole blocks
  // straight from the caller's buffer, then its padded tail. The length
  // counts the pad block already absorbed.
  std::array<std::uint32_t, 8> inner = inner_mid_;
  const std::size_t whole = message.size() / kBlock;
  kernel::compress_blocks(inner.data(), message.data(), whole);
  compress_tail(inner.data(), message.subspan(whole * kBlock),
                kBlock + message.size());

  // Outer hash: the opad midstate plus one block that is the inner digest,
  // 0x80, zeros and the fixed bit length of opad || digest.
  std::uint8_t block[kBlock] = {};
  for (int i = 0; i < 8; ++i) detail::store_be32(block + i * 4, inner[i]);
  block[Sha256::kDigestSize] = 0x80;
  detail::store_be64(block + kBlock - 8, (kBlock + Sha256::kDigestSize) * 8);
  std::array<std::uint32_t, 8> outer = outer_mid_;
  kernel::compress_blocks(outer.data(), block, 1);
  return digest_of_state(outer.data());
}

Digest hmac_sha256(BytesView key, BytesView message) {
  return HmacKey(key).mac(message);
}

}  // namespace fortress::crypto
