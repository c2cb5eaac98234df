#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/bytes.hpp"
#include "sha_tiers.hpp"

namespace fortress::crypto {
namespace {

/// Known-answer check of the one-shot HMAC on every kernel tier.
void expect_hmac(BytesView key, BytesView msg, const std::string& hex) {
  on_every_tier([&] {
    const Digest d = hmac_sha256(key, msg);
    EXPECT_EQ(to_hex(BytesView(d.data(), d.size())), hex);
  });
}

// RFC 4231 test case 1.
TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  expect_hmac(
      key, bytes_of("Hi There"),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2: short key "Jefe".
TEST(HmacTest, Rfc4231Case2) {
  expect_hmac(
      bytes_of("Jefe"), bytes_of("what do ya want for nothing?"),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 20-byte 0xaa key, 50 bytes of 0xdd data.
TEST(HmacTest, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  expect_hmac(
      key, data,
      "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 4: incrementing key, 50 bytes of 0xcd.
TEST(HmacTest, Rfc4231Case4) {
  Bytes key;
  for (std::uint8_t b = 0x01; b <= 0x19; ++b) key.push_back(b);
  Bytes data(50, 0xcd);
  expect_hmac(
      key, data,
      "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

// RFC 4231 test case 6: 131-byte key (longer than block size).
TEST(HmacTest, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  expect_hmac(
      key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 4231 test case 7: long key and long data.
TEST(HmacTest, Rfc4231Case7LongKeyLongData) {
  Bytes key(131, 0xaa);
  expect_hmac(
      key,
      bytes_of("This is a test using a larger than block-size key and a larger "
               "than block-size data. The key needs to be hashed before being "
               "used by the HMAC algorithm."),
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacTest, KeySensitivity) {
  Bytes msg = bytes_of("message");
  EXPECT_NE(hmac_sha256(bytes_of("key1"), msg),
            hmac_sha256(bytes_of("key2"), msg));
}

TEST(HmacTest, MessageSensitivity) {
  Bytes key = bytes_of("key");
  EXPECT_NE(hmac_sha256(key, bytes_of("msg1")),
            hmac_sha256(key, bytes_of("msg2")));
}

TEST(HmacTest, ExactBlockSizeKeyNotHashed) {
  // A 64-byte key is used as-is; a 65-byte key is hashed first. They must
  // produce different results even when the 65-byte key begins with the
  // 64-byte key.
  Bytes key64(64, 0x7a);
  Bytes key65(65, 0x7a);
  Bytes msg = bytes_of("m");
  EXPECT_NE(hmac_sha256(key64, msg), hmac_sha256(key65, msg));
}

TEST(HmacTest, EmptyKeyAndMessage) {
  // HMAC-SHA256("", "") — well-known value.
  expect_hmac(
      Bytes{}, Bytes{},
      "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
}

/// RFC 2104 spelled out on the streaming hash, with no midstate or
/// preformatted block: H((K ^ opad) || H((K ^ ipad) || m)), K the key
/// zero-padded to one block (pre-hashed when longer than a block).
Digest reference_hmac(BytesView key, BytesView msg) {
  Bytes k(Sha256::kBlockSize, 0);
  if (key.size() > Sha256::kBlockSize) {
    const Digest kd = Sha256::hash(key);
    std::copy(kd.begin(), kd.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  Bytes ipad(k), opad(k);
  for (auto& b : ipad) b ^= 0x36;
  for (auto& b : opad) b ^= 0x5c;
  Sha256 inner;
  inner.update(ipad);
  inner.update(msg);
  const Digest inner_digest = inner.finish();
  Sha256 outer;
  outer.update(opad);
  outer.update(BytesView(inner_digest.data(), inner_digest.size()));
  return outer.finish();
}

TEST(HmacKeyTest, MatchesOneShotHmacAcrossLengths) {
  // The midstate schedule must equal the streaming-hash construction for
  // every (key length, message length) shape: short/long keys (long keys
  // get pre-hashed), and every message length from empty to past three
  // blocks — which walks every tail branch (0..54 bytes pad into one
  // block, 55 exactly fills it, 56..63 spill the length into a second
  // block, 64 leaves no tail). A reused schedule must not accumulate state
  // between mac() calls.
  const std::size_t key_lens[] = {0, 1, 31, 64, 65, 200};
  for (std::size_t kl : key_lens) {
    Bytes key(kl);
    for (std::size_t i = 0; i < kl; ++i) {
      key[i] = static_cast<std::uint8_t>(0xa5 ^ (i * 7));
    }
    HmacKey schedule((BytesView(key)));
    for (std::size_t ml = 0; ml <= 200; ++ml) {
      Bytes msg(ml);
      for (std::size_t i = 0; i < ml; ++i) {
        msg[i] = static_cast<std::uint8_t>(0x3c + i * 13);
      }
      const Digest want = reference_hmac(key, msg);
      EXPECT_EQ(schedule.mac(msg), want) << "key len " << kl << " msg len "
                                         << ml;
      EXPECT_EQ(hmac_sha256(key, msg), want) << "key len " << kl
                                             << " msg len " << ml;
    }
    // Repeat the first message: the schedule is stateless across calls.
    Bytes msg(5, static_cast<std::uint8_t>(0x3c));
    EXPECT_EQ(schedule.mac(msg), schedule.mac(msg));
  }
}

}  // namespace
}  // namespace fortress::crypto
