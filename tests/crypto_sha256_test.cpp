#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "crypto/sha256_kernel.hpp"
#include "sha_tiers.hpp"

namespace fortress::crypto {
namespace {

std::string hex_of(const Digest& d) {
  return to_hex(BytesView(d.data(), d.size()));
}

/// Known-answer check of the one-shot hash on every kernel tier.
void expect_digest(BytesView msg, const std::string& hex) {
  on_every_tier([&] { EXPECT_EQ(hex_of(Sha256::hash(msg)), hex); });
}

// FIPS 180-4 / NIST CAVS reference vectors.
TEST(Sha256Test, EmptyString) {
  expect_digest(
      bytes_of(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  expect_digest(
      bytes_of("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  expect_digest(
      bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, QuickBrownFox) {
  expect_digest(
      bytes_of("The quick brown fox jumps over the lazy dog"),
      "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256Test, MillionAs) {
  on_every_tier([] {
    Sha256 h;
    Bytes chunk(1000, static_cast<std::uint8_t>('a'));
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(
        hex_of(h.finish()),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  });
}

TEST(Sha256Test, StreamingEqualsOneShot) {
  std::string msg = "fortress primary backup replication";
  Sha256 h;
  h.update(bytes_of(msg.substr(0, 7)));
  h.update(bytes_of(msg.substr(7, 11)));
  h.update(bytes_of(msg.substr(18)));
  EXPECT_EQ(h.finish(), Sha256::hash(bytes_of(msg)));
}

TEST(Sha256Test, StreamingAcrossBlockBoundary) {
  // Feed exactly 63 + 2 bytes so the buffer straddles one block.
  Bytes part1(63, 0x41);
  Bytes part2(2, 0x42);
  Sha256 h;
  h.update(part1);
  h.update(part2);
  Bytes all = part1;
  append(all, part2);
  EXPECT_EQ(h.finish(), Sha256::hash(all));
}

TEST(Sha256Test, ExactBlockSizeInput) {
  Bytes block(64, 0x61);
  Sha256 h;
  h.update(block);
  EXPECT_EQ(h.finish(), Sha256::hash(block));
}

TEST(Sha256Test, UpdateAfterFinishViolatesContract) {
  Sha256 h;
  h.update(bytes_of("x"));
  (void)h.finish();
  EXPECT_THROW(h.update(bytes_of("y")), ContractViolation);
  EXPECT_THROW(h.finish(), ContractViolation);
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.update(bytes_of("first"));
  (void)h.finish();
  h.reset();
  h.update(bytes_of("abc"));
  EXPECT_EQ(hex_of(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::hash(bytes_of("a")), Sha256::hash(bytes_of("b")));
  EXPECT_NE(Sha256::hash(bytes_of("")), Sha256::hash(Bytes{0}));
}

// Parameterized length sweep: every message length 0..129 hashes and the
// streaming interface agrees with the one-shot for each split point.
class Sha256LengthSweep : public ::testing::TestWithParam<int> {};

TEST_P(Sha256LengthSweep, StreamingSplitsAgree) {
  const int len = GetParam();
  Bytes msg(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) msg[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i * 7 + 3);
  Digest reference = Sha256::hash(msg);
  for (int split = 0; split <= len; split += (len < 8 ? 1 : len / 8 + 1)) {
    Sha256 h;
    h.update(BytesView(msg.data(), static_cast<std::size_t>(split)));
    h.update(BytesView(msg.data() + split, static_cast<std::size_t>(len - split)));
    EXPECT_EQ(h.finish(), reference) << "len=" << len << " split=" << split;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, Sha256LengthSweep,
                         ::testing::Values(0, 1, 31, 55, 56, 63, 64, 65, 119,
                                           127, 128, 129));

// ---------------------------------------------------------------------------
// CAVP-style vectors (NIST SHA256 short-message style: deterministic byte
// patterns, expected digests computed with an independent implementation).
// ---------------------------------------------------------------------------

Bytes pattern_msg(std::size_t n) {
  Bytes msg(n);
  for (std::size_t i = 0; i < n; ++i) {
    msg[i] = static_cast<std::uint8_t>((i * 31 + 7) & 0xff);
  }
  return msg;
}

struct CavpVector {
  std::size_t len;
  const char* hex;
};

constexpr CavpVector kCavpVectors[] = {
    {1, "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879"},
    {2, "140d811b81973993df99b8b1742b383ab83f6f52bf7af850812e7bba02ff11da"},
    {8, "4fb900ca3f5832fcc475b79bf07217bf0edfe9d39ea10f5cf624246ff68b47de"},
    {16, "f087c7ff57988205ab8885ecbfca8a77c96e91b213bdaba91143fbcd62997713"},
    {55, "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b"},
    {56, "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63"},
    {57, "5b46e502092be01b1100193e089fdda95638c12e19a1d24f308eb2c3d3ae849d"},
    {63, "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076"},
    {64, "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd"},
    {65, "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0"},
    {100, "c22e490daa445fb2fba44278c022df135310fd278cabca4ad7919eddcccd1dce"},
    {112, "a65c92dac124062d0ab951a42773cb04fc98d1d4bf8897b176f8cff3509d379e"},
    {128, "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356"},
    {130, "1c7c3b5eee94d4fa8b41754b89153e50491838d0d3e49b0273d6f12cae12e387"},
};

TEST(Sha256Test, CavpPatternVectors) {
  for (const CavpVector& v : kCavpVectors) {
    SCOPED_TRACE(v.len);
    expect_digest(pattern_msg(v.len), v.hex);
  }
}

// ---------------------------------------------------------------------------
// Tier equivalence: every available kernel tier must produce the scalar
// reference digest for every message length 0..130, and the scalar
// reference's compression from any chaining state.
// ---------------------------------------------------------------------------

// SHA-256 pad `msg` to whole blocks (the finish() layout).
Bytes padded(const Bytes& msg) {
  Bytes out = msg;
  out.push_back(0x80);
  while (out.size() % 64 != 56) out.push_back(0);
  append_u64_be(out, static_cast<std::uint64_t>(msg.size()) * 8);
  return out;
}

Digest digest_from_state(const std::uint32_t state[8]) {
  Digest d;
  for (int i = 0; i < 8; ++i) {
    d[static_cast<std::size_t>(i) * 4] =
        static_cast<std::uint8_t>(state[i] >> 24);
    d[static_cast<std::size_t>(i) * 4 + 1] =
        static_cast<std::uint8_t>(state[i] >> 16);
    d[static_cast<std::size_t>(i) * 4 + 2] =
        static_cast<std::uint8_t>(state[i] >> 8);
    d[static_cast<std::size_t>(i) * 4 + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return d;
}

constexpr std::uint32_t kIv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                  0xa54ff53a, 0x510e527f, 0x9b05688c,
                                  0x1f83d9ab, 0x5be0cd19};

TEST(Sha256DispatchTest, EveryLaneMatchesScalarEveryLength) {
  // Scalar reference digests for all lengths, via the always-available
  // scalar kernel directly (independent of the active tier).
  std::vector<Digest> reference;
  std::vector<Bytes> messages;
  for (std::size_t len = 0; len <= 130; ++len) {
    messages.push_back(pattern_msg(len));
    Bytes pb = padded(messages.back());
    std::uint32_t st[8];
    std::copy(std::begin(kIv), std::end(kIv), st);
    kernel::compress_blocks_scalar(st, pb.data(), pb.size() / 64);
    reference.push_back(digest_from_state(st));
  }

  on_every_tier([&] {
    for (std::size_t len = 0; len <= 130; ++len) {
      EXPECT_EQ(Sha256::hash(messages[len]), reference[len]) << "len=" << len;
    }
  });
}

TEST(Sha256DispatchTest, EveryTierMatchesScalarFromNonIvStates) {
  // HMAC resumes compression from cached ipad/opad midstates, so each tier
  // must agree with the scalar reference from arbitrary chaining values,
  // not only from the IV.
  const Bytes data = pattern_msg(64 * 5);
  on_every_tier([&] {
    for (std::uint32_t s = 0; s < 16; ++s) {
      std::uint32_t start[8];
      for (int i = 0; i < 8; ++i) {
        const auto word = static_cast<std::uint32_t>(i);
        start[i] = kIv[i] ^ (0x9e3779b9u * (s * 8 + word + 1));
      }
      for (std::size_t nblocks = 1; nblocks <= 5; ++nblocks) {
        std::uint32_t expected[8], actual[8];
        std::copy(std::begin(start), std::end(start), expected);
        std::copy(std::begin(start), std::end(start), actual);
        kernel::compress_blocks_scalar(expected, data.data(), nblocks);
        kernel::compress_blocks(actual, data.data(), nblocks);
        EXPECT_TRUE(std::equal(std::begin(expected), std::end(expected),
                               std::begin(actual)))
            << "state=" << s << " blocks=" << nblocks;
      }
    }
  });
}

TEST(Sha256DispatchTest, TierNamesAndScalarAlwaysAvailable) {
  EXPECT_TRUE(kernel::tier_available(kernel::ShaTier::Scalar));
  EXPECT_STREQ(kernel::tier_name(kernel::ShaTier::Scalar), "scalar");
  EXPECT_STREQ(kernel::tier_name(kernel::ShaTier::ShaNi), "shani");
  // Forcing the scalar reference always succeeds and round-trips.
  ScopedTier scope(kernel::ShaTier::Scalar);
  EXPECT_TRUE(scope.forced());
  EXPECT_EQ(kernel::active_tier(), kernel::ShaTier::Scalar);
}

}  // namespace
}  // namespace fortress::crypto
