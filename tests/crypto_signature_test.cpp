#include "crypto/signature.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"

namespace fortress::crypto {
namespace {

// Verify a materialized Signature through the registry's borrowed-tag path.
bool verifies(const KeyRegistry& registry, BytesView message,
              const Signature& sig) {
  return registry.verify_tag(message, sig.signer.name,
                             BytesView(sig.tag.data(), sig.tag.size()));
}

TEST(SignatureTest, SignVerifyRoundTrip) {
  KeyRegistry registry(1);
  SigningKey key = registry.enroll("server-0");
  Bytes msg = bytes_of("response payload");
  Signature sig = key.sign(msg);
  EXPECT_EQ(sig.signer.name, "server-0");
  EXPECT_TRUE(verifies(registry, msg, sig));
}

TEST(SignatureTest, TamperedMessageFails) {
  KeyRegistry registry(1);
  SigningKey key = registry.enroll("server-0");
  Signature sig = key.sign(bytes_of("original"));
  EXPECT_FALSE(verifies(registry, bytes_of("tampered"), sig));
}

TEST(SignatureTest, TamperedTagFails) {
  KeyRegistry registry(1);
  SigningKey key = registry.enroll("server-0");
  Bytes msg = bytes_of("msg");
  Signature sig = key.sign(msg);
  sig.tag[0] ^= 0x01;
  EXPECT_FALSE(verifies(registry, msg, sig));
}

TEST(SignatureTest, ImpersonationFails) {
  // A principal cannot produce a signature that verifies as another.
  KeyRegistry registry(1);
  SigningKey mallory = registry.enroll("mallory");
  registry.enroll("server-0");
  Bytes msg = bytes_of("msg");
  Signature sig = mallory.sign(msg);
  sig.signer = PrincipalId{"server-0"};  // forged claim
  EXPECT_FALSE(verifies(registry, msg, sig));
}

TEST(SignatureTest, UnenrolledSignerRejected) {
  KeyRegistry registry(1);
  KeyRegistry other(2);
  SigningKey foreign = other.enroll("stranger");
  Signature sig = foreign.sign(bytes_of("msg"));
  EXPECT_FALSE(verifies(registry, bytes_of("msg"), sig));
}

TEST(SignatureTest, EnrollIsIdempotent) {
  KeyRegistry registry(9);
  SigningKey a = registry.enroll("node");
  SigningKey b = registry.enroll("node");
  Bytes msg = bytes_of("hello");
  EXPECT_EQ(a.sign(msg).tag, b.sign(msg).tag);
  EXPECT_EQ(registry.enrolled_count(), 1u);
}

TEST(SignatureTest, DistinctPrincipalsDistinctTags) {
  KeyRegistry registry(9);
  SigningKey a = registry.enroll("a");
  SigningKey b = registry.enroll("b");
  Bytes msg = bytes_of("same message");
  EXPECT_NE(a.sign(msg).tag, b.sign(msg).tag);
}

TEST(SignatureTest, DistinctMasterSeedsDistinctSecrets) {
  KeyRegistry r1(1), r2(2);
  SigningKey k1 = r1.enroll("node");
  SigningKey k2 = r2.enroll("node");
  Bytes msg = bytes_of("m");
  EXPECT_NE(k1.sign(msg).tag, k2.sign(msg).tag);
}

TEST(SignatureTest, IsEnrolled) {
  KeyRegistry registry(3);
  EXPECT_FALSE(registry.is_enrolled("x"));
  registry.enroll("x");
  EXPECT_TRUE(registry.is_enrolled("x"));
}

TEST(SignatureTest, DoubleSignatureChain) {
  // The FORTRESS response path: a server signs, then a proxy over-signs the
  // (message || server signature); a client verifies both.
  KeyRegistry registry(5);
  SigningKey server = registry.enroll("server-1");
  SigningKey proxy = registry.enroll("proxy-2");

  Bytes response = bytes_of("result=42");
  Signature server_sig = server.sign(response);

  Bytes over_signed = response;
  append(over_signed, bytes_of(server_sig.signer.name));
  append(over_signed, BytesView(server_sig.tag.data(), server_sig.tag.size()));
  Signature proxy_sig = proxy.sign(over_signed);

  EXPECT_TRUE(verifies(registry, response, server_sig));
  EXPECT_TRUE(verifies(registry, over_signed, proxy_sig));
}

}  // namespace
}  // namespace fortress::crypto
