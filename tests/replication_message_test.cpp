#include "replication/message.hpp"

#include <gtest/gtest.h>

#include <iterator>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace fortress::replication {
namespace {

Message sample() {
  Message m;
  m.type = MsgType::StateUpdate;
  m.view = 3;
  m.seq = 42;
  m.sender_index = 2;
  m.request_id = RequestId{"client-7", 19};
  m.requester = "proxy-1";
  m.payload = bytes_of("response body");
  m.aux = bytes_of("snapshot blob");
  return m;
}

Bytes to_bytes(BytesView v) { return Bytes(v.begin(), v.end()); }

// Encode `m` and verify the wire through the view verifiers — the only
// verify path there is.
bool wire_verifies(const Message& m, const crypto::KeyRegistry& registry) {
  const Bytes wire = m.encode();
  auto view = MessageView::decode(wire);
  return view.has_value() && verify_message(*view, registry);
}

bool wire_over_verifies(const Message& m, const crypto::KeyRegistry& registry) {
  const Bytes wire = m.encode();
  auto view = MessageView::decode(wire);
  return view.has_value() && verify_over_signature(*view, registry);
}

TEST(MessageTest, EncodeDecodeRoundTrip) {
  Message m = sample();
  const Bytes wire = m.encode();
  auto decoded = MessageView::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type(), m.type);
  EXPECT_EQ(decoded->view(), m.view);
  EXPECT_EQ(decoded->seq(), m.seq);
  EXPECT_EQ(decoded->sender_index(), m.sender_index);
  EXPECT_EQ(decoded->request_id(), m.request_id);
  EXPECT_EQ(decoded->requester(), m.requester);
  EXPECT_EQ(to_bytes(decoded->payload()), m.payload);
  EXPECT_EQ(to_bytes(decoded->aux()), m.aux);
  EXPECT_FALSE(decoded->signature().has_value());
  EXPECT_FALSE(decoded->over_signature().has_value());
}

TEST(MessageTest, RoundTripWithSignatures) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey server = registry.enroll("server-0");
  crypto::SigningKey proxy = registry.enroll("proxy-0");

  Message m = sample();
  sign_message(m, server);
  over_sign_message(m, proxy);
  const Bytes wire = m.encode();
  auto decoded = MessageView::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->signature().has_value());
  ASSERT_TRUE(decoded->over_signature().has_value());
  EXPECT_EQ(decoded->signature()->signer, "server-0");
  EXPECT_EQ(decoded->over_signature()->signer, "proxy-0");
  EXPECT_TRUE(verify_message(*decoded, registry));
  EXPECT_TRUE(verify_over_signature(*decoded, registry));
}

TEST(MessageTest, EmptyFieldsRoundTrip) {
  Message m;
  const Bytes wire = m.encode();
  auto decoded = MessageView::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->request_client(), "");
  EXPECT_TRUE(decoded->payload().empty());
}

TEST(MessageTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(MessageView::decode(bytes_of("not a message")).has_value());
  EXPECT_FALSE(MessageView::decode(Bytes{}).has_value());
  EXPECT_FALSE(MessageView::decode(Bytes{0x46, 0x54}).has_value());
}

TEST(MessageTest, DecodeRejectsTruncation) {
  Bytes wire = sample().encode();
  for (std::size_t cut : {wire.size() - 1, wire.size() / 2, std::size_t{5}}) {
    EXPECT_FALSE(
        MessageView::decode(BytesView(wire.data(), cut)).has_value())
        << "cut=" << cut;
  }
}

TEST(MessageTest, DecodeRejectsTrailingBytes) {
  Bytes wire = sample().encode();
  wire.push_back(0);
  EXPECT_FALSE(MessageView::decode(wire).has_value());
}

TEST(MessageTest, SignatureCoversAllCoreFields) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey key = registry.enroll("server-0");
  Message m = sample();
  sign_message(m, key);
  ASSERT_TRUE(wire_verifies(m, registry));

  // Any mutated core field must invalidate the signature.
  Message t1 = m;
  t1.payload = bytes_of("tampered");
  EXPECT_FALSE(wire_verifies(t1, registry));
  Message t2 = m;
  t2.seq += 1;
  EXPECT_FALSE(wire_verifies(t2, registry));
  Message t3 = m;
  t3.request_id.seq += 1;
  EXPECT_FALSE(wire_verifies(t3, registry));
  Message t4 = m;
  t4.sender_index += 1;
  EXPECT_FALSE(wire_verifies(t4, registry));
}

TEST(MessageTest, OverSignatureBindsInnerSignature) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey server0 = registry.enroll("server-0");
  crypto::SigningKey server1 = registry.enroll("server-1");
  crypto::SigningKey proxy = registry.enroll("proxy-0");

  Message m = sample();
  sign_message(m, server0);
  over_sign_message(m, proxy);
  ASSERT_TRUE(wire_over_verifies(m, registry));

  // Swapping the inner signature for another server's (even a valid one)
  // must break the proxy's endorsement.
  Message swapped = m;
  sign_message(swapped, server1);  // still a valid inner signature...
  EXPECT_TRUE(wire_verifies(swapped, registry));
  EXPECT_FALSE(wire_over_verifies(swapped, registry));
}

TEST(MessageTest, OverSignWithoutInnerViolatesContract) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey proxy = registry.enroll("proxy-0");
  Message m = sample();
  EXPECT_THROW(over_sign_message(m, proxy), ContractViolation);
}

TEST(MessageTest, VerifyMissingSignatureIsFalse) {
  crypto::KeyRegistry registry(1);
  Message m = sample();
  EXPECT_FALSE(wire_verifies(m, registry));
  EXPECT_FALSE(wire_over_verifies(m, registry));
}

TEST(RequestIdTest, OrderingAndFormat) {
  RequestId a{"alice", 1}, b{"alice", 2}, c{"bob", 0};
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);
  EXPECT_EQ(a.to_string(), "alice#1");
}

// --- MessageView ------------------------------------------------------------

TEST(MessageViewTest, PeekReadsFixedHeader) {
  Message m = sample();
  Bytes wire = m.encode();
  auto header = MessageView::peek(wire);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->type, m.type);
  EXPECT_EQ(header->view, m.view);
  EXPECT_EQ(header->seq, m.seq);
  EXPECT_EQ(header->sender_index, m.sender_index);

  EXPECT_FALSE(MessageView::peek(BytesView(wire.data(), 27)).has_value());
  wire[0] ^= 1;  // break the magic
  EXPECT_FALSE(MessageView::peek(wire).has_value());
}

TEST(MessageViewTest, ViewFieldsMatchLegacyDecode) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey server = registry.enroll("server-0");
  crypto::SigningKey proxy = registry.enroll("proxy-0");
  Message m = sample();
  sign_message(m, server);
  over_sign_message(m, proxy);
  Bytes wire = m.encode();

  auto view = MessageView::decode(wire);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->type(), m.type);
  EXPECT_EQ(view->view(), m.view);
  EXPECT_EQ(view->seq(), m.seq);
  EXPECT_EQ(view->sender_index(), m.sender_index);
  EXPECT_EQ(view->request_client(), m.request_id.client);
  EXPECT_EQ(view->request_seq(), m.request_id.seq);
  EXPECT_EQ(view->request_id(), m.request_id);
  EXPECT_EQ(view->requester(), m.requester);
  ASSERT_TRUE(view->signature().has_value());
  EXPECT_EQ(view->signature()->materialize(), *m.signature);
  ASSERT_TRUE(view->over_signature().has_value());
  EXPECT_EQ(view->over_signature()->materialize(), *m.over_signature);
  EXPECT_EQ(view->materialize().encode(), wire);
}

TEST(MessageViewTest, SigningBytesMatchLegacySplice) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey server = registry.enroll("server-0");
  crypto::SigningKey proxy = registry.enroll("proxy-0");
  for (MsgType type : {MsgType::Response, MsgType::ProxyResponse,
                       MsgType::PrePrepare}) {
    Message m = sample();
    m.type = type;
    sign_message(m, server);
    if (type == MsgType::ProxyResponse) over_sign_message(m, proxy);
    Bytes wire = m.encode();
    auto view = MessageView::decode(wire);
    ASSERT_TRUE(view.has_value());
    Bytes signing;
    view->signing_bytes_into(signing);
    EXPECT_EQ(signing, m.signing_bytes());
    if (m.signature.has_value()) {
      Bytes over;
      view->over_signing_bytes_into(over);
      EXPECT_EQ(over, m.over_signing_bytes());
    }
    EXPECT_TRUE(verify_message(*view, registry));
    if (type == MsgType::ProxyResponse) {
      EXPECT_TRUE(verify_over_signature(*view, registry));
    }
  }
}

TEST(MessageViewTest, ViewVerifyRejectsWhatLegacyRejects) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey server = registry.enroll("server-0");
  Message m = sample();
  sign_message(m, server);
  Bytes wire = m.encode();
  // Tamper with a byte inside the (signed) payload region: both verifies
  // must fail. The offset is recovered from the view so the test does not
  // hard-code wire geometry.
  auto pristine = MessageView::decode(wire);
  ASSERT_TRUE(pristine.has_value());
  const std::size_t payload_off = static_cast<std::size_t>(
      pristine->payload().data() - wire.data());
  Bytes tampered = wire;
  tampered[payload_off] ^= 0xff;
  auto view = MessageView::decode(tampered);
  ASSERT_TRUE(view.has_value());
  EXPECT_FALSE(verify_message(*view, registry));
  // The re-encoding reference agrees: the materialized record's
  // Message::signing_bytes() does not carry the tag either.
  const Message reference = view->materialize();
  EXPECT_FALSE(registry.verify_tag(
      reference.signing_bytes(), reference.signature->signer.name,
      BytesView(reference.signature->tag.data(),
                reference.signature->tag.size())));

  Message no_sig = sample();
  Bytes no_sig_wire = no_sig.encode();
  auto no_sig_view = MessageView::decode(no_sig_wire);
  ASSERT_TRUE(no_sig_view.has_value());
  EXPECT_FALSE(verify_message(*no_sig_view, registry));
}

TEST(MessageViewTest, RejectsNonCanonicalSignaturePresence) {
  // The encoder writes a signature-presence byte of exactly 0 or 1. Any
  // other value has no encoding, so the decoder rejects it: a byte of 2
  // would otherwise decode as "present" and materialize to a different
  // wire, splitting the verifiers that splice from the wire from the
  // re-encoding reference.
  crypto::KeyRegistry registry(1);
  crypto::SigningKey server = registry.enroll("server-0");
  crypto::SigningKey proxy = registry.enroll("proxy-0");
  Message m = sample();
  m.type = MsgType::ProxyResponse;
  sign_message(m, server);
  over_sign_message(m, proxy);
  const Bytes wire = m.encode();
  auto pristine = MessageView::decode(wire);
  ASSERT_TRUE(pristine.has_value());
  // Both presence bytes sit just before their signer-length fields.
  const auto presence_at = [&](std::string_view signer) {
    return static_cast<std::size_t>(
        reinterpret_cast<const std::uint8_t*>(signer.data()) - wire.data()) -
        8 - 1;
  };
  for (std::size_t at : {presence_at(pristine->signature()->signer),
                         presence_at(pristine->over_signature()->signer)}) {
    ASSERT_EQ(wire[at], 1u);
    Bytes bent = wire;
    bent[at] = 2;
    EXPECT_FALSE(MessageView::decode(bent).has_value()) << "offset " << at;
  }
}

TEST(MessageViewTest, ReaddressedEncodeMatchesMaterializedRewrite) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey server = registry.enroll("server-0");
  Message m = sample();
  m.type = MsgType::Request;
  sign_message(m, server);
  Bytes wire = m.encode();
  auto view = MessageView::decode(wire);
  ASSERT_TRUE(view.has_value());

  for (const std::string& next_hop : {std::string("proxy-9"), std::string()}) {
    Bytes spliced;
    view->encode_readdressed_into(spliced, next_hop);
    Message mutated = m;
    mutated.requester = next_hop;
    EXPECT_EQ(spliced, mutated.encode());
    // The rewrite leaves the signed content intact.
    auto again = MessageView::decode(spliced);
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(verify_message(*again, registry));
  }
}

TEST(MessageViewTest, ProxyResponseEncodeMatchesMaterializedRewrite) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey server = registry.enroll("server-0");
  crypto::SigningKey proxy = registry.enroll("proxy-0");
  Message m = sample();
  m.type = MsgType::Response;
  sign_message(m, server);
  Bytes wire = m.encode();
  auto view = MessageView::decode(wire);
  ASSERT_TRUE(view.has_value());

  // The old materializing path: copy, relabel, re-address, over-sign.
  Message out = m;
  out.type = MsgType::ProxyResponse;
  out.requester = "client-3";
  over_sign_message(out, proxy);

  // The splice path: one over-signature tag computed from the view, the
  // signer's name borrowed from the key.
  Bytes over_bytes;
  view->over_signing_bytes_into(over_bytes);
  Bytes spliced;
  view->encode_proxy_response_into(spliced, "client-3", proxy.id().name,
                                   proxy.sign_tag(over_bytes));
  EXPECT_EQ(spliced, out.encode());

  auto delivered = MessageView::decode(spliced);
  ASSERT_TRUE(delivered.has_value());
  EXPECT_TRUE(verify_message(*delivered, registry));
  EXPECT_TRUE(verify_over_signature(*delivered, registry));
}

// --- the round-trip property ------------------------------------------------

constexpr MsgType kAllTypes[] = {
    MsgType::Request,      MsgType::Response,   MsgType::ProxyResponse,
    MsgType::StateUpdate,  MsgType::Heartbeat,  MsgType::ViewChange,
    MsgType::PrePrepare,   MsgType::PrepareAck, MsgType::StateRequest,
    MsgType::StateReply,
};

Bytes random_field(Rng& rng) {
  // Mostly small, occasionally huge (a snapshot-sized aux), sometimes empty.
  const std::uint64_t shape = rng.below(8);
  std::size_t len = 0;
  if (shape == 0) {
    len = 0;
  } else if (shape == 7) {
    len = 4096 + static_cast<std::size_t>(rng.below(61440));
  } else {
    len = static_cast<std::size_t>(rng.below(96));
  }
  Bytes out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

std::string random_name(Rng& rng) {
  Bytes raw = random_field(rng);
  return std::string(raw.begin(), raw.end());
}

TEST(MessageViewTest, RandomizedRoundTripIsBitIdentical) {
  // encode -> view-decode -> materialize -> re-encode must reproduce the
  // wire bit for bit, across every MsgType, empty/huge fields and every
  // signature combination.
  crypto::KeyRegistry registry(99);
  crypto::SigningKey server = registry.enroll("server-0");
  crypto::SigningKey proxy = registry.enroll("proxy-0");
  Rng rng(321);
  for (int trial = 0; trial < 2000; ++trial) {
    Message m;
    m.type = kAllTypes[rng.below(std::size(kAllTypes))];
    m.view = rng.bits();
    m.seq = rng.bits();
    m.sender_index = static_cast<std::uint32_t>(rng.bits());
    m.request_id = RequestId{random_name(rng), rng.bits()};
    m.requester = random_name(rng);
    m.payload = random_field(rng);
    m.aux = random_field(rng);
    const std::uint64_t sigs = rng.below(3);
    if (sigs >= 1) sign_message(m, server);
    if (sigs == 2) over_sign_message(m, proxy);

    const Bytes wire = m.encode();
    auto view = MessageView::decode(wire);
    ASSERT_TRUE(view.has_value()) << "trial " << trial;
    EXPECT_EQ(view->materialize().encode(), wire) << "trial " << trial;
    Bytes signing;
    view->signing_bytes_into(signing);
    EXPECT_EQ(signing, m.signing_bytes()) << "trial " << trial;
    if (sigs >= 1) {
      EXPECT_TRUE(verify_message(*view, registry)) << "trial " << trial;
    }
    if (sigs == 2) {
      EXPECT_TRUE(verify_over_signature(*view, registry)) << "trial " << trial;
    }
  }
}

// The reference a template must reproduce: the Response Message with these
// fields, signed by sign_message and encoded.
Bytes reference_response(std::uint64_t view, std::uint64_t seq,
                         std::uint32_t sender, const RequestId& rid,
                         const Bytes& payload, const std::string& requester,
                         const crypto::SigningKey& key) {
  Message m;
  m.type = MsgType::Response;
  m.view = view;
  m.seq = seq;
  m.sender_index = sender;
  m.request_id = rid;
  m.requester = requester;
  m.payload = payload;
  sign_message(m, key);
  return m.encode();
}

TEST(SignedResponseTemplateTest, EmitMatchesSignEachCopy) {
  crypto::KeyRegistry registry(7);
  crypto::SigningKey server = registry.enroll("server-0");
  const RequestId rid{"client-7", 19};
  const Bytes payload = bytes_of("response body");
  SignedResponseTemplate tmpl;
  tmpl.rebuild(3, 42, 2, rid.client, rid.seq, payload, server);

  for (const std::string& requester :
       {std::string("client-a"), std::string("a-much-longer-requester-name"),
        std::string()}) {
    Bytes spliced;
    tmpl.emit_into(spliced, requester);
    EXPECT_EQ(spliced,
              reference_response(3, 42, 2, rid, payload, requester, server))
        << "requester '" << requester << "'";

    auto view = MessageView::decode(spliced);
    ASSERT_TRUE(view.has_value());
    EXPECT_TRUE(verify_message(*view, registry));
  }
}

TEST(SignedResponseTemplateTest, EmitReplacesBufferContents) {
  crypto::KeyRegistry registry(7);
  crypto::SigningKey server = registry.enroll("server-0");
  const RequestId rid{"client-7", 19};
  const Bytes payload = bytes_of("response body");
  SignedResponseTemplate tmpl;
  tmpl.rebuild(3, 42, 2, rid.client, rid.seq, payload, server);

  Bytes out = bytes_of("stale pooled-buffer contents");
  tmpl.emit_into(out, "client-b");
  EXPECT_EQ(out, reference_response(3, 42, 2, rid, payload, "client-b", server));
}

TEST(SignedResponseTemplateTest, RebuildNeverLeaksStaleBytes) {
  // One template reused across responses whose client id and payload first
  // shrink and then grow past their earlier sizes: every emit must equal a
  // freshly signed Message, so nothing of an earlier response survives.
  crypto::KeyRegistry registry(7);
  crypto::SigningKey server = registry.enroll("server-1");
  struct Case {
    RequestId rid;
    std::string payload;
  };
  const std::vector<Case> cases = {
      {{"a-fairly-long-client-name-0042", 7}, "VALUE a-fairly-long-value"},
      {{"c1", 8}, "OK"},
      {{"", 0}, ""},
      {{"client-with-an-even-longer-name-than-the-first", 9},
       "VALUE a-value-longer-than-every-earlier-payload-by-far"},
  };
  SignedResponseTemplate tmpl;
  Bytes out;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Bytes payload = bytes_of(cases[i].payload);
    tmpl.rebuild(i, 100 + i, 1, cases[i].rid.client, cases[i].rid.seq,
                 payload, server);
    for (const std::string& requester :
         {std::string("proxy-0"), std::string("a-longer-requester-address")}) {
      tmpl.emit_into(out, requester);
      EXPECT_EQ(out, reference_response(i, 100 + i, 1, cases[i].rid, payload,
                                        requester, server))
          << "case " << i << " requester '" << requester << "'";
      auto view = MessageView::decode(out);
      ASSERT_TRUE(view.has_value());
      EXPECT_TRUE(verify_message(*view, registry));
    }
  }
}

TEST(SignedResponseTemplateTest, EmitBeforeRebuildViolatesContract) {
  SignedResponseTemplate tmpl;
  Bytes out;
  EXPECT_THROW(tmpl.emit_into(out, "client"), ContractViolation);
}

TEST(MessageCoreTest, EncodeMatchesUnsignedMessage) {
  // The borrowed-field encoder is the owning record's encoder: a Message
  // without signatures and its core() encode to the same bytes.
  for (Message m : {sample(), Message{}}) {
    Bytes out = bytes_of("stale");
    m.core().encode_into(out);
    EXPECT_EQ(out, m.encode());
  }
}

TEST(MessageCoreTest, EncodeSignedMatchesSignMessage) {
  // The SMR and replica-core send paths sign straight from borrowed fields:
  // the bytes must equal the owning record signed by sign_message and
  // encoded — for ordering traffic (empty requester, signed bytes = wire
  // prefix) and for the types whose signed form differs from the wire (a
  // requester present, ProxyResponse normalized to Response).
  crypto::KeyRegistry registry(17);
  crypto::SigningKey key = registry.enroll("replica-2");
  for (MsgType type :
       {MsgType::PrePrepare, MsgType::PrepareAck, MsgType::ViewChange,
        MsgType::StateReply, MsgType::Response, MsgType::ProxyResponse}) {
    for (bool with_requester : {false, true}) {
      Message m = sample();
      m.type = type;
      if (!with_requester) m.requester.clear();
      Bytes out = bytes_of("stale bytes that are longer than nothing");
      m.core().encode_signed_into(out, key);
      sign_message(m, key);
      EXPECT_EQ(out, m.encode())
          << "type " << static_cast<int>(type) << " requester "
          << with_requester;
      auto view = MessageView::decode(out);
      ASSERT_TRUE(view.has_value());
      EXPECT_TRUE(verify_message(*view, registry));
    }
  }
}

TEST(MessageViewTest, OverSignatureRejectsUnknownSigners) {
  crypto::KeyRegistry registry(11);
  crypto::SigningKey server = registry.enroll("server-0");
  crypto::KeyRegistry other(13);
  crypto::SigningKey stranger = other.enroll("stranger");

  Message m = sample();
  m.type = MsgType::ProxyResponse;
  sign_message(m, server);
  over_sign_message(m, stranger);  // signer the registry has never enrolled
  Bytes wire = m.encode();
  auto view = MessageView::decode(wire);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(verify_message(*view, registry));
  EXPECT_FALSE(verify_over_signature(*view, registry));
}

}  // namespace
}  // namespace fortress::replication
