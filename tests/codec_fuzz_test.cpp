// Hostile-input robustness: every wire decoder must reject (never crash,
// never throw, never over-read) arbitrary and corrupted byte strings. The
// attacker controls the network, so these decoders are the first code that
// touches attacker bytes.
//
// The *Differential* tests below pin MessageView::decode, the only message
// decoder, to the encoder, its independent reference. The wire format is
// length-prefixed and canonical, so two properties together define a
// correct decoder:
//  * for every Message m, decode(m.encode()) accepts and every getter
//    equals m's field;
//  * for every input the decoder accepts, materialize().encode() is that
//    input byte for byte (and the spliced signing bytes equal the
//    re-encoding ones).
// Inputs are random messages plus random bytes, bit flips, truncations and
// extensions, and length-field attacks (>= 50k trials across the suite).
// Each input is decoded from an exactly-sized heap allocation, so a run
// under the asan-ubsan preset turns any out-of-span read by the view into a
// hard failure.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "core/directory.hpp"
#include "osl/probe.hpp"
#include "replication/message.hpp"

namespace fortress {
namespace {

Bytes random_bytes(Rng& rng, std::size_t len) {
  Bytes out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

// True iff `view` (over `n` bytes at `base`) lies entirely inside the input
// allocation. Empty views pass wherever they point (nothing is read).
bool within(BytesView view, const std::uint8_t* base, std::size_t n) {
  if (view.empty()) return true;
  return view.data() >= base && view.data() + view.size() <= base + n;
}

bool within(std::string_view s, const std::uint8_t* base, std::size_t n) {
  return within(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()),
                          s.size()),
                base, n);
}

// Decode one input from an exactly-sized heap copy. If the view accepts it,
// every borrowed span must stay inside the copy and the encoder must
// reproduce the input from the materialized record. Returns whether the
// view accepted.
bool expect_round_trip(BytesView input) {
  auto exact = std::make_unique<std::uint8_t[]>(input.size());
  std::copy(input.begin(), input.end(), exact.get());
  const BytesView data(exact.get(), input.size());

  const auto view = replication::MessageView::decode(data);
  if (!view) return false;

  // Borrowed spans never leave the input allocation.
  const std::uint8_t* base = exact.get();
  EXPECT_TRUE(within(view->payload(), base, data.size()));
  EXPECT_TRUE(within(view->aux(), base, data.size()));
  EXPECT_TRUE(within(view->request_client(), base, data.size()));
  EXPECT_TRUE(within(view->requester(), base, data.size()));
  for (const auto* sig : {&view->signature(), &view->over_signature()}) {
    if (!*sig) continue;
    EXPECT_TRUE(within((*sig)->signer, base, data.size()));
    EXPECT_TRUE(within((*sig)->tag, base, data.size()));
  }

  // The encoder is the decoder's inverse on everything accepted, and the
  // spliced signing bytes match the re-encoding reference.
  const replication::Message record = view->materialize();
  EXPECT_EQ(record.encode(), Bytes(input.begin(), input.end()))
      << "accepted input does not round-trip (size " << data.size() << ")";
  Bytes spliced;
  view->signing_bytes_into(spliced);
  EXPECT_EQ(spliced, record.signing_bytes());
  if (record.signature) {
    view->over_signing_bytes_into(spliced);
    EXPECT_EQ(spliced, record.over_signing_bytes());
  }
  return true;
}

void expect_signature_equals(
    const std::optional<replication::SignatureView>& got,
    const std::optional<crypto::Signature>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (want) EXPECT_EQ(got->materialize(), *want);
}

// Encode `m`: the view must accept the wire, every getter must equal m's
// field, and the wire must round-trip.
void expect_decodes_to(const replication::Message& m) {
  const Bytes wire = m.encode();
  const auto view = replication::MessageView::decode(wire);
  ASSERT_TRUE(view.has_value()) << "encoder output rejected";
  EXPECT_EQ(view->type(), m.type);
  EXPECT_EQ(view->view(), m.view);
  EXPECT_EQ(view->seq(), m.seq);
  EXPECT_EQ(view->sender_index(), m.sender_index);
  EXPECT_EQ(view->request_client(), m.request_id.client);
  EXPECT_EQ(view->request_seq(), m.request_id.seq);
  EXPECT_EQ(view->requester(), m.requester);
  EXPECT_EQ(Bytes(view->payload().begin(), view->payload().end()), m.payload);
  EXPECT_EQ(Bytes(view->aux().begin(), view->aux().end()), m.aux);
  expect_signature_equals(view->signature(), m.signature);
  expect_signature_equals(view->over_signature(), m.over_signature);
  expect_round_trip(wire);
}

std::string random_text(Rng& rng, std::size_t max_len) {
  const auto len = static_cast<std::size_t>(rng.below(max_len + 1));
  Bytes raw = random_bytes(rng, len);
  return std::string(raw.begin(), raw.end());
}

std::optional<crypto::Signature> random_signature(Rng& rng) {
  if (rng.below(2) == 0) return std::nullopt;
  crypto::Signature sig;
  sig.signer.name = random_text(rng, 24);
  for (auto& b : sig.tag) b = static_cast<std::uint8_t>(rng.below(256));
  return sig;
}

// A message with every field random, including arbitrary (unverifiable)
// signature fields: the codec carries them whether or not they verify.
replication::Message random_message(Rng& rng) {
  replication::Message m;
  m.type = static_cast<replication::MsgType>(rng.below(64));
  m.view = rng.bits();
  m.seq = rng.bits();
  m.sender_index = static_cast<std::uint32_t>(rng.bits());
  m.request_id = {random_text(rng, 32), rng.bits()};
  m.requester = random_text(rng, 32);
  m.payload = random_bytes(rng, static_cast<std::size_t>(rng.below(128)));
  m.aux = random_bytes(rng, static_cast<std::size_t>(rng.below(128)));
  m.signature = random_signature(rng);
  m.over_signature = random_signature(rng);
  return m;
}

// A pool of structurally diverse valid messages for mutation fuzzing.
std::vector<replication::Message> valid_messages() {
  std::vector<replication::Message> pool;
  crypto::KeyRegistry registry(77);
  crypto::SigningKey server = registry.enroll("server-0");
  crypto::SigningKey proxy = registry.enroll("proxy-0");

  replication::Message m;
  pool.push_back(m);  // all defaults

  m.type = replication::MsgType::StateUpdate;
  m.view = 7;
  m.seq = 9;
  m.sender_index = 2;
  m.request_id = {"client-a", 3};
  m.requester = "proxy-0";
  m.payload = bytes_of("payload");
  m.aux = bytes_of("snapshot-bytes");
  pool.push_back(m);

  replication::sign_message(m, server);
  pool.push_back(m);

  m.type = replication::MsgType::ProxyResponse;
  m.signature.reset();
  replication::sign_message(m, server);
  replication::over_sign_message(m, proxy);
  pool.push_back(m);

  replication::Message empty_fields;
  empty_fields.type = replication::MsgType::PrepareAck;
  empty_fields.aux = Bytes(64, 0xcd);
  pool.push_back(empty_fields);
  return pool;
}

// The pool's wires, each checked against its message first.
std::vector<Bytes> valid_wires() {
  std::vector<Bytes> wires;
  for (const replication::Message& m : valid_messages()) {
    expect_decodes_to(m);
    wires.push_back(m.encode());
  }
  return wires;
}

TEST(CodecFuzzTest, DifferentialRandomBytes) {
  Rng rng(11);
  for (int trial = 0; trial < 25000; ++trial) {
    std::size_t len = static_cast<std::size_t>(rng.below(250));
    Bytes junk = random_bytes(rng, len);
    expect_round_trip(junk);
    if (HasFatalFailure()) return;
  }
  // Random bytes almost never pass the magic check, so random messages
  // carry the encode-then-decode half of the property.
  for (int trial = 0; trial < 5000; ++trial) {
    expect_decodes_to(random_message(rng));
    if (HasFatalFailure()) return;
  }
}

TEST(CodecFuzzTest, DifferentialBitFlips) {
  const std::vector<Bytes> wires = valid_wires();
  int accepted = 0;
  Rng rng(12);
  for (int trial = 0; trial < 20000; ++trial) {
    Bytes corrupted = wires[trial % wires.size()];
    int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      std::size_t pos = static_cast<std::size_t>(rng.below(corrupted.size()));
      corrupted[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    }
    accepted += expect_round_trip(corrupted);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(accepted, 0);  // the round-trip check is not vacuous
}

TEST(CodecFuzzTest, DifferentialTruncationsAndExtensions) {
  const std::vector<Bytes> wires = valid_wires();
  int accepted = 0;
  // Every prefix of every pool wire (the classic truncation sweep) ...
  for (const Bytes& wire : wires) {
    for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
      accepted += expect_round_trip(BytesView(wire.data(), cut));
      if (HasFatalFailure()) return;
    }
  }
  // ... plus random truncate-then-mutate and trailing-garbage variants.
  Rng rng(13);
  for (int trial = 0; trial < 10000; ++trial) {
    Bytes base = wires[trial % wires.size()];
    if (rng.below(2) == 0) {
      base.resize(static_cast<std::size_t>(rng.below(base.size() + 1)));
    } else {
      Bytes extra = random_bytes(rng, 1 + static_cast<std::size_t>(rng.below(16)));
      base.insert(base.end(), extra.begin(), extra.end());
    }
    if (!base.empty() && rng.below(2) == 0) {
      base[static_cast<std::size_t>(rng.below(base.size()))] =
          static_cast<std::uint8_t>(rng.below(256));
    }
    accepted += expect_round_trip(base);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(accepted, 0);  // the round-trip check is not vacuous
}

TEST(CodecFuzzTest, DifferentialLengthFieldAttacks) {
  // Huge big-endian length fields written at every offset of a valid wire:
  // the view must reject (or round-trip) without over-reading.
  const std::vector<Bytes> wires = valid_wires();
  int accepted = 0;
  for (const Bytes& wire : wires) {
    for (std::size_t pos = 0; pos + 8 <= wire.size(); ++pos) {
      Bytes evil = wire;
      for (int i = 0; i < 8; ++i) {
        evil[pos + static_cast<std::size_t>(i)] = 0xff;
      }
      accepted += expect_round_trip(evil);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(accepted, 0);  // the round-trip check is not vacuous
}

TEST(CodecFuzzTest, DirectoryDecodeSurvivesRandomBytes) {
  Rng rng(4);
  for (int trial = 0; trial < 20000; ++trial) {
    Bytes junk = random_bytes(rng, static_cast<std::size_t>(rng.below(128)));
    EXPECT_NO_THROW({ auto r = core::Directory::decode(junk); (void)r; });
  }
}

TEST(CodecFuzzTest, ProbeScannerSurvivesRandomBytes) {
  Rng rng(5);
  for (int trial = 0; trial < 20000; ++trial) {
    Bytes junk = random_bytes(rng, static_cast<std::size_t>(rng.below(64)));
    EXPECT_NO_THROW({
      (void)osl::decode_probe(junk);
      (void)osl::probe_inside_request(junk);
      (void)osl::is_owned_ack(junk);
    });
  }
}

TEST(CodecFuzzTest, SignedFuzzNeverVerifies) {
  // No random mutation of a signed message may still verify: 20k trials of
  // 1-3 byte-level corruptions on a signed response.
  crypto::KeyRegistry registry(9);
  crypto::SigningKey key = registry.enroll("server-0");
  replication::Message msg;
  msg.type = replication::MsgType::Response;
  msg.request_id = {"client", 1};
  msg.payload = bytes_of("result");
  replication::sign_message(msg, key);
  Bytes wire = msg.encode();
  const Bytes original = msg.signing_bytes();

  Rng rng(6);
  Bytes signing;
  int verified_mutants = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    Bytes corrupted = wire;
    int edits = 1 + static_cast<int>(rng.below(3));
    bool changed = false;
    for (int e = 0; e < edits; ++e) {
      std::size_t pos = static_cast<std::size_t>(rng.below(corrupted.size()));
      std::uint8_t nv = static_cast<std::uint8_t>(rng.below(256));
      if (corrupted[pos] != nv) changed = true;
      corrupted[pos] = nv;
    }
    if (!changed) continue;
    auto r = replication::MessageView::decode(corrupted);
    if (r && replication::verify_message(*r, registry)) {
      // Only acceptable if the decoded core fields are IDENTICAL to the
      // original (mutation hit the non-core routing field in a way that
      // reconstructed the same content).
      r->signing_bytes_into(signing);
      if (signing != original) ++verified_mutants;
    }
  }
  EXPECT_EQ(verified_mutants, 0);
}

}  // namespace
}  // namespace fortress
