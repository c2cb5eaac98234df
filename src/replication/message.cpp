#include "replication/message.hpp"

#include <cstring>

#include "common/check.hpp"

namespace fortress::replication {

namespace {

constexpr std::uint32_t kWireMagic = 0x46544d47;  // "FTMG"

// The one field encoder: u64 length prefix, then the bytes, straight from
// the borrowed view.
void append_field(Bytes& out, BytesView b) {
  append_u64_be(out, b.size());
  append(out, b);
}

void append_field(Bytes& out, std::string_view s) {
  append_field(out, bytes_view(s));
}

void append_signature(Bytes& out, std::string_view signer,
                      const crypto::Digest& tag) {
  out.push_back(1);
  append_field(out, signer);
  append(out, BytesView(tag.data(), tag.size()));
}

void append_signature(Bytes& out, const std::optional<crypto::Signature>& sig) {
  if (!sig) {
    out.push_back(0);
    return;
  }
  append_signature(out, sig->signer.name, sig->tag);
}

void append_core(Bytes& out, const MessageCore& m) {
  append_u32_be(out, kWireMagic);
  append_u32_be(out, static_cast<std::uint32_t>(m.type));
  append_u64_be(out, m.view);
  append_u64_be(out, m.seq);
  append_u32_be(out, m.sender_index);
  append_field(out, m.client);
  append_u64_be(out, m.client_seq);
  append_field(out, m.requester);
  append_field(out, m.payload);
  append_field(out, m.aux);
}

}  // namespace

void MessageCore::encode_into(Bytes& out) const {
  out.clear();
  append_core(out, *this);
  out.push_back(0);  // no signature
  out.push_back(0);  // no over-signature
}

void MessageCore::encode_signed_into(Bytes& out,
                                     const crypto::SigningKey& key) const {
  // The signature covers the canonical core (see Message::signing_bytes):
  // the requester blanked and ProxyResponse normalized to Response. When
  // neither rewrite applies — all ordering traffic — the signed bytes ARE
  // the wire prefix, so the core is encoded once.
  MessageCore canonical = *this;
  canonical.requester = {};
  if (canonical.type == MsgType::ProxyResponse) {
    canonical.type = MsgType::Response;
  }
  out.clear();
  append_core(out, canonical);
  const crypto::Digest tag = key.sign_tag(out);
  if (!requester.empty() || type != canonical.type) {
    out.clear();
    append_core(out, *this);
  }
  append_signature(out, key.id().name, tag);
  out.push_back(0);  // no over-signature
}

MessageCore Message::core() const {
  return {type,           view,      seq,     sender_index, request_id.client,
          request_id.seq, requester, payload, aux};
}

Bytes Message::signing_bytes() const {
  // Signatures cover the semantic content, not routing metadata:
  //  * `requester` is rewritten at each forwarding hop (server -> proxy ->
  //    client), so it is excluded (blanked);
  //  * a ProxyResponse is the same server-signed object as a Response with
  //    an endorsement stapled on, so the type is normalized — the server's
  //    signature survives the proxy relabeling. All other type pairs remain
  //    distinct, so protocol messages cannot be re-purposed across planes.
  MessageCore canonical = core();
  canonical.requester = {};
  if (canonical.type == MsgType::ProxyResponse) {
    canonical.type = MsgType::Response;
  }
  Bytes out;
  append_core(out, canonical);
  return out;
}

Bytes Message::over_signing_bytes() const {
  FORTRESS_EXPECTS(signature.has_value());
  Bytes out = signing_bytes();
  append_signature(out, signature);
  return out;
}

Bytes Message::encode() const {
  Bytes out;
  encode_into(out);
  return out;
}

void Message::encode_into(Bytes& out) const {
  out.clear();
  append_core(out, core());
  append_signature(out, signature);
  append_signature(out, over_signature);
}

crypto::Signature SignatureView::materialize() const {
  crypto::Signature sig;
  sig.signer.name.assign(signer.begin(), signer.end());
  std::memcpy(sig.tag.data(), tag.data(), sig.tag.size());
  return sig;
}

std::optional<MessageHeader> MessageView::peek(BytesView data) {
  if (data.size() < 28) return std::nullopt;
  if (read_u32_be(data, 0) != kWireMagic) return std::nullopt;
  MessageHeader h;
  h.type = static_cast<MsgType>(read_u32_be(data, 4));
  h.view = read_u64_be(data, 8);
  h.seq = read_u64_be(data, 16);
  h.sender_index = read_u32_be(data, 24);
  return h;
}

std::optional<MessageView> MessageView::decode(BytesView data) {
  // Offsets only; no heap, no redundant bounds checks (every load is
  // guarded by an explicit remaining-length comparison, which also defeats
  // the offset wrap a hostile huge length field would otherwise cause), and
  // the view is built in place inside the returned optional. The first
  // failure rejects.
  std::optional<MessageView> out;
  const std::size_t n = data.size();
  const std::uint8_t* const p = data.data();
  if (n < 28 || detail::load_be32(p) != kWireMagic) return out;
  MessageView& v = out.emplace();
  v.data_ = data;
  v.header_.type = static_cast<MsgType>(detail::load_be32(p + 4));
  v.header_.view = detail::load_be64(p + 8);
  v.header_.seq = detail::load_be64(p + 16);
  v.header_.sender_index = detail::load_be32(p + 24);
  std::size_t off = 28;
  auto field = [&](std::size_t& f_off, std::size_t& f_len) {
    if (n - off < 8) return false;
    const std::uint64_t len = detail::load_be64(p + off);
    off += 8;
    if (len > n - off) return false;
    f_off = off;
    f_len = static_cast<std::size_t>(len);
    off += f_len;
    return true;
  };
  auto signature = [&](std::optional<SignatureView>& sig, std::size_t& at) {
    at = off;
    if (n - off < 1) return false;
    // The encoder writes presence as exactly 0 or 1; anything else has no
    // encoding, so it is malformed (the format stays canonical).
    const std::uint8_t present = p[off++];
    if (present == 0) return true;
    if (present != 1) return false;
    std::size_t signer_off = 0, signer_len = 0;
    if (!field(signer_off, signer_len)) return false;
    if (n - off < crypto::Digest{}.size()) return false;
    SignatureView& sv = sig.emplace();
    sv.signer = std::string_view(reinterpret_cast<const char*>(p) + signer_off,
                                 signer_len);
    sv.tag = data.subspan(off, crypto::Digest{}.size());
    off += crypto::Digest{}.size();
    return true;
  };
  const bool ok = field(v.client_off_, v.client_len_) && n - off >= 8 &&
                  (v.rid_seq_ = detail::load_be64(p + off), off += 8,
                   v.requester_len_off_ = off, true) &&
                  field(v.requester_off_, v.requester_len_) &&
                  field(v.payload_off_, v.payload_len_) &&
                  field(v.aux_off_, v.aux_len_) &&
                  signature(v.signature_, v.sig_off_) &&
                  signature(v.over_signature_, v.over_off_) && off == n;
  if (!ok) out.reset();
  return out;
}

std::string_view MessageView::request_client() const {
  return std::string_view(
      reinterpret_cast<const char*>(data_.data()) + client_off_, client_len_);
}

std::string_view MessageView::requester() const {
  return std::string_view(
      reinterpret_cast<const char*>(data_.data()) + requester_off_,
      requester_len_);
}

RequestId MessageView::request_id() const {
  return RequestId{std::string(request_client()), rid_seq_};
}

Message MessageView::materialize() const {
  Message m;
  m.type = header_.type;
  m.view = header_.view;
  m.seq = header_.seq;
  m.sender_index = header_.sender_index;
  m.request_id.client.assign(request_client());
  m.request_id.seq = rid_seq_;
  m.requester.assign(requester());
  m.payload.assign(payload().begin(), payload().end());
  m.aux.assign(aux().begin(), aux().end());
  if (signature_) m.signature = signature_->materialize();
  if (over_signature_) m.over_signature = over_signature_->materialize();
  return m;
}

void MessageView::signing_bytes_into(Bytes& out) const {
  // The wire already IS the core encoding up to the aux field; the signed
  // form differs only in the (blanked) requester and the ProxyResponse ->
  // Response type normalization, so splice instead of re-encoding.
  out.clear();
  append(out, data_.subspan(0, 4));
  if (header_.type == MsgType::ProxyResponse) {
    append_u32_be(out, static_cast<std::uint32_t>(MsgType::Response));
  } else {
    append(out, data_.subspan(4, 4));
  }
  append(out, data_.subspan(8, requester_len_off_ - 8));
  append_u64_be(out, 0);  // blanked requester
  const std::size_t requester_end = requester_off_ + requester_len_;
  const std::size_t core_end = aux_off_ + aux_len_;
  append(out, data_.subspan(requester_end, core_end - requester_end));
}

void MessageView::over_signing_bytes_into(Bytes& out) const {
  FORTRESS_EXPECTS(signature_.has_value());
  signing_bytes_into(out);
  // The wire's inner-signature field is byte-identical to what
  // append_signature would produce.
  append(out, data_.subspan(sig_off_, over_off_ - sig_off_));
}

void MessageView::encode_readdressed_into(Bytes& out,
                                          std::string_view requester) const {
  out.clear();
  append(out, data_.subspan(0, requester_len_off_));
  append_field(out, requester);
  append(out, data_.subspan(requester_off_ + requester_len_));
}

void MessageView::encode_proxy_response_into(
    Bytes& out, std::string_view requester, std::string_view over_signer,
    const crypto::Digest& over_tag) const {
  FORTRESS_EXPECTS(signature_.has_value());
  out.clear();
  append(out, data_.subspan(0, 4));
  append_u32_be(out, static_cast<std::uint32_t>(MsgType::ProxyResponse));
  append(out, data_.subspan(8, requester_len_off_ - 8));
  append_field(out, requester);
  // payload, aux and the inner signature, verbatim; then the fresh
  // over-signature in place of whatever followed.
  const std::size_t requester_end = requester_off_ + requester_len_;
  append(out, data_.subspan(requester_end, over_off_ - requester_end));
  append_signature(out, over_signer, over_tag);
}

void sign_message(Message& msg, const crypto::SigningKey& key) {
  msg.signature = key.sign(msg.signing_bytes());
}

void over_sign_message(Message& msg, const crypto::SigningKey& key) {
  FORTRESS_EXPECTS(msg.signature.has_value());
  msg.over_signature = key.sign(msg.over_signing_bytes());
}

namespace {

// Per-thread splice target for the view verifiers. Campaign trials are
// single-threaded within a worker, so this introduces no cross-trial state:
// the buffer's CONTENTS never outlive one verify call, only its capacity.
Bytes& verify_scratch() {
  thread_local Bytes scratch;
  return scratch;
}

}  // namespace

bool verify_message(const MessageView& m, const crypto::HmacKey& schedule) {
  if (!m.signature()) return false;
  Bytes& scratch = verify_scratch();
  m.signing_bytes_into(scratch);
  return crypto::KeyRegistry::verify_tag_with(schedule, scratch,
                                              m.signature()->tag);
}

bool verify_message(const MessageView& m, const crypto::KeyRegistry& registry) {
  if (!m.signature()) return false;
  Bytes& scratch = verify_scratch();
  m.signing_bytes_into(scratch);
  return registry.verify_tag(scratch, m.signature()->signer,
                             m.signature()->tag);
}

bool verify_from_indexed_peer(const MessageView& m,
                              std::span<const crypto::HmacKey* const> schedules,
                              std::span<const std::string> names,
                              const crypto::KeyRegistry& registry) {
  const std::uint32_t index = m.sender_index();
  if (!m.signature() || index >= names.size() ||
      m.signature()->signer != names[index]) {
    return false;
  }
  const crypto::HmacKey* schedule =
      index < schedules.size() ? schedules[index] : nullptr;
  return schedule != nullptr ? verify_message(m, *schedule)
                             : verify_message(m, registry);
}

bool verify_over_signature(const MessageView& m,
                           const crypto::KeyRegistry& registry) {
  if (!m.signature() || !m.over_signature()) return false;
  Bytes& scratch = verify_scratch();
  m.over_signing_bytes_into(scratch);
  return registry.verify_tag(scratch, m.over_signature()->signer,
                             m.over_signature()->tag);
}

void SignedResponseTemplate::rebuild(std::uint64_t view, std::uint64_t seq,
                                     std::uint32_t sender_index,
                                     std::string_view client,
                                     std::uint64_t client_seq,
                                     BytesView payload,
                                     const crypto::SigningKey& key) {
  // The signature covers the requester-blanked Response core — identical
  // for every recipient (this is what makes the template sound) — and that
  // core is also the template's wire prefix.
  wire_.clear();
  append_core(wire_, MessageCore{MsgType::Response, view, seq, sender_index,
                                 client, client_seq, {}, payload, {}});
  const crypto::Digest tag = key.sign_tag(wire_);
  append_signature(wire_, key.id().name, tag);
  wire_.push_back(0);  // no over-signature
  split_ = 28 + 8 + client.size() + 8;
}

void SignedResponseTemplate::emit_into(Bytes& out,
                                       std::string_view requester) const {
  FORTRESS_EXPECTS(!wire_.empty());
  const BytesView wire(wire_);
  out.clear();
  out.reserve(wire.size() + requester.size());
  append(out, wire.first(split_));
  append_field(out, requester);
  append(out, wire.subspan(split_ + 8));
}

}  // namespace fortress::replication
