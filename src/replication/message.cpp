#include "replication/message.hpp"

#include <cstring>

#include "common/check.hpp"

namespace fortress::replication {

namespace {

constexpr std::uint32_t kWireMagic = 0x46544d47;  // "FTMG"

void append_string(Bytes& out, const std::string& s) {
  append_u64_be(out, s.size());
  append(out, bytes_of(s));
}

void append_bytes_field(Bytes& out, const Bytes& b) {
  append_u64_be(out, b.size());
  append(out, b);
}

void append_signature(Bytes& out, const std::optional<crypto::Signature>& sig) {
  out.push_back(sig.has_value() ? 1 : 0);
  if (!sig) return;
  append_string(out, sig->signer.name);
  append(out, BytesView(sig->tag.data(), sig->tag.size()));
}

void encode_core_into(Bytes& out, const Message& m) {
  append_u32_be(out, kWireMagic);
  append_u32_be(out, static_cast<std::uint32_t>(m.type));
  append_u64_be(out, m.view);
  append_u64_be(out, m.seq);
  append_u32_be(out, m.sender_index);
  append_string(out, m.request_id.client);
  append_u64_be(out, m.request_id.seq);
  append_string(out, m.requester);
  append_bytes_field(out, m.payload);
  append_bytes_field(out, m.aux);
}

Bytes encode_core(const Message& m) {
  Bytes out;
  encode_core_into(out, m);
  return out;
}

}  // namespace

Bytes Message::signing_bytes() const {
  // Signatures cover the semantic content, not routing metadata:
  //  * `requester` is rewritten at each forwarding hop (server -> proxy ->
  //    client), so it is excluded (blanked);
  //  * a ProxyResponse is the same server-signed object as a Response with
  //    an endorsement stapled on, so the type is normalized — the server's
  //    signature survives the proxy relabeling. All other type pairs remain
  //    distinct, so protocol messages cannot be re-purposed across planes.
  Message canonical = *this;
  canonical.requester.clear();
  if (canonical.type == MsgType::ProxyResponse) {
    canonical.type = MsgType::Response;
  }
  return encode_core(canonical);
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
  encode_core_into(out, *this);
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
  append_u64_be(out, requester.size());
  append(out, BytesView(reinterpret_cast<const std::uint8_t*>(requester.data()),
                        requester.size()));
  append(out, data_.subspan(requester_off_ + requester_len_));
}

void MessageView::encode_proxy_response_into(
    Bytes& out, std::string_view requester,
    const crypto::Signature& over) const {
  FORTRESS_EXPECTS(signature_.has_value());
  out.clear();
  append(out, data_.subspan(0, 4));
  append_u32_be(out, static_cast<std::uint32_t>(MsgType::ProxyResponse));
  append(out, data_.subspan(8, requester_len_off_ - 8));
  append_u64_be(out, requester.size());
  append(out, BytesView(reinterpret_cast<const std::uint8_t*>(requester.data()),
                        requester.size()));
  // payload, aux and the inner signature, verbatim; then the fresh
  // over-signature in place of whatever followed.
  const std::size_t requester_end = requester_off_ + requester_len_;
  append(out, data_.subspan(requester_end, over_off_ - requester_end));
  append_signature(out, over);
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
  if (m.signature() && m.sender_index() < schedules.size()) {
    const crypto::HmacKey* schedule = schedules[m.sender_index()];
    if (schedule != nullptr &&
        m.signature()->signer == names[m.sender_index()]) {
      return verify_message(m, *schedule);
    }
  }
  return verify_message(m, registry);
}

bool verify_over_signature(const MessageView& m,
                           const crypto::KeyRegistry& registry) {
  if (!m.signature() || !m.over_signature()) return false;
  Bytes& scratch = verify_scratch();
  m.over_signing_bytes_into(scratch);
  return registry.verify_tag(scratch, m.over_signature()->signer,
                             m.over_signature()->tag);
}

SignedResponseTemplate::SignedResponseTemplate(const Message& core,
                                               const crypto::SigningKey& key) {
  Message canonical = core;
  canonical.requester.clear();
  canonical.signature.reset();
  canonical.over_signature.reset();

  // The signature covers the requester-blanked, type-normalized core —
  // identical for every recipient (this is what makes the template sound).
  Message signing = canonical;
  if (signing.type == MsgType::ProxyResponse) signing.type = MsgType::Response;
  const crypto::Signature sig = key.sign(encode_core(signing));

  // Split the blank-requester core at the requester length field; emits
  // splice each address between the halves.
  const Bytes blank = encode_core(canonical);
  const std::size_t split = 28 + 8 + canonical.request_id.client.size() + 8;
  prefix_.assign(blank.begin(), blank.begin() + static_cast<std::ptrdiff_t>(split));
  suffix_.assign(blank.begin() + static_cast<std::ptrdiff_t>(split + 8),
                 blank.end());
  append_signature(suffix_, sig);
  suffix_.push_back(0);  // no over-signature
}

void SignedResponseTemplate::emit_into(Bytes& out,
                                       std::string_view requester) const {
  out.clear();
  out.reserve(prefix_.size() + 8 + requester.size() + suffix_.size());
  append(out, prefix_);
  append_u64_be(out, requester.size());
  append(out,
         BytesView(reinterpret_cast<const std::uint8_t*>(requester.data()),
                   requester.size()));
  append(out, suffix_);
}

}  // namespace fortress::replication
