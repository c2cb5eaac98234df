// message.hpp — wire format of the replication and FORTRESS protocols.
//
// One self-describing record type covers every protocol message (client
// request, primary-backup state update, SMR ordering traffic, signed
// responses). Fields unused by a message type are left empty. Signatures
// sign the encoding WITHOUT the signature fields (signing_bytes()).
//
// One path out, one path in:
//  * MessageCore is the one encoder input: every field borrowed, every
//    string and bytes field written straight from its view. Every protocol
//    sender fills one over its own state — encode_into for unsigned
//    traffic, encode_signed_into for server-signed messages — so the
//    steady-state send path allocates nothing. Message, the owning record
//    (materialize()'s result, and what tests build and sign with
//    sign_message), encodes through it too.
//  * MessageView::decode is the only decoder. It validates the full
//    structure but keeps string/bytes fields as views borrowed from the
//    input span, and it is the only thing the verifiers accept. A view
//    DIES WHEN THE HANDLER RETURNS (the network recycles the buffer), so
//    anything retained past that point must go through materialize() or a
//    field-level copy. The format is length-prefixed and canonical, so a
//    correct decoder is the encoder's inverse: for every Message m,
//    MessageView::decode(m.encode()) yields m's fields, and for every input
//    the view accepts, materialize().encode() reproduces it byte for byte
//    (fuzzed in codec_fuzz_test).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "crypto/signature.hpp"

namespace fortress::replication {

/// Message types. Numeric values are part of the wire format.
enum class MsgType : std::uint32_t {
  // Client/proxy plane.
  Request = 1,        ///< client/proxy -> servers: execute `payload`
  Response = 2,       ///< server -> requester: signed result
  ProxyResponse = 3,  ///< proxy -> client: over-signed server response

  // Primary-backup plane.
  StateUpdate = 10,  ///< primary -> backups: executed request + new state
  Heartbeat = 11,    ///< primary -> backups: liveness
  ViewChange = 12,   ///< replica -> all: move to view `view`

  // SMR ordering plane.
  PrePrepare = 20,  ///< leader -> replicas: order (view, seq) = payload
  PrepareAck = 21,  ///< replica -> replicas: endorse (view, seq, digest)

  // State transfer (SMR proactive recovery; §2.3).
  StateRequest = 30,  ///< rejoining replica -> all: send me your state
  StateReply = 31,    ///< replica -> rejoiner: seq + snapshot
};

/// Identity of a client request: (client name, client-local sequence).
struct RequestId {
  std::string client;
  std::uint64_t seq = 0;

  auto operator<=>(const RequestId&) const = default;
  std::string to_string() const { return client + "#" + std::to_string(seq); }
};

/// Borrowed form of a message's unsigned fields: what the encoder reads.
/// Views must outlive the encode call only.
struct MessageCore {
  MsgType type = MsgType::Request;
  std::uint64_t view = 0;
  std::uint64_t seq = 0;
  std::uint32_t sender_index = 0;
  std::string_view client{};     ///< request_id.client
  std::uint64_t client_seq = 0;  ///< request_id.seq
  std::string_view requester{};
  BytesView payload{};
  BytesView aux{};

  /// Encode as an unsigned wire message (both signature fields absent)
  /// into `out`, replacing its contents. Bit-identical to the Message with
  /// these fields and no signatures.
  void encode_into(Bytes& out) const;

  /// Encode as a server-signed wire message into `out`, replacing its
  /// contents: bit-identical to the Message with these fields after
  /// sign_message(msg, key) and encode_into. The signer's name is borrowed
  /// from `key` and the tag comes from SigningKey::sign_tag, so nothing is
  /// allocated beyond `out`'s growth.
  void encode_signed_into(Bytes& out, const crypto::SigningKey& key) const;
};

/// The universal protocol record.
struct Message {
  MsgType type = MsgType::Request;
  std::uint64_t view = 0;      ///< view/epoch number
  std::uint64_t seq = 0;       ///< order sequence / state version
  std::uint32_t sender_index = 0;  ///< replica index of the sender (if any)
  RequestId request_id;        ///< request being carried/answered
  std::string requester;       ///< network address to answer to
  Bytes payload;               ///< request body / response body
  Bytes aux;                   ///< snapshot / digest / directory blob
  std::optional<crypto::Signature> signature;        ///< server signature
  std::optional<crypto::Signature> over_signature;   ///< proxy over-signature

  /// This record's unsigned fields, borrowed.
  MessageCore core() const;

  /// Full wire encoding (including signatures).
  Bytes encode() const;

  /// Encode into an existing (typically network-pooled) buffer, replacing
  /// its contents — the allocation-free send path.
  void encode_into(Bytes& out) const;

  /// The byte string a signature covers: everything except the signature
  /// fields. An over-signature covers signing_bytes() PLUS the inner
  /// signature (so the proxy endorses a specific server-signed response).
  Bytes signing_bytes() const;
  Bytes over_signing_bytes() const;
};

/// Borrowed view of one signature field on the wire: signer name and tag
/// point into the decoded input span.
struct SignatureView {
  std::string_view signer;
  BytesView tag;  ///< exactly crypto::Digest-sized

  crypto::Signature materialize() const;
};

/// The fixed-offset prefix of every wire message. MessageView::peek
/// validates only this much — the cheapest possible route/drop decision.
struct MessageHeader {
  MsgType type = MsgType::Request;
  std::uint64_t view = 0;
  std::uint64_t seq = 0;
  std::uint32_t sender_index = 0;
};

/// Zero-copy decode of a wire message: full structural validation, but
/// every string/bytes field is a view borrowed from the input span —
/// nothing is heap-materialized until a handler calls materialize() (or
/// copies a field) because it must retain data past its return.
/// Fixed-width fields are parsed eagerly (they are free); a MessageView is
/// a small stack value whose lifetime must not exceed the buffer it was
/// decoded from.
class MessageView {
 public:
  /// Validate magic + fixed header only; nullopt if `data` cannot begin a
  /// wire message. For handlers that drop/route on type alone.
  static std::optional<MessageHeader> peek(BytesView data);

  /// Validate the whole record; nullopt on malformed input, including a
  /// signature-presence byte other than 0 or 1 (never throws on hostile
  /// bytes, never reads outside `data` — fuzzed against the encoder).
  static std::optional<MessageView> decode(BytesView data);

  MsgType type() const { return header_.type; }
  std::uint64_t view() const { return header_.view; }
  std::uint64_t seq() const { return header_.seq; }
  std::uint32_t sender_index() const { return header_.sender_index; }
  std::string_view request_client() const;
  std::uint64_t request_seq() const { return rid_seq_; }
  std::string_view requester() const;
  BytesView payload() const { return data_.subspan(payload_off_, payload_len_); }
  BytesView aux() const { return data_.subspan(aux_off_, aux_len_); }
  const std::optional<SignatureView>& signature() const { return signature_; }
  const std::optional<SignatureView>& over_signature() const {
    return over_signature_;
  }

  /// The wire bytes this view was decoded from.
  BytesView wire() const { return data_; }

  /// Materialize the request identity (allocates the client string).
  RequestId request_id() const;

  /// Materialize the full owning record: materialize().encode() == wire().
  /// For the few paths that must retain a message (slot proposals, pending
  /// buffers, snapshots).
  Message materialize() const;

  /// Assemble the byte string the server signature covers into `out`
  /// (replacing its contents) by splicing the wire bytes — the requester
  /// field is blanked and ProxyResponse is normalized to Response, exactly
  /// as Message::signing_bytes does, but without re-encoding field by
  /// field. over_signing_bytes_into additionally appends the inner
  /// signature (which must be present).
  void signing_bytes_into(Bytes& out) const;
  void over_signing_bytes_into(Bytes& out) const;

  /// Re-encode this view into `out` with only the requester field replaced
  /// — the proxy forward path (bit-identical to materialize + mutate +
  /// encode, but two splices instead of a full re-encode).
  void encode_readdressed_into(Bytes& out, std::string_view requester) const;

  /// The proxy-response rewrite: this view (a server Response whose inner
  /// signature verified) re-encoded as a ProxyResponse addressed to
  /// `requester` with the over-signature (`over_signer`, `over_tag`)
  /// stapled on. Any over-signature already on the wire is dropped, as the
  /// materializing path did. The signer is borrowed (the proxy's own key
  /// name), so nothing is copied per answered request.
  void encode_proxy_response_into(Bytes& out, std::string_view requester,
                                  std::string_view over_signer,
                                  const crypto::Digest& over_tag) const;

 private:
  BytesView data_;
  MessageHeader header_;
  std::uint64_t rid_seq_ = 0;
  /// Field geometry, as (offset, length) pairs into data_. *_len_off_ marks
  /// the u64 length prefix of the requester field (the splice point for
  /// signing_bytes_into / re-addressed encodes).
  std::size_t client_off_ = 0, client_len_ = 0;
  std::size_t requester_len_off_ = 0, requester_off_ = 0, requester_len_ = 0;
  std::size_t payload_off_ = 0, payload_len_ = 0;
  std::size_t aux_off_ = 0, aux_len_ = 0;
  std::size_t sig_off_ = 0;   ///< inner-signature presence byte
  std::size_t over_off_ = 0;  ///< over-signature presence byte
  std::optional<SignatureView> signature_;
  std::optional<SignatureView> over_signature_;
};

/// Sign `msg` in place as a server response (sets msg.signature).
void sign_message(Message& msg, const crypto::SigningKey& key);

/// Over-sign `msg` in place as a proxy (sets msg.over_signature).
/// Precondition: msg.signature already present.
void over_sign_message(Message& msg, const crypto::SigningKey& key);

// --- verify -----------------------------------------------------------------
// Every verifier takes a decoded view: the byte string a signature covers is
// spliced from the wire into a per-thread scratch buffer, so the verify path
// allocates nothing and never materializes the message.

/// Verify the server signature against `registry`.
bool verify_message(const MessageView& m, const crypto::KeyRegistry& registry);

/// Verify the server signature against an explicit precomputed schedule
/// (crypto::KeyRegistry::schedule_for) — the amortized per-sender path:
/// the caller has already matched the claimed signer to the principal the
/// schedule belongs to (e.g. by the message's sender_index).
bool verify_message(const MessageView& m, const crypto::HmacKey& schedule);

/// THE indexed-peer verify, shared by every per-message verifier (proxy
/// checking server responses, SMR replica checking ordering traffic): the
/// message is accepted only when its signer is exactly
/// names[m.sender_index()] and the signature verifies under that
/// principal's key — so a peer cannot speak (or vote) under an index that
/// is not its own. A missing signature, an out-of-range index or a
/// signer/index mismatch never verifies. The cached schedule is used when
/// resolved; an unresolved (nullptr) entry falls back to the registry's
/// lookup of the same name. `schedules` is index-aligned with `names`.
bool verify_from_indexed_peer(const MessageView& m,
                              std::span<const crypto::HmacKey* const> schedules,
                              std::span<const std::string> names,
                              const crypto::KeyRegistry& registry);

/// Verify the proxy over-signature (and require the inner one to be present).
bool verify_over_signature(const MessageView& m,
                           const crypto::KeyRegistry& registry);

/// A signed response fan-out template: sign ONCE, then splice each
/// recipient's address into precomputed wire bytes. Because signatures
/// cover the requester-blanked form (see Message::signing_bytes), every
/// copy of a response fanned out to N requesters carries the SAME tag —
/// the template hoists that invariant: after rebuild(view, seq, sender,
/// client, client_seq, payload, key), emit_into(out, r) is bit-identical to
/// the Response Message with those fields and requester r, signed by
/// sign_message and encoded — at one signature and zero re-encodes for all
/// N.
///
/// Each replica keeps one and rebuilds it in place per fan-out
/// (ReplicaCore::respond): the wire buffer's capacity is reused, so a
/// steady-state rebuild allocates nothing.
class SignedResponseTemplate {
 public:
  /// Re-encode the requester-blanked Response and sign it as `key`,
  /// replacing whatever the template held.
  void rebuild(std::uint64_t view, std::uint64_t seq,
               std::uint32_t sender_index, std::string_view client,
               std::uint64_t client_seq, BytesView payload,
               const crypto::SigningKey& key);

  /// Emit the signed wire encoding addressed to `requester` into `out`
  /// (replacing its contents). Precondition: rebuild() was called.
  void emit_into(Bytes& out, std::string_view requester) const;

 private:
  /// The blank-requester encoding + signature + absent over-signature.
  Bytes wire_;
  /// Offset of the (zero) requester length field: emits splice there.
  std::size_t split_ = 0;
};

}  // namespace fortress::replication
