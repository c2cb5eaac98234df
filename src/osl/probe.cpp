#include "osl/probe.hpp"

#include <cstring>

namespace fortress::osl {

Bytes encode_probe(RandKey guess) {
  Bytes out;
  encode_probe_into(out, guess);
  return out;
}

void encode_probe_into(Bytes& out, RandKey guess) {
  out.clear();
  append_u32_be(out, kProbeMagic);
  append_u64_be(out, guess);
}

std::optional<RandKey> decode_probe(BytesView payload) {
  if (payload.size() != 12) return std::nullopt;
  if (read_u32_be(payload, 0) != kProbeMagic) return std::nullopt;
  return read_u64_be(payload, 4);
}

std::optional<RandKey> probe_inside_request(BytesView payload) {
  // This scan runs in osl::Machine::on_message for EVERY request-parsing
  // delivery, so it hops between candidate positions with memchr on the
  // magic's first octet instead of re-reading a u32 at every offset; the
  // first full magic match wins, exactly as the byte-wise walk did.
  if (payload.size() < 12) return std::nullopt;
  const std::uint8_t* const base = payload.data();
  const std::uint8_t lead = static_cast<std::uint8_t>(kProbeMagic >> 24);
  const std::size_t last = payload.size() - 12;
  std::size_t off = 0;
  while (off <= last) {
    const void* hit = std::memchr(base + off, lead, last - off + 1);
    if (hit == nullptr) break;
    off = static_cast<std::size_t>(static_cast<const std::uint8_t*>(hit) -
                                   base);
    if (read_u32_be(payload, off) == kProbeMagic) {
      return read_u64_be(payload, off + 4);
    }
    ++off;
  }
  return std::nullopt;
}

void encode_owned_ack_into(Bytes& out, RandKey key) {
  out.clear();
  append_u32_be(out, kProbeOwnedMagic);
  append_u64_be(out, key);
}

bool is_owned_ack(BytesView payload) {
  return payload.size() == 12 && read_u32_be(payload, 0) == kProbeOwnedMagic;
}

}  // namespace fortress::osl
