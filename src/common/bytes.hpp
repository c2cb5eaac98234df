// bytes.hpp — byte-buffer utilities shared by the crypto and network layers.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fortress {

/// Raw octet buffer. Value semantics; used for wire messages and digests.
using Bytes = std::vector<std::uint8_t>;

/// Read-only view over octets (does not own).
using BytesView = std::span<const std::uint8_t>;

namespace detail {
/// Out-of-line cold path so the inlined readers carry no throw machinery.
[[noreturn]] void throw_short_read(const char* what);

inline std::uint64_t host_to_be64(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(v);
  } else {
    return v;
  }
}
inline std::uint32_t host_to_be32(std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap32(v);
  } else {
    return v;
  }
}

/// Unchecked big-endian loads for scanners that have already validated the
/// remaining length themselves (the zero-copy decoder's inner loop).
inline std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return host_to_be64(v);
}
inline std::uint32_t load_be32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return host_to_be32(v);
}
/// Unchecked big-endian stores, the loads' mirror.
inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  v = host_to_be64(v);
  std::memcpy(p, &v, 8);
}
inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  v = host_to_be32(v);
  std::memcpy(p, &v, 4);
}
}  // namespace detail

/// Encode a buffer as lowercase hex ("deadbeef").
std::string to_hex(BytesView data);

/// Decode lowercase/uppercase hex into bytes. Throws std::invalid_argument on
/// odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

/// Copy a string's characters into a byte buffer (no encoding change).
Bytes bytes_of(std::string_view s);

/// Borrow a string's characters as bytes (no copy; lives as long as `s`).
inline BytesView bytes_view(std::string_view s) {
  return BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

/// Interpret a byte buffer as a string (no encoding change).
std::string string_of(BytesView data);

/// Append the big-endian encoding of a 64-bit integer to `out`.
/// Inline, single store + byte swap: length prefixes are the inner loop of
/// the wire encoders, as the reads below are of the decoders.
inline void append_u64_be(Bytes& out, std::uint64_t v) {
  const std::uint64_t be = detail::host_to_be64(v);
  const std::uint8_t* p = reinterpret_cast<const std::uint8_t*>(&be);
  out.insert(out.end(), p, p + 8);
}

/// Append the big-endian encoding of a 32-bit integer to `out`.
inline void append_u32_be(Bytes& out, std::uint32_t v) {
  const std::uint32_t be = detail::host_to_be32(v);
  const std::uint8_t* p = reinterpret_cast<const std::uint8_t*>(&be);
  out.insert(out.end(), p, p + 4);
}

/// Read a big-endian 64-bit integer from `data` at `offset`.
/// Throws std::out_of_range if fewer than 8 bytes remain.
/// Inline: these reads are the inner loop of the zero-copy wire decoders
/// (a MessageView::decode is ~10 of them), where an out-of-line call per
/// field read dominated the scan.
inline std::uint64_t read_u64_be(BytesView data, std::size_t offset) {
  if (offset + 8 > data.size()) {
    detail::throw_short_read("read_u64_be: buffer too small");
  }
  std::uint64_t v;
  std::memcpy(&v, data.data() + offset, 8);
  return detail::host_to_be64(v);
}

/// Read a big-endian 32-bit integer from `data` at `offset`.
/// Throws std::out_of_range if fewer than 4 bytes remain.
inline std::uint32_t read_u32_be(BytesView data, std::size_t offset) {
  if (offset + 4 > data.size()) {
    detail::throw_short_read("read_u32_be: buffer too small");
  }
  std::uint32_t v;
  std::memcpy(&v, data.data() + offset, 4);
  return detail::host_to_be32(v);
}

/// Append `data` to `out`.
void append(Bytes& out, BytesView data);

/// Constant-time equality (length leak only); used for MAC comparison.
bool equal_constant_time(BytesView a, BytesView b);

}  // namespace fortress
