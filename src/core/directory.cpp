#include "core/directory.hpp"

#include <algorithm>

#include "replication/message.hpp"

namespace fortress::core {

namespace {

void append_string_list(Bytes& out, const std::vector<std::string>& list) {
  append_u64_be(out, list.size());
  for (const std::string& s : list) {
    append_u64_be(out, s.size());
    append(out, bytes_view(s));
  }
}

std::optional<std::vector<std::string>> read_string_list(BytesView data,
                                                         std::size_t& off) {
  if (off + 8 > data.size()) return std::nullopt;
  std::uint64_t count = read_u64_be(data, off);
  off += 8;
  // A hostile count can exceed what the remaining bytes could possibly
  // hold (every entry costs at least its 8-byte length prefix): reject it
  // before reserving memory for it.
  if (count > (data.size() - off) / 8) return std::nullopt;
  std::vector<std::string> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (off + 8 > data.size()) return std::nullopt;
    std::uint64_t len = read_u64_be(data, off);
    off += 8;
    if (len > data.size() - off) return std::nullopt;
    out.emplace_back(data.begin() + static_cast<std::ptrdiff_t>(off),
                     data.begin() + static_cast<std::ptrdiff_t>(off + len));
    off += len;
  }
  return out;
}

}  // namespace

Bytes Directory::encode() const {
  Bytes out;
  append_u32_be(out, static_cast<std::uint32_t>(replication));
  append_u32_be(out, f);
  append_string_list(out, proxies);
  append_string_list(out, server_principals);
  append_string_list(out, server_addrs);
  return out;
}

std::optional<Directory> Directory::decode(BytesView data) {
  if (data.size() < 8) return std::nullopt;
  Directory d;
  d.replication = static_cast<ReplicationType>(read_u32_be(data, 0));
  d.f = read_u32_be(data, 4);
  std::size_t off = 8;
  auto proxies = read_string_list(data, off);
  if (!proxies) return std::nullopt;
  d.proxies = std::move(*proxies);
  auto principals = read_string_list(data, off);
  if (!principals) return std::nullopt;
  d.server_principals = std::move(*principals);
  auto addrs = read_string_list(data, off);
  if (!addrs) return std::nullopt;
  d.server_addrs = std::move(*addrs);
  if (off != data.size()) return std::nullopt;
  return d;
}

bool authentic_response(const Directory& dir,
                        const replication::MessageView& msg,
                        const crypto::KeyRegistry& registry) {
  auto signed_by = [](const std::optional<replication::SignatureView>& sig,
                      const std::vector<std::string>& principals) {
    return sig && std::find(principals.begin(), principals.end(),
                            sig->signer) != principals.end();
  };
  if (!dir.fortified()) {
    return msg.type() == replication::MsgType::Response &&
           signed_by(msg.signature(), dir.server_principals) &&
           replication::verify_message(msg, registry);
  }
  return msg.type() == replication::MsgType::ProxyResponse &&
         signed_by(msg.signature(), dir.server_principals) &&
         signed_by(msg.over_signature(), dir.proxies) &&
         replication::verify_message(msg, registry) &&
         replication::verify_over_signature(msg, registry);
}

}  // namespace fortress::core
