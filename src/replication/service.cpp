#include "replication/service.hpp"

#include <array>
#include <string>
#include <string_view>

namespace fortress::replication {

namespace {

/// The whitespace-separated words of a text command, borrowed from the
/// request: the split `std::istringstream >>` makes (C-locale isspace).
/// Commands read at most three words; `count` is the total.
struct Words {
  std::array<std::string_view, 3> at;
  std::size_t count = 0;
};

bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

Words split_words(BytesView request) {
  const std::string_view text(reinterpret_cast<const char*>(request.data()),
                              request.size());
  Words words;
  std::size_t i = 0;
  while (true) {
    while (i < text.size() && is_space(text[i])) ++i;
    if (i == text.size()) return words;
    const std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    if (words.count < words.at.size()) {
      words.at[words.count] = text.substr(start, i - start);
    }
    ++words.count;
  }
}

/// Write the response body `head` + `tail` into `out`, replacing it.
void reply(Bytes& out, std::string_view head, std::string_view tail = {}) {
  out.clear();
  out.reserve(head.size() + tail.size());
  append(out, bytes_view(head));
  append(out, bytes_view(tail));
}

// Snapshot format shared by the map-based services:
// u64 count, then per entry: u64 klen, key bytes, u64 vlen, value bytes.
void serialize_map(const StringMap& m, Bytes& out) {
  std::size_t size = 8;
  for (const auto& [k, v] : m) size += 16 + k.size() + v.size();
  out.clear();
  out.reserve(size);
  append_u64_be(out, m.size());
  for (const auto& [k, v] : m) {
    append_u64_be(out, k.size());
    append(out, bytes_view(k));
    append_u64_be(out, v.size());
    append(out, bytes_view(v));
  }
}

/// Walk a map snapshot, calling visit(key, value) per entry in record
/// order with views into `data`; false as soon as the record runs short.
/// Bytes after the last entry are ignored.
template <typename Visit>
bool walk_map(BytesView data, Visit&& visit) {
  if (data.size() < 8) return false;
  const std::uint64_t count = detail::load_be64(data.data());
  std::size_t off = 8;
  auto field = [&](std::string_view& out) {
    if (data.size() - off < 8) return false;
    const std::uint64_t len = detail::load_be64(data.data() + off);
    off += 8;
    if (len > data.size() - off) return false;
    out = std::string_view(reinterpret_cast<const char*>(data.data()) + off,
                           static_cast<std::size_t>(len));
    off += out.size();
    return true;
  };
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string_view key, value;
    if (!field(key) || !field(value)) return false;
    visit(key, value);
  }
  return true;
}

/// Replace `m` with the snapshot's entries — the first occurrence of a
/// duplicate key wins — or return false and leave `m` untouched when the
/// record is malformed. The refill is one ordered merge into the existing
/// tree: a key already present keeps its node and string capacity, so a
/// backup applying update after update over a stable key set allocates
/// nothing. (Nodes before `it` are the entries placed so far; nodes from
/// `it` on are old ones not yet matched, erased as the walk passes them.
/// Out-of-order or repeated keys stay correct, merely without the reuse.)
bool restore_map(StringMap& m, BytesView data) {
  if (!walk_map(data, [](std::string_view, std::string_view) {})) {
    return false;
  }
  auto it = m.begin();
  walk_map(data, [&](std::string_view key, std::string_view value) {
    while (it != m.end() && std::string_view(it->first) < key) {
      it = m.erase(it);
    }
    if (it != m.end() && std::string_view(it->first) == key) {
      it->second.assign(value);
      ++it;
    } else {
      m.emplace_hint(it, key, value);  // no-op for a repeated key
    }
  });
  m.erase(it, m.end());
  return true;
}

}  // namespace

void KvService::execute(BytesView request, Bytes& out) {
  const Words w = split_words(request);
  if (w.count == 0) return reply(out, "ERR empty");
  const std::string_view cmd = w.at[0];
  if (cmd == "PUT" && w.count >= 3) {
    auto it = data_.find(w.at[1]);
    if (it == data_.end()) {
      data_.emplace(w.at[1], w.at[2]);
    } else {
      it->second.assign(w.at[2]);
    }
    return reply(out, "OK");
  }
  if (cmd == "GET" && w.count >= 2) {
    auto it = data_.find(w.at[1]);
    if (it == data_.end()) return reply(out, "NOTFOUND");
    return reply(out, "VALUE ", it->second);
  }
  if (cmd == "DEL" && w.count >= 2) {
    auto it = data_.find(w.at[1]);
    if (it == data_.end()) return reply(out, "NOTFOUND");
    data_.erase(it);
    return reply(out, "OK");
  }
  if (cmd == "SIZE") {
    return reply(out, "SIZE ", std::to_string(data_.size()));
  }
  return reply(out, "ERR bad-command");
}

void KvService::snapshot(Bytes& out) const { serialize_map(data_, out); }

bool KvService::restore(BytesView snapshot) {
  return restore_map(data_, snapshot);
}

void SessionTokenService::execute(BytesView request, Bytes& out) {
  const Words w = split_words(request);
  if (w.count == 0) return reply(out, "ERR empty");
  const std::string_view cmd = w.at[0];
  if (cmd == "TOKEN" && w.count >= 2) {
    // Non-deterministic: mints a fresh random token. A backup re-executing
    // this request would mint a DIFFERENT token; only state shipping keeps
    // replicas consistent.
    Bytes raw;
    append_u64_be(raw, rng_.bits());
    append_u64_be(raw, rng_.bits());
    std::string token = to_hex(raw);
    reply(out, "TOKEN ", token);
    tokens_.insert_or_assign(std::string(w.at[1]), std::move(token));
    return;
  }
  if (cmd == "CHECK" && w.count >= 3) {
    auto it = tokens_.find(w.at[1]);
    if (it == tokens_.end()) return reply(out, "NOTFOUND");
    return reply(out, it->second == w.at[2] ? "VALID" : "INVALID");
  }
  if (cmd == "GET" && w.count >= 2) {
    auto it = tokens_.find(w.at[1]);
    if (it == tokens_.end()) return reply(out, "NOTFOUND");
    return reply(out, "TOKEN ", it->second);
  }
  return reply(out, "ERR bad-command");
}

void SessionTokenService::snapshot(Bytes& out) const {
  serialize_map(tokens_, out);
}

bool SessionTokenService::restore(BytesView snapshot) {
  return restore_map(tokens_, snapshot);
}

}  // namespace fortress::replication
