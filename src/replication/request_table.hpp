// request_table.hpp — flat hashed per-request state for replicas.
//
// Replicas and proxies track several facts per client request (who asked,
// the cached response, whether it is proposed/pending). The original
// implementation spread them over parallel std::map<RequestId, ...> trees —
// four rb-tree walks with a string comparison at every node, per message.
// This table consolidates them: one open-addressing index keyed on a
// precomputed 64-bit hash of (client, seq) over a vector of per-request
// records, probed with BORROWED keys (the string_view fields of a
// MessageView) so the lookup allocates nothing.
//
// Records are trivially copyable: every variable-length fact lives in
// storage the table owns, shared by all its records —
//  * client ids, responses and other byte strings in one ByteArena (a
//    record holds a ByteRef into it);
//  * ascending id sets (who asked, who was answered) in one id arena (a
//    record holds an IdSetRef into it).
// clear() keeps every buffer's capacity, so a pooled replica reaches a
// steady state in which inserting a record allocates nothing. Each index
// slot carries the top 32 bits of its record's hash as a tag, so a probe
// touches a record only when its tag matches.
//
// Records are never removed — replicas flip per-record flags instead
// (matching the old maps, which only ever grew within a trial); clear()
// drops everything. Iteration over entries() is insertion-ordered; callers
// that need the old std::map rid-order (SMR re-proposal after a view
// change) sort the handful of records they collect.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "net/interner.hpp"

namespace fortress::replication {

/// A byte string inside a ByteArena.
struct ByteRef {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
};

/// Append-only storage for many short byte strings, addressed by ByteRef.
/// Re-assigning a ref overwrites in place when the new value fits and
/// appends otherwise (the old bytes stay until clear()). Views returned by
/// view()/chars() are invalidated by the next assign().
class ByteArena {
 public:
  BytesView view(ByteRef r) const {
    if (r.len == 0) return {};
    return BytesView(bytes_.data() + r.off, r.len);
  }
  std::string_view chars(ByteRef r) const {
    if (r.len == 0) return {};
    return std::string_view(reinterpret_cast<const char*>(bytes_.data()) + r.off,
                            r.len);
  }

  /// Point `r` at a copy of `data`. `data` may borrow from this arena.
  void assign(ByteRef& r, BytesView data) {
    if (data.size() <= r.len) {
      if (!data.empty()) {
        std::memmove(bytes_.data() + r.off, data.data(), data.size());
      }
      r.len = static_cast<std::uint32_t>(data.size());
      return;
    }
    const std::uint8_t* const base = bytes_.data();
    const bool inside =
        !bytes_.empty() && !std::less<const std::uint8_t*>{}(data.data(), base) &&
        std::less<const std::uint8_t*>{}(data.data(), base + bytes_.size());
    const std::size_t src = inside ? static_cast<std::size_t>(data.data() - base) : 0;
    const std::size_t off = bytes_.size();
    FORTRESS_EXPECTS(off + data.size() <= 0xffffffffu);
    bytes_.resize(off + data.size());
    std::memcpy(bytes_.data() + off, inside ? bytes_.data() + src : data.data(),
                data.size());
    r.off = static_cast<std::uint32_t>(off);
    r.len = static_cast<std::uint32_t>(data.size());
  }
  void assign(ByteRef& r, std::string_view s) { assign(r, bytes_view(s)); }

  /// Forget every string; the capacity is kept.
  void clear() { bytes_.clear(); }

 private:
  Bytes bytes_;
};

/// An ascending set of host ids inside a RequestTable's id arena.
struct IdSetRef {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
  std::uint32_t cap = 0;
};

/// The key every table record carries: `Entry` types derive from it.
struct RequestKey {
  std::uint64_t hash = 0;
  std::uint64_t seq = 0;
  ByteRef client;
};

/// 64-bit hash of a request identity: FNV-1a over the client bytes with the
/// sequence number absorbed through a SplitMix64-style finalizer. Computed
/// once per message from the borrowed view, then carried alongside the key.
inline std::uint64_t request_key_hash(std::string_view client,
                                      std::uint64_t seq) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (const char c : client) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  h ^= seq + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

/// Open-addressing index over a vector of per-request records. `Entry`
/// derives from RequestKey and is trivially copyable; its other fields are
/// the caller's, with variable-length data held through ByteRef/IdSetRef
/// handles resolved by this table. References into entries() are
/// invalidated by find_or_insert (vector growth), and views returned by
/// client()/bytes()/ids() by any call that stores bytes or ids — callers
/// must not hold one across such a call.
template <typename Entry>
class RequestTable {
  static_assert(std::is_base_of_v<RequestKey, Entry> &&
                std::is_trivially_copyable_v<Entry>);

 public:
  Entry* find(std::string_view client, std::uint64_t seq, std::uint64_t hash) {
    if (index_.empty()) return nullptr;
    const std::uint64_t tag = hash >> 32;
    for (std::size_t slot = hash & mask_; index_[slot] != 0;
         slot = (slot + 1) & mask_) {
      const std::uint64_t v = index_[slot];
      if ((v >> 32) != tag) continue;
      Entry& e = entries_[(v & 0xffffffffu) - 1];
      if (e.hash == hash && e.seq == seq && this->client(e) == client) {
        return &e;
      }
    }
    return nullptr;
  }
  const Entry* find(std::string_view client, std::uint64_t seq,
                    std::uint64_t hash) const {
    return const_cast<RequestTable*>(this)->find(client, seq, hash);
  }

  /// The record for (client, seq), inserted value-initialized (plus its
  /// key) on first sight — the operator[] of the old maps.
  Entry& find_or_insert(std::string_view client, std::uint64_t seq,
                        std::uint64_t hash) {
    if (Entry* e = find(client, seq, hash)) return *e;
    if ((entries_.size() + 1) * 4 > index_.size() * 3) grow();
    std::size_t slot = hash & mask_;
    while (index_[slot] != 0) slot = (slot + 1) & mask_;
    index_[slot] = (hash & ~std::uint64_t{0xffffffffu}) | (entries_.size() + 1);
    Entry& e = entries_.emplace_back();
    e.hash = hash;
    e.seq = seq;
    bytes_.assign(e.client, client);
    return e;
  }

  /// A record's client id.
  std::string_view client(const RequestKey& e) const {
    return bytes_.chars(e.client);
  }

  /// Byte strings the records hold (responses, buffered requests).
  BytesView bytes(ByteRef r) const { return bytes_.view(r); }
  void assign(ByteRef& r, BytesView data) { bytes_.assign(r, data); }

  /// Ascending id sets the records hold.
  std::span<const net::HostId> ids(IdSetRef s) const {
    if (s.len == 0) return {};
    return {ids_.data() + s.off, s.len};
  }
  bool contains(IdSetRef s, net::HostId id) const {
    const auto set = ids(s);
    return std::binary_search(set.begin(), set.end(), id);
  }
  /// Insert keeping the set ascending and unique — the order the old
  /// per-request std::set<net::HostId> iterated in, which the response-send
  /// order (and so the network RNG draw sequence) depends on. A full set
  /// moves to the end of the arena with twice the room.
  void insert(IdSetRef& s, net::HostId id) {
    const std::size_t at = static_cast<std::size_t>(
        std::lower_bound(ids_.begin() + s.off, ids_.begin() + s.off + s.len,
                         id) -
        (ids_.begin() + s.off));
    if (at < s.len && ids_[s.off + at] == id) return;
    if (s.len == s.cap) {
      const std::uint32_t cap = s.cap == 0 ? 2 : s.cap * 2;
      const std::size_t off = ids_.size();
      ids_.resize(off + cap);
      std::copy_n(ids_.begin() + s.off, s.len, ids_.begin() + off);
      s.off = static_cast<std::uint32_t>(off);
      s.cap = cap;
    }
    net::HostId* const set = ids_.data() + s.off;
    std::copy_backward(set + at, set + s.len, set + s.len + 1);
    set[at] = id;
    ++s.len;
  }

  /// All records, insertion-ordered.
  std::vector<Entry>& entries() { return entries_; }
  const std::vector<Entry>& entries() const { return entries_; }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Drop every record; all storage keeps its capacity.
  void clear() {
    entries_.clear();
    index_.clear();
    mask_ = 0;
    bytes_.clear();
    ids_.clear();
  }

 private:
  /// Index slots: 0 is empty; otherwise the record's hash tag (top 32 bits)
  /// over its entries_ position + 1.
  void grow() {
    const std::size_t cap = index_.empty() ? 16 : index_.size() * 2;
    index_.assign(cap, 0);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const std::uint64_t hash = entries_[i].hash;
      std::size_t slot = hash & mask_;
      while (index_[slot] != 0) slot = (slot + 1) & mask_;
      index_[slot] = (hash & ~std::uint64_t{0xffffffffu}) | (i + 1);
    }
  }

  std::vector<Entry> entries_;
  std::vector<std::uint64_t> index_;
  std::size_t mask_ = 0;
  ByteArena bytes_;
  std::vector<net::HostId> ids_;
};

}  // namespace fortress::replication
