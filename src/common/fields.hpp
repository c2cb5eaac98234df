// fields.hpp — one field table per struct, and the generic visitors over it.
//
// A struct that crosses a merge, a JSON codec, a corpus pin or a fingerprint
// lists its fields exactly once, in a table next to its definition:
//
//   template <fields::FieldsOf<TrafficStats> S, class V>
//   constexpr void visit_fields(S& s, V&& v) {
//     v("offered", s.offered, fields::kU64);
//     v("max_queue_depth", s.max_queue_depth, fields::kMax);
//     v("latency_bins", s.latency, fields::kHistogram);
//   }
//   static_assert(fields::complete<TrafficStats>());
//
// A line gives the field's JSON key, its member and its kind; the table
// order is the JSON member order. The static_assert makes a member missing
// from its table (or a kind that does not fit its member's type) a compile
// error. Everything below is generic over the tables: merge(), the JSON
// writer and the strict reader. Adding a counter is one table line.
//
// Kinds (a std::vector member applies its kind to every element):
//   kU64       std::uint64_t; merge sums
//   kMax       std::uint64_t; merge keeps the max
//   kHex       std::uint64_t written as "0x" + 16 hex digits (digests, pins)
//   kU32       std::uint32_t; the reader rejects values past 32 bits
//   kInt       int; the reader rejects values past 32 bits
//   kBool, kString
//   kDouble    double, decimal or bit pattern as the codec asks (Doubles)
//   kGoodput   double summed by merge in trial order
//   EnumNames  an enum, written as its name from the enum's one name table
//   kNested    a struct with its own table, as a JSON object; merge recurses
//   kInline    a struct with its own table, its members spliced into the
//              enclosing object
//   kHistogram LatencyHistogram as its 64 raw bin counts; merge adds bins
//   kWelford   RunningStats as raw Welford state, doubles by bit pattern
//   kInterval  ConfidenceInterval, doubles by bit pattern
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"

namespace fortress::fields {

// Each kind names the member type it fits (void: any struct with a table).
inline constexpr struct U64 { using type = std::uint64_t; } kU64{};
inline constexpr struct Max { using type = std::uint64_t; } kMax{};
inline constexpr struct Hex { using type = std::uint64_t; } kHex{};
inline constexpr struct U32 { using type = std::uint32_t; } kU32{};
inline constexpr struct Int { using type = int; } kInt{};
inline constexpr struct Bool { using type = bool; } kBool{};
inline constexpr struct Double { using type = double; } kDouble{};
inline constexpr struct Goodput { using type = double; } kGoodput{};
inline constexpr struct String { using type = std::string; } kString{};
inline constexpr struct Nested { using type = void; } kNested{};
inline constexpr struct Inline { using type = void; } kInline{};
inline constexpr struct Histogram {
  using type = LatencyHistogram;
} kHistogram{};
inline constexpr struct Welford { using type = RunningStats; } kWelford{};
inline constexpr struct Interval {
  using type = ConfidenceInterval;
} kInterval{};

/// The one name table of an enum whose enumerators are 0..N-1.
template <class E, std::size_t N>
struct EnumNames {
  using type = E;
  const char* what;                  ///< "overload policy", for errors
  std::array<const char*, N> names;  ///< indexed by enumerator value
};

/// Constrains a table to its struct, const or not.
template <class S, class T>
concept FieldsOf = std::same_as<std::remove_const_t<S>, T>;

/// How a codec writes kDouble / kGoodput fields: shortest decimal (plans,
/// specs) or the "0x" + 16 hex bit pattern (sidecars, reports).
enum class Doubles { Decimal, Bits };

namespace detail {

template <class>
inline constexpr bool is_vector = false;
template <class T, class A>
inline constexpr bool is_vector<std::vector<T, A>> = true;

template <class>
inline constexpr bool is_enum_names = false;
template <class E, std::size_t N>
inline constexpr bool is_enum_names<EnumNames<E, N>> = true;

template <class K, class M>
constexpr bool fits() {
  if constexpr (is_vector<M>) {
    return fits<K, typename M::value_type>();
  } else {
    return std::is_void_v<typename K::type> ||
           std::is_same_v<M, typename K::type>;
  }
}

/// Converts to any member type: S{AnyField{}, ...} compiles for as many
/// initializers as the aggregate S has members, and no more.
struct AnyField {
  template <class T>
  operator T&() const;
};

template <class S, class... A>
constexpr std::size_t member_count() {
  if constexpr (requires { S{A{}..., AnyField{}}; }) {
    return member_count<S, A..., AnyField>();
  } else {
    return sizeof...(A);
  }
}

/// Never defined: the table walks below only form references to its
/// members, which a constant expression may do.
template <class S>
extern S probe;

}  // namespace detail

/// Number of lines in S's table (type-checking every line on the way).
template <class S>
constexpr std::size_t table_size() {
  std::size_t n = 0;
  visit_fields(detail::probe<S>, [&](const char*, auto& m, auto kind) {
    static_assert(
        detail::fits<decltype(kind), std::remove_cvref_t<decltype(m)>>(),
        "field kind does not fit the member's type");
    ++n;
  });
  return n;
}

/// True when S's table lists every member of the aggregate S.
template <class S>
constexpr bool complete() {
  return table_size<S>() == detail::member_count<S>();
}

/// Visits a and b side by side: f(key, a.member, b.member, kind).
template <class S, class F>
void zip(S& a, const std::remove_const_t<S>& b, F&& f) {
  void* slots[table_size<std::remove_const_t<S>>()];
  std::size_t n = 0;
  visit_fields(a, [&](const char*, auto& m, auto) {
    slots[n++] = const_cast<void*>(static_cast<const void*>(&m));
  });
  n = 0;
  visit_fields(b, [&](const char* key, const auto& mb, auto kind) {
    using M = std::remove_cvref_t<decltype(mb)>;
    using A = std::conditional_t<std::is_const_v<S>, const M, M>;
    f(key, *static_cast<A*>(slots[n++]), mb, kind);
  });
}

// --- merge -----------------------------------------------------------------

template <class S>
void merge(S& into, const S& from);

template <class M, class K>
void merge_value(M& into, const M& from, K) {
  if constexpr (std::is_same_v<K, U64> || std::is_same_v<K, Goodput>) {
    into += from;
  } else if constexpr (std::is_same_v<K, Max>) {
    into = std::max(into, from);
  } else if constexpr (std::is_same_v<K, Histogram>) {
    into.merge(from);
  } else if constexpr (std::is_same_v<K, Nested>) {
    merge(into, from);
  } else {
    static_assert(sizeof(K) == 0, "this field kind has no merge");
  }
}

/// The exact aggregate reduction: every field is a sum, a max, a histogram
/// add or a nested merge, so the result is the same for any batching.
template <class S>
void merge(S& into, const S& from) {
  zip(into, from, [](const char*, auto& a, const auto& b, auto kind) {
    merge_value(a, b, kind);
  });
}

// --- JSON writer -----------------------------------------------------------

inline void write_double(json::Writer& w, double x, Doubles d) {
  if (d == Doubles::Decimal) {
    w.value(x);
  } else {
    w.value(std::string_view(json::hex64(std::bit_cast<std::uint64_t>(x))));
  }
}

template <class S>
void write_members(json::Writer& w, const S& s, Doubles d);

template <class M, class K>
void write_value(json::Writer& w, const M& m, const K& kind, Doubles d) {
  if constexpr (detail::is_vector<M>) {
    w.begin_array();
    for (const auto& e : m) write_value(w, e, kind, d);
    w.end_array();
  } else if constexpr (detail::is_enum_names<K>) {
    w.value(std::string_view(kind.names[static_cast<std::size_t>(m)]));
  } else if constexpr (std::is_same_v<K, U64> || std::is_same_v<K, Max>) {
    w.value(m);
  } else if constexpr (std::is_same_v<K, Hex>) {
    w.value(std::string_view(json::hex64(m)));
  } else if constexpr (std::is_same_v<K, U32>) {
    w.value(static_cast<std::uint64_t>(m));
  } else if constexpr (std::is_same_v<K, Int> || std::is_same_v<K, Bool>) {
    w.value(m);
  } else if constexpr (std::is_same_v<K, Double> ||
                       std::is_same_v<K, Goodput>) {
    write_double(w, m, d);
  } else if constexpr (std::is_same_v<K, String>) {
    w.value(std::string_view(m));
  } else if constexpr (std::is_same_v<K, Nested>) {
    w.begin_object();
    write_members(w, m, d);
    w.end_object();
  } else if constexpr (std::is_same_v<K, Histogram>) {
    w.begin_array();
    for (int b = 0; b < LatencyHistogram::kBins; ++b) w.value(m.bin(b));
    w.end_array();
  } else {
    auto bits = [&](const char* key, double x) {
      w.key(key);
      write_double(w, x, Doubles::Bits);
    };
    w.begin_object();
    if constexpr (std::is_same_v<K, Welford>) {
      w.key("count");
      w.value(m.count());
      bits("mean_bits", m.raw_mean());
      bits("m2_bits", m.raw_m2());
      bits("min_bits", m.raw_min());
      bits("max_bits", m.raw_max());
    } else {
      static_assert(std::is_same_v<K, Interval>);
      bits("lo_bits", m.lo);
      bits("hi_bits", m.hi);
      bits("level_bits", m.level);
    }
    w.end_object();
  }
}

/// Writes one `"key": value` member into the object `w` has open.
template <class M, class K>
void write_field(json::Writer& w, const char* key, const M& m, const K& kind,
                 Doubles d) {
  w.key(key);
  write_value(w, m, kind, d);
}

/// Writes s's table members into the object `w` has open.
template <class S>
void write_members(json::Writer& w, const S& s, Doubles d) {
  visit_fields(s, [&](const char* key, const auto& m, auto kind) {
    if constexpr (std::is_same_v<decltype(kind), Inline>) {
      write_members(w, m, d);
    } else {
      write_field(w, key, m, kind, d);
    }
  });
}

/// A committed document: {"schema": tag, <s's members>} plus a final
/// newline.
template <class S>
std::string to_document(const S& s, const char* schema, Doubles d) {
  json::Writer w(/*compact=*/false);
  w.begin_object();
  w.key("schema");
  w.value(std::string_view(schema));
  write_members(w, s, d);
  w.end_object();
  std::string out = w.str();
  out.push_back('\n');
  return out;
}

// --- strict JSON reader ----------------------------------------------------

inline double read_double(const json::Value& v, const json::Path& p,
                          Doubles d) {
  if (d == Doubles::Decimal) {
    return v.as_double(p);
  }
  return std::bit_cast<double>(json::parse_hex64(v.as_string(p), p));
}

[[noreturn]] inline void fail_32_bits(const json::Path& p, std::string value) {
  json::fail_at(p, ": value " + value + " does not fit in 32 bits");
}

template <class S>
void read_members(json::ObjectReader& r, S& s, Doubles d);

template <class M, class K>
void read_value(const json::Value& v, const json::Path& p, M& m,
                const K& kind, Doubles d) {
  if constexpr (detail::is_vector<M>) {
    const std::vector<json::Value>& items = v.as_array(p);
    m.clear();
    m.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const json::Path ip(p, i);
      typename M::value_type e{};
      read_value(items[i], ip, e, kind, d);
      m.push_back(std::move(e));
    }
  } else if constexpr (detail::is_enum_names<K>) {
    const std::string& s = v.as_string(p);
    for (std::size_t i = 0; i < kind.names.size(); ++i) {
      if (s == kind.names[i]) {
        m = static_cast<M>(i);
        return;
      }
    }
    std::string want;
    for (const char* name : kind.names) {
      want += want.empty() ? "" : "|";
      want += name;
    }
    json::fail_at(p, ": unknown " + std::string(kind.what) + " \"" + s +
                         "\" (want " + want + ")");
  } else if constexpr (std::is_same_v<K, U64> || std::is_same_v<K, Max>) {
    m = v.as_u64(p);
  } else if constexpr (std::is_same_v<K, Hex>) {
    m = json::parse_hex64(v.as_string(p), p);
  } else if constexpr (std::is_same_v<K, U32>) {
    const std::uint64_t x = v.as_u64(p);
    if (x > UINT32_MAX) fail_32_bits(p, std::to_string(x));
    m = static_cast<M>(x);
  } else if constexpr (std::is_same_v<K, Int>) {
    const std::int64_t x = v.as_i64(p);
    if (x < INT32_MIN || x > INT32_MAX) fail_32_bits(p, std::to_string(x));
    m = static_cast<M>(x);
  } else if constexpr (std::is_same_v<K, Bool>) {
    m = v.as_bool(p);
  } else if constexpr (std::is_same_v<K, Double> ||
                       std::is_same_v<K, Goodput>) {
    m = read_double(v, p, d);
  } else if constexpr (std::is_same_v<K, String>) {
    m = v.as_string(p);
  } else if constexpr (std::is_same_v<K, Nested>) {
    json::ObjectReader r(v, p);
    read_members(r, m, d);
    r.done();
  } else if constexpr (std::is_same_v<K, Histogram>) {
    const std::vector<json::Value>& bins = v.as_array(p);
    if (bins.size() != LatencyHistogram::kBins) {
      json::fail_at(p, ": expected " +
                           std::to_string(LatencyHistogram::kBins) +
                           " bins, got " + std::to_string(bins.size()));
    }
    m = LatencyHistogram{};
    for (int b = 0; b < LatencyHistogram::kBins; ++b) {
      std::uint64_t n = 0;
      read_value(bins[static_cast<std::size_t>(b)],
                 json::Path(p, static_cast<std::size_t>(b)), n, kU64, d);
      if (n > 0) m.add_bin(b, n);
    }
  } else {
    json::ObjectReader r(v, p);
    auto bits = [&](const char* key) {
      return read_double(r.required(key), json::Path(p, key), Doubles::Bits);
    };
    if constexpr (std::is_same_v<K, Welford>) {
      std::uint64_t n = 0;
      read_value(r.required("count"), json::Path(p, "count"), n, kU64, d);
      m = RunningStats::from_raw(n, bits("mean_bits"), bits("m2_bits"),
                                 bits("min_bits"), bits("max_bits"));
    } else {
      static_assert(std::is_same_v<K, Interval>);
      m.lo = bits("lo_bits");
      m.hi = bits("hi_bits");
      m.level = bits("level_bits");
    }
    r.done();
  }
}

/// Reads the required member `key` of the object `r` walks.
template <class M, class K>
void read_field(json::ObjectReader& r, const char* key, M& m, const K& kind,
                Doubles d) {
  read_value(r.required(key), json::Path(r.path(), key), m, kind, d);
}

/// Reads s's table members from `r` (the caller calls r.done()).
template <class S>
void read_members(json::ObjectReader& r, S& s, Doubles d) {
  visit_fields(s, [&](const char* key, auto& m, auto kind) {
    if constexpr (std::is_same_v<decltype(kind), Inline>) {
      read_members(r, m, d);
    } else {
      read_field(r, key, m, kind, d);
    }
  });
}

/// Reads the "schema" member and rejects any tag but `schema`.
inline void check_schema(json::ObjectReader& r, const char* schema) {
  std::string tag;
  read_field(r, "schema", tag, kString, Doubles::Decimal);
  if (tag != schema) {
    json::fail_at(json::Path(r.path(), "schema"),
                  ": expected \"" + std::string(schema) + "\", got \"" + tag +
                      "\"");
  }
}

/// Strict decode of a to_document() text rooted at `root` ("campaign spec").
template <class S>
S from_document(std::string_view text, const char* root, const char* schema,
                Doubles d) {
  const json::Value doc = json::parse(text);
  const json::Path p(root);
  json::ObjectReader r(doc, p);
  check_schema(r, schema);
  S s;
  read_members(r, s, d);
  r.done();
  return s;
}

}  // namespace fortress::fields
