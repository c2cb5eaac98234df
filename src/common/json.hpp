// json.hpp — a minimal, strict JSON reader/writer for plan fixtures.
//
// The scenario robustness plane (plan_codec, committed specs, the minimizer's
// repro emission) needs a serialized form whose bytes are a reproducible
// fixture. That rules out "whatever a third-party library emits": this
// parser/writer pair is small, dependency-free, and CANONICAL —
//
//  * the writer has exactly one output form (2-space indent, fixed member
//    order as given by the caller, shortest round-trip number formatting
//    via std::to_chars), so encode(decode(encode(x))) is byte-identical;
//  * the parser reads a strict subset of RFC 8259, exactly what the writer
//    emits: no string escapes and no `null` (every fixture string is an
//    identifier such as "s2-fortress"), no trailing garbage, duplicate
//    keys, leading zeros or NaN/Infinity; every rejection carries the byte
//    offset, so malformed fixture files fail loudly at load, not deep
//    inside the simulator. The writer refuses a string that would need an
//    escape.
//
// Numbers keep their raw lexeme alongside the parsed double so integer
// fields (u64 seeds, keyspaces) round-trip without passing through a
// double. This is a fixture codec, not a general-purpose JSON stack: no
// streaming, no SAX, documents are expected to be small (kilobytes).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fortress::json {

/// Thrown by parse() and by the typed Value accessors; the message carries
/// the byte offset (parse) or the member path (accessors).
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// A member path ("plan.faults[2].at") kept as a chain of stack frames and
/// rendered only when an error message needs it, so a successful decode
/// builds no path strings.
class Path {
 public:
  explicit Path(const char* root) : key_(root) {}
  Path(const Path& parent, const char* key) : parent_(&parent), key_(key) {}
  Path(const Path& parent, std::size_t index)
      : parent_(&parent), index_(index) {}

  std::string str() const;

 private:
  const Path* parent_ = nullptr;
  const char* key_ = nullptr;  ///< root name or member key; null = index
  std::size_t index_ = 0;
};

/// Throws ParseError("<path><what>"), e.g. what = ": expected number".
[[noreturn]] void fail_at(const Path& path, const std::string& what);

/// One parsed JSON value. Object member order is preserved (insertion
/// order), which the strict codecs rely on to verify canonical layout.
class Value {
 public:
  enum class Kind { Bool, Number, String, Array, Object };

  Kind kind() const { return kind_; }

  /// Typed accessors. `path` names the value in error messages
  /// ("plan.faults[2].at").
  bool as_bool(const Path& path) const;
  double as_double(const Path& path) const;
  /// Re-parses the raw number lexeme as an unsigned integer; rejects
  /// fractions, exponents, negatives and doubles-only lexemes.
  std::uint64_t as_u64(const Path& path) const;
  std::int64_t as_i64(const Path& path) const;
  const std::string& as_string(const Path& path) const;
  const std::vector<Value>& as_array(const Path& path) const;

  /// Object members in document order (ObjectReader is the strict walk).
  const std::vector<std::pair<std::string, Value>>& members(
      const Path& path) const;

  static const char* kind_name(Kind k);

  // Construction (used by the parser; codecs only read).
  static Value make_bool(bool b);
  static Value make_number(double num, std::string lexeme);
  static Value make_string(std::string s);
  static Value make_array(std::vector<Value> items);
  static Value make_object(std::vector<std::pair<std::string, Value>> members);

 private:
  Value() = default;

  Kind kind_ = Kind::Bool;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;  ///< string payload, or the raw lexeme for numbers
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Strict parse of one complete JSON document. Throws ParseError (with byte
/// offset) on any deviation from RFC 8259, on string escapes and `null`,
/// on duplicate object keys and on any bytes after the document.
Value parse(std::string_view text);

/// Canonical writer: the caller pushes the document in order and there is
/// exactly one byte sequence for a given call sequence. Layout: 2-space
/// indent, `"key": value`, members/elements one per line, `{}`/`[]` for
/// empty containers. Compact mode (indent disabled) emits the same document
/// with no whitespace at all — the digest input form.
class Writer {
 public:
  explicit Writer(bool compact = false) : compact_(compact) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  /// Starts a member inside an object; follow with exactly one value call
  /// (or begin_object / begin_array). `k` obeys value(string_view)'s rule.
  void key(std::string_view k);

  void value(bool b);
  void value(double d);       ///< shortest round-trip form (std::to_chars)
  void value(std::uint64_t u);
  void value(int i);
  /// Written verbatim in quotes; throws ParseError, writing nothing, if `s`
  /// holds `"`, `\` or a byte below 0x20 (it would need an escape).
  void value(std::string_view s);

  /// The finished document. Precondition: all containers closed.
  std::string str() const;

  /// Number formatting used by value(double) — exposed so digests and tests
  /// can rely on the exact lexeme ("0.1", "1e-09", "-3.5", ...).
  static std::string format_double(double d);

 private:
  void prefix();  ///< separator + newline + indent before any new item
  void raw(std::string_view s) { out_.append(s); }

  bool compact_ = false;
  std::string out_;
  // Per-open-container state: true once the container has >= 1 item.
  std::vector<bool> has_item_;
  bool pending_key_ = false;
};

/// FNV-1a 64-bit over a byte string — the digest primitive of the plan and
/// spec codecs (offset basis 14695981039346656037, prime
/// 1099511628211).
std::uint64_t fnv1a64(std::string_view bytes);

/// "0x" + 16 lower-case hex digits: how digests and bit-pinned doubles
/// cross a fixture.
std::string hex64(std::uint64_t v);
/// Inverse of hex64; anything but exactly "0x" + 16 hex digits throws
/// ParseError naming `path`.
std::uint64_t parse_hex64(const std::string& s, const Path& path);

/// Strict object reader: every member must be consumed exactly once, and
/// done() rejects members the codec never asked for — that is what turns an
/// unknown or misspelled key into a load-time error instead of a silently
/// default-valued field.
class ObjectReader {
 public:
  /// Throws unless `v` is an object. `path` must outlive the reader.
  ObjectReader(const Value& v, const Path& path);

  /// The member `key`; throws "missing required key" when absent.
  const Value& required(const char* key);
  const Path& path() const { return path_; }
  /// Call after reading every expected key.
  void done() const;

 private:
  const Path& path_;
  const std::vector<std::pair<std::string, Value>>& members_;
  std::vector<bool> used_;
  std::size_t next_ = 0;  ///< where required() looks first (canonical order)
};

}  // namespace fortress::json
