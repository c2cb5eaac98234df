#include "common/json.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace fortress::json {

namespace {

[[noreturn]] void fail(const std::string& what) { throw ParseError(what); }

[[noreturn]] void fail_at(std::size_t offset, const std::string& what) {
  fail("JSON parse error at byte " + std::to_string(offset) + ": " + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

const char* Value::kind_name(Kind k) {
  switch (k) {
    case Kind::Bool: return "bool";
    case Kind::Number: return "number";
    case Kind::String: return "string";
    case Kind::Array: return "array";
    case Kind::Object: return "object";
  }
  return "?";
}

namespace {
[[noreturn]] void type_fail(const Path& path, const char* want,
                            Value::Kind got) {
  fail_at(path, std::string(": expected ") + want + ", got " +
                    Value::kind_name(got));
}
}  // namespace

bool Value::as_bool(const Path& path) const {
  if (kind_ != Kind::Bool) type_fail(path, "bool", kind_);
  return bool_;
}

double Value::as_double(const Path& path) const {
  if (kind_ != Kind::Number) type_fail(path, "number", kind_);
  return num_;
}

std::uint64_t Value::as_u64(const Path& path) const {
  if (kind_ != Kind::Number) type_fail(path, "number", kind_);
  std::uint64_t u = 0;
  const char* first = str_.data();
  const char* last = first + str_.size();
  auto [ptr, ec] = std::from_chars(first, last, u);
  if (ec != std::errc{} || ptr != last) {
    fail_at(path, ": expected unsigned integer, got '" + str_ + "'");
  }
  return u;
}

std::int64_t Value::as_i64(const Path& path) const {
  if (kind_ != Kind::Number) type_fail(path, "number", kind_);
  std::int64_t v = 0;
  const char* first = str_.data();
  const char* last = first + str_.size();
  auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last) {
    fail_at(path, ": expected integer, got '" + str_ + "'");
  }
  return v;
}

const std::string& Value::as_string(const Path& path) const {
  if (kind_ != Kind::String) type_fail(path, "string", kind_);
  return str_;
}

const std::vector<Value>& Value::as_array(const Path& path) const {
  if (kind_ != Kind::Array) type_fail(path, "array", kind_);
  return items_;
}

const std::vector<std::pair<std::string, Value>>& Value::members(
    const Path& path) const {
  if (kind_ != Kind::Object) type_fail(path, "object", kind_);
  return members_;
}

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}
Value Value::make_number(double num, std::string lexeme) {
  Value v;
  v.kind_ = Kind::Number;
  v.num_ = num;
  v.str_ = std::move(lexeme);
  return v;
}
Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::String;
  v.str_ = std::move(s);
  return v;
}
Value Value::make_array(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::Array;
  v.items_ = std::move(items);
  return v;
}
Value Value::make_object(std::vector<std::pair<std::string, Value>> members) {
  Value v;
  v.kind_ = Kind::Object;
  v.members_ = std::move(members);
  return v;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value(/*depth=*/0);
    skip_ws();
    if (pos_ != text_.size()) {
      fail_at(pos_, "trailing bytes after document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void err(const std::string& what) const { fail_at(pos_, what); }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char next() {
    if (eof()) err("unexpected end of input");
    return text_[pos_++];
  }

  void expect(char c) {
    if (eof() || text_[pos_] != c) {
      err(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  void skip_ws() {
    while (!eof()) {
      char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        return;
      }
    }
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) err("nesting deeper than 64 levels");
    if (eof()) err("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Value::make_string(parse_string());
      case 't': parse_literal("true"); return Value::make_bool(true);
      case 'f': parse_literal("false"); return Value::make_bool(false);
      default: return parse_number();
    }
  }

  void parse_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      err("invalid literal (expected '" + std::string(lit) + "')");
    }
    pos_ += lit.size();
  }

  Value parse_object(int depth) {
    expect('{');
    std::vector<std::pair<std::string, Value>> members;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return Value::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') err("expected object key string");
      std::string key = parse_string();
      for (const auto& [k, v] : members) {
        if (k == key) err("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      char c = next();
      if (c == '}') break;
      if (c != ',') { --pos_; err("expected ',' or '}'"); }
    }
    return Value::make_object(std::move(members));
  }

  Value parse_array(int depth) {
    expect('[');
    std::vector<Value> items;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return Value::make_array(std::move(items));
    }
    while (true) {
      skip_ws();
      items.push_back(parse_value(depth + 1));
      skip_ws();
      char c = next();
      if (c == ']') break;
      if (c != ',') { --pos_; err("expected ',' or ']'"); }
    }
    return Value::make_array(std::move(items));
  }

  /// A string's bytes up to the closing quote, taken verbatim: the writer
  /// never emits an escape, so a backslash is rejected rather than decoded.
  std::string parse_string() {
    expect('"');
    const std::size_t start = pos_;
    while (true) {
      const char c = next();
      if (c == '"') return std::string(text_.substr(start, pos_ - 1 - start));
      if (c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        err(c == '\\' ? "invalid escape sequence"
                      : "control character in string");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      pos_ = start;
      err("invalid value");
    }
    if (peek() == '0') {
      ++pos_;
      if (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        err("leading zeros are not allowed");
      }
    } else {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        err("digit required after decimal point");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        err("digit required in exponent");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    std::string lexeme(text_.substr(start, pos_ - start));
    double d = 0.0;
    auto [ptr, ec] = std::from_chars(lexeme.data(),
                                     lexeme.data() + lexeme.size(), d);
    if (ec != std::errc{} || ptr != lexeme.data() + lexeme.size() ||
        !std::isfinite(d)) {
      pos_ = start;
      err("number out of range: '" + lexeme + "'");
    }
    return Value::make_number(d, std::move(lexeme));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void Writer::prefix() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows its "key": on the same line
  }
  if (has_item_.empty()) return;  // document root
  if (has_item_.back()) out_.push_back(',');
  has_item_.back() = true;
  if (!compact_) {
    out_.push_back('\n');
    out_.append(2 * has_item_.size(), ' ');
  }
}

void Writer::begin_object() {
  prefix();
  out_.push_back('{');
  has_item_.push_back(false);
}

void Writer::end_object() {
  const bool had_items = has_item_.back();
  has_item_.pop_back();
  if (had_items && !compact_) {
    out_.push_back('\n');
    out_.append(2 * has_item_.size(), ' ');
  }
  out_.push_back('}');
}

void Writer::begin_array() {
  prefix();
  out_.push_back('[');
  has_item_.push_back(false);
}

void Writer::end_array() {
  const bool had_items = has_item_.back();
  has_item_.pop_back();
  if (had_items && !compact_) {
    out_.push_back('\n');
    out_.append(2 * has_item_.size(), ' ');
  }
  out_.push_back(']');
}

void Writer::key(std::string_view k) {
  value(k);
  out_.push_back(':');
  if (!compact_) out_.push_back(' ');
  pending_key_ = true;
}

void Writer::value(bool b) {
  prefix();
  raw(b ? "true" : "false");
}

void Writer::value(double d) {
  prefix();
  raw(format_double(d));
}

void Writer::value(std::uint64_t u) {
  prefix();
  std::array<char, 24> buf;
  auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), u);
  raw(std::string_view(buf.data(), static_cast<std::size_t>(ptr - buf.data())));
}

void Writer::value(int i) {
  prefix();
  std::array<char, 16> buf;
  auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), i);
  raw(std::string_view(buf.data(), static_cast<std::size_t>(ptr - buf.data())));
}

void Writer::value(std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      fail("JSON writer: string '" + std::string(s) +
           "' would need an escape");
    }
  }
  prefix();
  out_.push_back('"');
  out_.append(s);
  out_.push_back('"');
}

std::string Writer::str() const {
  if (!has_item_.empty()) fail("Writer::str() with unclosed containers");
  return out_;
}

std::string Writer::format_double(double d) {
  // JSON has no NaN/Infinity; plan validation rejects them before any
  // encode, so reaching this is a programming error.
  if (!std::isfinite(d)) fail("cannot encode non-finite number");
  std::array<char, 32> buf;
  auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), d);
  std::string s(buf.data(), static_cast<std::size_t>(ptr - buf.data()));
  // to_chars shortest form may be integral ("3"); keep it — the parser
  // keeps the raw lexeme, so round-trips stay byte-identical.
  return s;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t parse_hex64(const std::string& s, const Path& path) {
  if (s.size() != 18 || s[0] != '0' || s[1] != 'x') {
    fail_at(path, ": expected \"0x\" + 16 hex digits, got \"" + s + "\"");
  }
  std::uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data() + 2, s.data() + s.size(), v, 16);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    fail_at(path, ": invalid hex literal \"" + s + "\"");
  }
  return v;
}

// ---------------------------------------------------------------------------
// Path, ObjectReader
// ---------------------------------------------------------------------------

std::string Path::str() const {
  std::string out = parent_ != nullptr ? parent_->str() : std::string();
  if (key_ == nullptr) {
    out += "[" + std::to_string(index_) + "]";
  } else {
    if (parent_ != nullptr) out.push_back('.');
    out += key_;
  }
  return out;
}

void fail_at(const Path& path, const std::string& what) {
  fail(path.str() + what);
}

ObjectReader::ObjectReader(const Value& v, const Path& path)
    : path_(path), members_(v.members(path)), used_(members_.size(), false) {}

const Value& ObjectReader::required(const char* key) {
  const std::size_t n = members_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (next_ + k) % n;
    if (members_[i].first == key) {
      used_[i] = true;
      next_ = i + 1;
      return members_[i].second;
    }
  }
  fail_at(path_, ": missing required key \"" + std::string(key) + "\"");
}

void ObjectReader::done() const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (!used_[i]) {
      fail_at(path_, ": unknown key \"" + members_[i].first + "\"");
    }
  }
}

}  // namespace fortress::json
