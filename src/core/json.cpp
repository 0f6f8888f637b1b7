#include "core/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "core/fmt.hpp"

namespace saclo {

JsonError::JsonError(const std::string& what, std::size_t offset)
    : Error(cat(what, " at offset ", offset)), offset_(offset) {}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (byte >= 0x20) {
          out += c;
        } else {
          out += "\\u00";
          out += "0123456789abcdef"[byte >> 4];
          out += "0123456789abcdef"[byte & 0xf];
        }
    }
  }
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  append_json_escaped(out, s);
  out += '"';
  return out;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  if (kind != Kind::Object) throw JsonError(cat("no object around key '", key, "'"), offset);
  const auto it = obj.find(key);
  if (it == obj.end()) throw JsonError(cat("missing key '", key, "'"), offset);
  return it->second;
}

namespace {
const JsonValue& member(const JsonValue& v, const std::string& key, JsonValue::Kind kind,
                        const char* what) {
  const JsonValue& m = v.at(key);
  if (m.kind != kind) throw JsonError(cat("key '", key, "' is not ", what), m.offset);
  return m;
}
}  // namespace

double JsonValue::number(const std::string& key) const {
  return member(*this, key, Kind::Number, "a number").num;
}

const std::string& JsonValue::string(const std::string& key) const {
  return member(*this, key, Kind::String, "a string").str;
}

std::int64_t JsonValue::integer_in(const std::string& key, double lo, double hi) const {
  const double n = number(key);
  if (n != std::floor(n) || std::abs(n) > 9007199254740992.0 || n < lo || n > hi) {  // 2^53
    throw JsonError(cat("key '", key, "' is not an integer in range"), at(key).offset);
  }
  return static_cast<std::int64_t>(n);
}

namespace {

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  JsonValue document() {
    JsonValue v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after the JSON document");
    return v;
  }

 private:
  /// Deep enough for every document the project writes; keeps hostile
  /// input from exhausting the stack.
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& what) const { throw JsonError(what, pos_); }

  void skip_ws() { pos_ = std::min(text_.find_first_not_of(" \t\n\r", pos_), text_.size()); }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    if (!consume(c)) fail(cat("expected '", c, "'"));
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    JsonValue v;
    const char c = peek();
    v.offset = pos_;
    if (consume('{')) {
      v.kind = JsonValue::Kind::Object;
      if (consume('}')) return v;
      do {
        if (peek() != '"') fail("expected a string key");
        std::string key = string_body();
        expect(':');
        v.obj.emplace(std::move(key), value(depth + 1));
      } while (consume(','));
      expect('}');
    } else if (consume('[')) {
      v.kind = JsonValue::Kind::Array;
      if (consume(']')) return v;
      do {
        v.arr.push_back(value(depth + 1));
      } while (consume(','));
      expect(']');
    } else if (c == '"') {
      v.kind = JsonValue::Kind::String;
      v.str = string_body();
    } else if (literal("true") || literal("false")) {
      v.kind = JsonValue::Kind::Bool;
      v.boolean = c == 't';
    } else if (!literal("null")) {
      v.kind = JsonValue::Kind::Number;
      v.num = number();
    }
    return v;
  }

  /// The string whose opening quote is at pos_, unescaped. \u escapes
  /// reach up to U+00FF (the project's escaper writes them only for
  /// bytes below 0x20) and decode to UTF-8.
  std::string string_body() {
    static constexpr std::string_view kEscaped = "\"\\/bfnrt";
    static constexpr std::string_view kUnescaped = "\"\\/\b\f\n\r\t";
    std::string out;
    ++pos_;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control byte in string");
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const std::size_t simple = kEscaped.find(pos_ < text_.size() ? text_[pos_] : '\0');
      if (simple != std::string_view::npos) {
        out += kUnescaped[simple];
        ++pos_;
        continue;
      }
      if (!literal("u")) fail("unknown escape");
      unsigned code = 0;
      const char* hex = text_.data() + pos_;
      if (text_.size() - pos_ < 4 || std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
        fail("malformed \\u escape");
      }
      if (code > 0xFF) fail("\\u escape beyond U+00FF");
      pos_ += 4;
      if (code >= 0x80) {
        out += static_cast<char>(0xC0 | (code >> 6));
        code = 0x80 | (code & 0x3F);
      }
      out += static_cast<char>(code);
    }
  }

  /// Advances `end` over decimal digits; false when there were none.
  bool digits(std::size_t& end) const {
    const std::size_t start = end;
    while (end < text_.size() && text_[end] >= '0' && text_[end] <= '9') ++end;
    return end > start;
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  double number() {
    std::size_t end = pos_;
    if (end < text_.size() && text_[end] == '-') ++end;
    const std::size_t first = end;
    if (!digits(end) || (text_[first] == '0' && end - first > 1)) fail("malformed number");
    if (end < text_.size() && text_[end] == '.' && !digits(++end)) fail("malformed number");
    if (end < text_.size() && (text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
      if (end < text_.size() && (text_[end] == '+' || text_[end] == '-')) ++end;
      if (!digits(end)) fail("malformed number");
    }
    double n = 0;
    const auto [ptr, ec] = std::from_chars(text_.data() + pos_, text_.data() + end, n);
    if (ec != std::errc() || ptr != text_.data() + end) fail("number out of range");
    pos_ = end;
    return n;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) { return JsonReader(text).document(); }

}  // namespace saclo
