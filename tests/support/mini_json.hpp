#pragma once

// Minimal recursive-descent JSON parser for tests that validate the
// project's machine-readable exports (Chrome traces, fleet metrics,
// BENCH_*.json). Throws std::runtime_error on malformed input — which
// is exactly the assertion the tests want.

#include <cctype>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace saclo::testsupport {

struct Json {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  bool is_object() const { return kind == Kind::Object; }
  bool is_array() const { return kind == Kind::Array; }
  bool has(const std::string& key) const { return object.count(key) != 0; }
  const Json& at(const std::string& key) const {
    auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing characters after JSON value");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }
  char peek() {
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end of JSON");
    return text_[pos_];
  }
  char next() {
    char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    if (next() != c) throw std::runtime_error(std::string("expected '") + c + "'");
  }

  Json value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string_value();
      case 't':
      case 'f':
        return boolean();
      case 'n':
        return null();
      default:
        return number();
    }
  }

  Json object() {
    Json v;
    v.kind = Json::Kind::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      Json key = string_value();
      skip_ws();
      expect(':');
      v.object.emplace(key.string, value());
      skip_ws();
      const char c = next();
      if (c == '}') return v;
      if (c != ',') throw std::runtime_error("expected ',' or '}' in object");
    }
  }

  Json array() {
    Json v;
    v.kind = Json::Kind::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      const char c = next();
      if (c == ']') return v;
      if (c != ',') throw std::runtime_error("expected ',' or ']' in array");
    }
  }

  Json string_value() {
    Json v;
    v.kind = Json::Kind::String;
    expect('"');
    for (;;) {
      char c = next();
      if (c == '"') return v;
      // Strict JSON: control bytes must be escaped inside strings.
      if (static_cast<unsigned char>(c) < 0x20) throw std::runtime_error("raw control byte");
      if (c == '\\') {
        const char esc = next();
        switch (esc) {
          case '"':
            v.string += '"';
            break;
          case '\\':
            v.string += '\\';
            break;
          case '/':
            v.string += '/';
            break;
          case 'b':
            v.string += '\b';
            break;
          case 'f':
            v.string += '\f';
            break;
          case 'n':
            v.string += '\n';
            break;
          case 'r':
            v.string += '\r';
            break;
          case 't':
            v.string += '\t';
            break;
          case 'u':
            v.string += latin1_escape();
            break;
          default:
            throw std::runtime_error("unsupported escape in test JSON");
        }
      } else {
        v.string += c;
      }
    }
  }

  /// \u00XX (the code points the project's escaper writes) as UTF-8.
  std::string latin1_escape() {
    if (pos_ + 4 > text_.size() || text_.compare(pos_, 2, "00") != 0 ||
        !std::isxdigit(static_cast<unsigned char>(text_[pos_ + 2])) ||
        !std::isxdigit(static_cast<unsigned char>(text_[pos_ + 3]))) {
      throw std::runtime_error("unsupported \\u escape in test JSON");
    }
    const unsigned code = static_cast<unsigned>(std::stoul(text_.substr(pos_ + 2, 2), nullptr, 16));
    pos_ += 4;
    if (code < 0x80) return std::string(1, static_cast<char>(code));
    return {static_cast<char>(0xC0 | (code >> 6)), static_cast<char>(0x80 | (code & 0x3F))};
  }

  Json boolean() {
    Json v;
    v.kind = Json::Kind::Bool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
    return v;
  }

  Json null() {
    if (text_.compare(pos_, 4, "null") != 0) throw std::runtime_error("bad literal");
    pos_ += 4;
    return {};
  }

  Json number() {
    Json v;
    v.kind = Json::Kind::Number;
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) || text_[end] == '-' ||
            text_[end] == '+' || text_[end] == '.' || text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) throw std::runtime_error("bad number");
    v.number = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

inline Json parse_json(const std::string& text) { return JsonParser(text).parse(); }

}  // namespace saclo::testsupport
