#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"

namespace saclo {

/// The project's one JSON codec. Every JSON document the libraries
/// write escapes its strings here, and every JSON document they read
/// (traffic traces, merged Chrome traces, event logs) is parsed here.

/// Raised for malformed JSON and for a well-formed document of the
/// wrong shape (missing key, string where a number belongs). `offset`
/// is the byte offset into the parsed text the problem points at.
class JsonError : public Error {
 public:
  JsonError(const std::string& what, std::size_t offset);
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// Appends `s` as the body of a JSON string (no quotes): `"`, `\` and
/// the control bytes \n \r \t get their short escapes, every other byte
/// below 0x20 becomes \u00XX, and all other bytes pass through.
void append_json_escaped(std::string& out, std::string_view s);

/// `s` as a complete JSON string literal, quotes included.
std::string json_string(std::string_view s);

/// One parsed JSON value. `offset` is where it starts in the source
/// text, so a shape error can point at the value that caused it.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind = Kind::Null;
  bool boolean = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;
  std::size_t offset = 0;

  bool has(const std::string& key) const { return obj.count(key) != 0; }
  /// The member `key` of an object; JsonError when this is not an
  /// object or the key is missing.
  const JsonValue& at(const std::string& key) const;
  /// The member `key`, which must be a number / a string.
  double number(const std::string& key) const;
  const std::string& string(const std::string& key) const;
  /// The member `key`, which must be an integer that T holds (and that
  /// a double holds exactly: at most 2^53 in magnitude).
  template <typename T>
  T integer(const std::string& key) const {
    return static_cast<T>(integer_in(key, static_cast<double>(std::numeric_limits<T>::min()),
                                     static_cast<double>(std::numeric_limits<T>::max())));
  }
  std::int64_t integer_in(const std::string& key, double lo, double hi) const;
};

/// Parses exactly one JSON document (RFC 8259: objects, arrays,
/// strings with every standard escape, numbers, true, false, null),
/// surrounded by optional whitespace. \u escapes reach up to U+00FF
/// (decoded as UTF-8); duplicate object keys keep the first value.
JsonValue parse_json(std::string_view text);

}  // namespace saclo
