#include "core/json.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/mini_json.hpp"

namespace saclo {
namespace {

std::string every_byte() {
  std::string s;
  for (int b = 0; b < 256; ++b) s += static_cast<char>(b);
  return s;
}

TEST(JsonEscapeTest, ShortEscapesAndUnicodeForOtherControlBytes) {
  EXPECT_EQ(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_string("\n\r\t"), "\"\\n\\r\\t\"");
  EXPECT_EQ(json_string(std::string("\x01\x1f\b\f", 4)), "\"\\u0001\\u001f\\u0008\\u000c\"");
  EXPECT_EQ(json_string(std::string("\0", 1)), "\"\\u0000\"");
  // Bytes from 0x20 up pass through, including non-ASCII UTF-8.
  EXPECT_EQ(json_string("caf\xc3\xa9 /"), "\"caf\xc3\xa9 /\"");
}

TEST(JsonEscapeTest, AppendsInPlace) {
  std::string out = "{\"k\":\"";
  append_json_escaped(out, "v\t");
  EXPECT_EQ(out, "{\"k\":\"v\\t");
}

TEST(JsonEscapeTest, EscapedTextIsStrictJsonForTheIndependentParser) {
  const std::string hostile = "ev\til\r\x01\"\\\n";
  EXPECT_EQ(testsupport::parse_json(json_string(hostile)).string, hostile);
}

TEST(JsonReaderTest, EveryByteRoundTrips) {
  const std::string bytes = every_byte();
  const JsonValue v = parse_json(json_string(bytes));
  ASSERT_EQ(v.kind, JsonValue::Kind::String);
  EXPECT_EQ(v.str, bytes);
}

TEST(JsonReaderTest, ReadsTheWholeGrammar) {
  const JsonValue v = parse_json(
      " {\"t\":true,\"f\":false,\"n\":null,\"num\":-12.5e1,\"zero\":0,"
      "\"arr\":[1,[],{}],\"s\":\"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u0041\\u00e9\\u001F\"}\r\n");
  EXPECT_TRUE(v.at("t").boolean);
  EXPECT_EQ(v.at("t").kind, JsonValue::Kind::Bool);
  EXPECT_FALSE(v.at("f").boolean);
  EXPECT_EQ(v.at("n").kind, JsonValue::Kind::Null);
  EXPECT_DOUBLE_EQ(v.number("num"), -125.0);
  EXPECT_EQ(v.integer<int>("zero"), 0);
  ASSERT_EQ(v.at("arr").arr.size(), 3u);
  EXPECT_EQ(v.at("arr").arr[1].kind, JsonValue::Kind::Array);
  EXPECT_EQ(v.at("arr").arr[2].kind, JsonValue::Kind::Object);
  EXPECT_EQ(v.string("s"), "\"\\/\b\f\n\r\tA\xc3\xa9\x1f");
}

TEST(JsonReaderTest, MalformedInputIsAJsonErrorWithItsOffset) {
  const auto offset_of = [](const std::string& text) -> std::size_t {
    try {
      parse_json(text);
    } catch (const JsonError& e) {
      return e.offset();
    }
    ADD_FAILURE() << "accepted: " << text;
    return 0;
  };
  EXPECT_EQ(offset_of(""), 0u);
  EXPECT_EQ(offset_of("{\"a\":1,}"), 7u);          // trailing comma
  EXPECT_EQ(offset_of("[1 2]"), 3u);              // missing comma
  EXPECT_EQ(offset_of("\"a\tb\""), 2u);           // raw control byte
  EXPECT_EQ(offset_of("\"\\x\""), 2u);            // unknown escape
  EXPECT_EQ(offset_of("\"\\u00g1\""), 3u);        // bad hex digit
  EXPECT_EQ(offset_of("\"\\u20ac\""), 3u);        // beyond U+00FF
  EXPECT_EQ(offset_of("01"), 0u);                 // leading zero
  EXPECT_EQ(offset_of("1."), 0u);                 // no fraction digits
  EXPECT_EQ(offset_of("-"), 0u);
  EXPECT_EQ(offset_of("1e999"), 0u);              // out of range
  EXPECT_EQ(offset_of("tru"), 0u);
  EXPECT_EQ(offset_of("{} x"), 3u);               // trailing content
  EXPECT_EQ(offset_of("\"open"), 5u);
  EXPECT_EQ(offset_of(std::string(300, '[')), 257u);  // nesting bound
}

TEST(JsonReaderTest, ShapeErrorsPointAtTheOffendingValue) {
  const JsonValue v =
      parse_json("{\"a\": \"x\", \"b\": 1.5, \"c\": 1e300, \"d\": -1, \"e\": 3000000000}");
  try {
    v.number("a");
    FAIL() << "a string read as a number";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.offset(), 6u);
    EXPECT_NE(std::string(e.what()).find("'a' is not a number"), std::string::npos);
  }
  EXPECT_THROW(v.at("missing"), JsonError);
  EXPECT_THROW(v.integer<int>("b"), JsonError);
  EXPECT_THROW(v.integer<std::int64_t>("c"), JsonError);  // beyond 2^53
  EXPECT_THROW(v.integer<std::uint64_t>("d"), JsonError);  // outside the type
  EXPECT_THROW(v.integer<int>("e"), JsonError);
  EXPECT_EQ(v.integer<std::int64_t>("e"), 3000000000);
  EXPECT_THROW(v.at("a").at("inner"), JsonError);
  EXPECT_THROW(v.string("b"), JsonError);
}

}  // namespace
}  // namespace saclo
