// Unit tests for the JSON module: parser, writer, accessors, error paths.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>

#include "common/transient_error.h"
#include "json/json.h"

namespace pim::json {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(parse("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(parse("-2.5e-2").as_double(), -0.025);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, IntVsDouble) {
  EXPECT_TRUE(parse("7").is_int());
  EXPECT_FALSE(parse("7.0").is_int());
  EXPECT_TRUE(parse("7.0").is_number());
  // as_int on an integral double works; on a fractional one throws.
  EXPECT_EQ(parse("7.0").as_int(), 7);
  EXPECT_THROW(parse("7.5").as_int(), Error);
}

TEST(JsonParse, Arrays) {
  Value v = parse("[1, 2, 3]");
  ASSERT_TRUE(v.is_array());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.at(0).as_int(), 1);
  EXPECT_EQ(v.at(2).as_int(), 3);
  EXPECT_THROW(v.at(3), Error);
  EXPECT_TRUE(parse("[]").as_array().empty());
  EXPECT_EQ(parse("[[1],[2,3]]").at(1).at(1).as_int(), 3);
}

TEST(JsonParse, Objects) {
  Value v = parse(R"({"a": 1, "b": {"c": "x"}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_EQ(v.at("b").at("c").as_string(), "x");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("z"));
  EXPECT_THROW(v.at("z"), Error);
  EXPECT_TRUE(parse("{}").as_object().empty());
}

TEST(JsonParse, CommentsAndTrailingCommas) {
  Value v = parse(R"({
    // architecture section
    "cores": 64,   // paper config
    "list": [1, 2, 3,],
  })");
  EXPECT_EQ(v.at("cores").as_int(), 64);
  EXPECT_EQ(v.at("list").size(), 3u);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\nb")").as_string(), "a\nb");
  EXPECT_EQ(parse(R"("q\"q")").as_string(), "q\"q");
  EXPECT_EQ(parse(R"("\\")").as_string(), "\\");
  EXPECT_EQ(parse(R"("\t\r\b\f")").as_string(), "\t\r\b\f");
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
  EXPECT_EQ(parse(R"("é")").as_string(), "\xc3\xa9");  // é in UTF-8
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  try {
    parse("{\n  \"a\": 1,\n  \"b\" 2\n}");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_THROW(parse(""), Error);
  EXPECT_THROW(parse("{"), Error);
  EXPECT_THROW(parse("[1 2]"), Error);
  EXPECT_THROW(parse("tru"), Error);
  EXPECT_THROW(parse("\"unterminated"), Error);
  EXPECT_THROW(parse("{\"a\":}"), Error);
  EXPECT_THROW(parse("1 2"), Error);  // trailing garbage
  EXPECT_THROW(parse("{'single':1}"), Error);
}

TEST(JsonDump, CompactAndPretty) {
  Value v;
  v["b"] = Value(1);
  v["a"] = Value(json::Array{Value(true), Value(nullptr)});
  EXPECT_EQ(v.dump(), R"({"a":[true,null],"b":1})");  // keys sorted (std::map)
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find("\n  \"a\""), std::string::npos);
}

TEST(JsonDump, RoundTrip) {
  const char* text = R"({"arr":[1,2.5,"s",false,null],"nested":{"x":-3}})";
  Value v = parse(text);
  EXPECT_EQ(parse(v.dump()), v);
  EXPECT_EQ(parse(v.dump(4)), v);
}

TEST(JsonDump, StringEscaping) {
  Value v("line1\nline2\t\"quoted\"");
  EXPECT_EQ(v.dump(), R"("line1\nline2\t\"quoted\"")");
  EXPECT_EQ(parse(v.dump()).as_string(), v.as_string());
}

TEST(JsonValue, GetOrDefaults) {
  Value v = parse(R"({"i": 3, "d": 2.5, "s": "x", "b": true})");
  EXPECT_EQ(v.get_or("i", int64_t{9}), 3);
  EXPECT_EQ(v.get_or("missing", int64_t{9}), 9);
  EXPECT_DOUBLE_EQ(v.get_or("d", 1.0), 2.5);
  EXPECT_DOUBLE_EQ(v.get_or("missing", 1.0), 1.0);
  EXPECT_EQ(v.get_or("s", std::string("y")), "x");
  EXPECT_EQ(v.get_or("missing", "y"), "y");
  EXPECT_EQ(v.get_or("b", false), true);
  EXPECT_EQ(v.get_or("missing", false), false);
}

TEST(JsonValue, TypeErrors) {
  Value v = parse("[1]");
  EXPECT_THROW(v.as_object(), Error);
  EXPECT_THROW(v.as_string(), Error);
  EXPECT_THROW(v.at("k"), Error);
  EXPECT_THROW(parse("3").as_array(), Error);
  EXPECT_THROW(parse("\"s\"").as_int(), Error);
}

TEST(JsonValue, MutationBuildsObjects) {
  Value v;  // starts null
  v["a"]["b"] = Value(1);  // null converts to object on demand
  EXPECT_EQ(v.at("a").at("b").as_int(), 1);
}

TEST(JsonValue, NumericEqualityAcrossIntDouble) {
  EXPECT_EQ(parse("3"), parse("3.0"));
  EXPECT_FALSE(parse("3") == parse("3.5"));
}

TEST(JsonFile, WriteAndParseFile) {
  const std::string path = std::filesystem::temp_directory_path() / "pim_json_test.json";
  Value v;
  v["x"] = Value(int64_t{123});
  write_file(path, v);
  Value r = parse_file(path);
  EXPECT_EQ(r, v);
  // An open that fails with a non-retryable errno (ENOTDIR: a path under a
  // regular file) is an Error; a vanished file (ENOENT) may come back, so it
  // is a TransientError carrying its errno.
  EXPECT_THROW(parse_file(path + "/child"), Error);
  std::remove(path.c_str());
  try {
    parse_file(path);
    ADD_FAILURE() << "parsed a removed file";
  } catch (const TransientError& e) {
    EXPECT_EQ(e.error_code(), ENOENT);
  }
}

TEST(JsonParse, BigIntegersExact) {
  const int64_t big = 123456789012345678;
  EXPECT_EQ(parse("123456789012345678").as_int(), big);
  EXPECT_EQ(parse(Value(big).dump()).as_int(), big);
}

TEST(JsonParse, DeepNesting) {
  std::string text;
  for (int i = 0; i < 60; ++i) text += "[";
  text += "1";
  for (int i = 0; i < 60; ++i) text += "]";
  Value v = parse(text);
  const Value* cur = &v;
  for (int i = 0; i < 60; ++i) cur = &cur->at(0);
  EXPECT_EQ(cur->as_int(), 1);
}

std::string nested_arrays(int depth) {
  std::string text(static_cast<size_t>(depth), '[');
  text += "1";
  text.append(static_cast<size_t>(depth), ']');
  return text;
}

TEST(JsonParse, DepthCapStopsNestingBombs) {
  // Exactly at the cap still parses; one past it is a clean Error. The 100k
  // bomb used to exhaust the host stack — it must throw, not crash.
  EXPECT_NO_THROW(parse(nested_arrays(256)));
  EXPECT_THROW(parse(nested_arrays(257)), Error);
  EXPECT_THROW(parse(nested_arrays(100000)), Error);
  // Objects count against the same cap.
  std::string objs;
  for (int i = 0; i < 300; ++i) objs += "{\"k\":";
  objs += "1";
  objs.append(300, '}');
  EXPECT_THROW(parse(objs), Error);
  try {
    parse(nested_arrays(100000));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper"), std::string::npos) << e.what();
  }
}

TEST(JsonParse, SurrogatePairsDecodeToAstralCodePoints) {
  // U+1F600 via its surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(parse(R"("\uD83D\uDE00")").as_string(), "\xF0\x9F\x98\x80");
  // U+10000, the first astral code point.
  EXPECT_EQ(parse(R"("\uD800\uDC00")").as_string(), "\xF0\x90\x80\x80");
  // U+10FFFF, the last one.
  EXPECT_EQ(parse(R"("\uDBFF\uDFFF")").as_string(), "\xF4\x8F\xBF\xBF");
  // BMP escapes are unaffected.
  EXPECT_EQ(parse(R"("\u00e9")").as_string(), "\xc3\xa9");
  EXPECT_EQ(parse(R"("\u0041")").as_string(), "A");
}

TEST(JsonParse, LoneSurrogatesRejected) {
  EXPECT_THROW(parse(R"("\uD800")"), Error);          // lone high, end of string
  EXPECT_THROW(parse(R"("\uD800x")"), Error);         // high followed by a char
  EXPECT_THROW(parse(R"("\uD800\n")"), Error);        // high followed by an escape
  EXPECT_THROW(parse(R"("\uD800\uD800")"), Error);    // high followed by high
  EXPECT_THROW(parse(R"("\uDC00")"), Error);          // lone low
  EXPECT_THROW(parse(R"("\uDFFF\uDC00")"), Error);    // low first
  try {
    parse(R"("\uDC00")");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("surrogate"), std::string::npos) << e.what();
  }
}

TEST(JsonDump, AstralRoundTrip) {
  // dump() passes 4-byte UTF-8 through raw, so a surrogate-pair escape
  // round-trips through Value::dump -> parse unchanged.
  Value v = parse(R"({"emoji":"\uD83D\uDE00","mix":"a\uD83D\uDE00b"})");
  EXPECT_EQ(parse(v.dump()), v);
  EXPECT_EQ(parse(v.dump(2)), v);
  EXPECT_EQ(v.at("mix").as_string(), "a\xF0\x9F\x98\x80"
                                     "b");
}

}  // namespace
}  // namespace pim::json
