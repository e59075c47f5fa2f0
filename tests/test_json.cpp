// The JSON text layer (core/json.h, core/file_io.h): the escaper and number
// format every exporter writes with, the reader's depth limit, and the
// checked whole-file reader/writer.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "core/file_io.h"
#include "core/json.h"

namespace ys {
namespace {

std::string parsed_string(const std::string& doc) {
  const auto v = json::parse(doc);
  EXPECT_TRUE(v.has_value()) << doc;
  if (!v.has_value()) return {};
  EXPECT_TRUE(v->is_string()) << doc;
  return v->string;
}

TEST(Json, EveryByteRoundTripsThroughEscapeAndParse) {
  for (int b = 0; b < 256; ++b) {
    const std::string s = "a" + std::string(1, static_cast<char>(b)) + "z";
    const std::string doc = json::quote(s);
    EXPECT_EQ(parsed_string(doc), s) << "byte " << b;
    // Nothing below 0x20 may appear raw inside a JSON string.
    for (char c : doc) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "byte " << b;
    }
  }
  std::string all;
  for (int b = 0; b < 256; ++b) all += static_cast<char>(b);
  EXPECT_EQ(parsed_string(json::quote(all)), all);
}

TEST(Json, EscapeUsesShortFormsThenUnicode) {
  EXPECT_EQ(json::quote("\"\\\n\r\t"), "\"\\\"\\\\\\n\\r\\t\"");
  EXPECT_EQ(json::quote(std::string(1, '\0')), "\"\\u0000\"");
  EXPECT_EQ(json::quote("\x01\x1f"), "\"\\u0001\\u001f\"");
  EXPECT_EQ(json::quote("\x7f/\xc3\xa9"), "\"\x7f/\xc3\xa9\"");
  std::string out = "x";
  json::append_string(out, "");
  EXPECT_EQ(out, "x\"\"");
}

TEST(Json, IntegralNumbersPrintAsIntegersBelowCutOver) {
  EXPECT_EQ(json::number(0), "0");
  EXPECT_EQ(json::number(42), "42");
  EXPECT_EQ(json::number(-7), "-7");
  EXPECT_EQ(json::number(1712345678), "1712345678");
  EXPECT_EQ(json::number(999999999999999.0), "999999999999999");
  EXPECT_EQ(json::number(-999999999999999.0), "-999999999999999");
  // At 1e15 and beyond the %.17g form takes over.
  EXPECT_EQ(json::number(1e15), "1000000000000000");
  EXPECT_EQ(json::number(1e17), "1e+17");
  EXPECT_EQ(json::number(-1e17), "-1e+17");
}

TEST(Json, FractionalNumbersRoundTripExactly) {
  const double values[] = {0.1,     1.0 / 3.0, -2.5,   1e-300, 2.5e-308,
                           DBL_MAX, DBL_MIN,   1e15 + 0.5, 123.456,
                           std::numeric_limits<double>::denorm_min()};
  for (double v : values) {
    const std::string text = json::number(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    const auto parsed = json::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(parsed->number, v) << text;
  }
  EXPECT_EQ(json::number(0.5), "0.5");
  EXPECT_EQ(json::number(1234.567), "1234.567");
}

TEST(Json, NegativeZeroAndNonFiniteValues) {
  EXPECT_EQ(json::number(-0.0), "0");
  EXPECT_EQ(json::number(std::nan("")), "null");
  EXPECT_EQ(json::number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json::number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, IntegerAppendsCoverTheFullRange) {
  std::string out;
  json::append_int(out, std::numeric_limits<i64>::min());
  out += ' ';
  json::append_int(out, 0);
  out += ' ';
  json::append_uint(out, std::numeric_limits<u64>::max());
  EXPECT_EQ(out, "-9223372036854775808 0 18446744073709551615");
}

TEST(Json, NestingUpToTheLimitParses) {
  const std::string arrays =
      std::string(json::kMaxDepth, '[') + std::string(json::kMaxDepth, ']');
  EXPECT_TRUE(json::parse(arrays).has_value());

  std::string objects;
  for (int i = 0; i < json::kMaxDepth; ++i) objects += "{\"a\":";
  objects += "1";
  objects += std::string(json::kMaxDepth, '}');
  EXPECT_TRUE(json::parse(objects).has_value());
}

TEST(Json, NestingPastTheLimitIsRejected) {
  const int over = json::kMaxDepth + 1;
  EXPECT_FALSE(json::parse(std::string(over, '[') + std::string(over, ']'))
                   .has_value());
  std::string mixed;
  for (int i = 0; i < over; ++i) mixed += i % 2 == 0 ? "[" : "{\"k\":";
  EXPECT_FALSE(json::parse(mixed).has_value());
  // Deep enough to overflow the stack of an unbounded recursive reader.
  EXPECT_FALSE(json::parse(std::string(50000, '[')).has_value());
  EXPECT_FALSE(json::parse(std::string(50000, '[') + std::string(50000, ']'))
                   .has_value());
}

TEST(Json, WriteFileThenReadFileRoundTrips) {
  const std::string path = "test_json_roundtrip.tmp";
  std::string text = "{\"k\": 1}\n";
  text += std::string(1, '\0');
  text += std::string(200000, 'x');  // past one read buffer
  ASSERT_TRUE(write_file(path, text));
  const auto back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, text);
  ASSERT_TRUE(write_file(path, "short"));  // truncates
  EXPECT_EQ(read_file(path).value_or(""), "short");
  std::remove(path.c_str());
}

TEST(Json, ReadFileFailsOnMissingFileOrDirectory) {
  EXPECT_FALSE(read_file("test_json_no_such_file.tmp").has_value());
  EXPECT_FALSE(read_file(".").has_value());
}

TEST(Json, WriteFileReportsFullDevice) {
  // /dev/full accepts the open and fails the flush with ENOSPC.
  EXPECT_FALSE(write_file("/dev/full", "{\"lost\": true}\n"));
  EXPECT_FALSE(write_file("test_json_no_such_dir/out.json", "{}"));
}

}  // namespace
}  // namespace ys
