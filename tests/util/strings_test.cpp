#include "util/strings.hpp"

#include <gtest/gtest.h>

namespace rp::util {
namespace {

TEST(Split, BasicFields) {
  const auto parts = split("a.b.c", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = split("a..b.", '.');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, NoDelimiterYieldsWhole) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(IsAllDigits, Cases) {
  EXPECT_TRUE(is_all_digits("0123"));
  EXPECT_FALSE(is_all_digits(""));
  EXPECT_FALSE(is_all_digits("12a"));
  EXPECT_FALSE(is_all_digits("-1"));
}

TEST(ParseU32, ParsesAndBounds) {
  unsigned long v = 0;
  EXPECT_TRUE(parse_u32("4294967295", v));
  EXPECT_EQ(v, 4294967295UL);
  EXPECT_FALSE(parse_u32("4294967296", v));
  EXPECT_FALSE(parse_u32("", v));
  EXPECT_FALSE(parse_u32("1x", v));
  EXPECT_TRUE(parse_u32("0", v));
  EXPECT_EQ(v, 0UL);
}

TEST(SplitTokens, SplitsOnWhitespaceRuns) {
  EXPECT_EQ(split_tokens("  axis econ.h\t0.002  0.006 \r"),
            (std::vector<std::string>{"axis", "econ.h", "0.002", "0.006"}));
  EXPECT_TRUE(split_tokens("").empty());
  EXPECT_TRUE(split_tokens(" \t\v\f ").empty());
  // Control bytes that are not whitespace stay inside their token.
  EXPECT_EQ(split_tokens("name a\x01" "b"),
            (std::vector<std::string>{"name", "a\x01" "b"}));
}

TEST(Strings, FormatDoubleIsCanonical) {
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(1e10), "1e+10");
  EXPECT_EQ(format_double(1.0 / 3.0), "0.3333333333");
  EXPECT_EQ(format_double(-2.5e-7), "-2.5e-07");
  // Idempotent: same value, same spelling, every time.
  EXPECT_EQ(format_double(0.1234567890123), format_double(0.1234567890123));
}

}  // namespace
}  // namespace rp::util
