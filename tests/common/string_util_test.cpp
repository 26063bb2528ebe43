#include "common/string_util.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace wm {
namespace {

TEST(StringUtilTest, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

TEST(StringUtilTest, FormatPercent) {
  EXPECT_EQ(format_percent(0.941), "94.1%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
  EXPECT_EQ(format_percent(0.0555, 2), "5.55%");
}

TEST(StringUtilTest, Padding) {
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");  // no truncation
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = split("a::b:", ':');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n z"), "z");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(starts_with("wafer_map", "wafer"));
  EXPECT_FALSE(starts_with("wafer", "wafer_map"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(StringUtilTest, ParseNumbersTakeTheWholeToken) {
  EXPECT_EQ(parse_int("42", "--n"), 42);
  EXPECT_EQ(parse_int("-7", "--n"), -7);
  EXPECT_DOUBLE_EQ(parse_double("0.9", "--t"), 0.9);
  EXPECT_DOUBLE_EQ(parse_double("2.5e-3", "--t"), 2.5e-3);
  EXPECT_DOUBLE_EQ(parse_double("99999999999", "--t"), 99999999999.0);
  // Trailing junk, nothing at all, and values past the type's range.
  for (const char* bad : {"0.9oops", "3x", "", "1e999", "99999999999"}) {
    EXPECT_THROW(parse_int(bad, "--n"), InvalidArgument) << bad;
  }
  for (const char* bad : {"0.9oops", "3x", "", "1e999"}) {
    EXPECT_THROW(parse_double(bad, "--t"), InvalidArgument) << bad;
  }
  try {
    parse_int("2x", "--per-class");
    FAIL() << "2x parsed";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--per-class"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace wm
