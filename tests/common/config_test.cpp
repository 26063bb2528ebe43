#include "common/config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/error.hpp"

namespace wm {
namespace {

TEST(ConfigTest, SetAndGetString) {
  Config c;
  c.set("name", "wafer");
  EXPECT_EQ(c.get_string("name"), "wafer");
}

TEST(ConfigTest, DefaultsDoNotOverrideExplicit) {
  Config c;
  c.set("k", "1");
  c.set_default("k", "2");
  EXPECT_EQ(c.get_int("k"), 1);
}

TEST(ConfigTest, DefaultUsedWhenUnset) {
  Config c;
  c.set_default("epochs", "30");
  EXPECT_EQ(c.get_int("epochs"), 30);
}

TEST(ConfigTest, MissingKeyThrows) {
  Config c;
  EXPECT_THROW(c.get_string("absent"), InvalidArgument);
}

TEST(ConfigTest, FallbackGetters) {
  Config c;
  EXPECT_EQ(c.get_int("absent", 7), 7);
  EXPECT_DOUBLE_EQ(c.get_double("absent", 0.25), 0.25);
  EXPECT_EQ(c.get_string("absent", "x"), "x");
  EXPECT_TRUE(c.get_bool("absent", true));
}

TEST(ConfigTest, IntParsing) {
  Config c;
  c.set("n", "-42");
  EXPECT_EQ(c.get_int("n"), -42);
  c.set("bad", "12abc");
  EXPECT_THROW(c.get_int("bad"), InvalidArgument);
}

TEST(ConfigTest, DoubleParsing) {
  Config c;
  c.set("x", "2.5e-3");
  EXPECT_DOUBLE_EQ(c.get_double("x"), 2.5e-3);
  c.set("bad", "zz");
  EXPECT_THROW(c.get_double("bad"), InvalidArgument);
}

TEST(ConfigTest, BoolParsing) {
  Config c;
  for (const char* t : {"1", "true", "YES", "On"}) {
    c.set("b", t);
    EXPECT_TRUE(c.get_bool("b")) << t;
  }
  for (const char* f : {"0", "false", "NO", "off"}) {
    c.set("b", f);
    EXPECT_FALSE(c.get_bool("b")) << f;
  }
  c.set("b", "maybe");
  EXPECT_THROW(c.get_bool("b"), InvalidArgument);
}

TEST(ConfigTest, EnvironmentOverridesDefault) {
  ::setenv("WM_UNITTESTKEY", "99", 1);
  Config c;
  c.set_default("unittestkey", "1");
  EXPECT_EQ(c.get_int("unittestkey"), 99);
  ::unsetenv("WM_UNITTESTKEY");
}

TEST(ConfigTest, ExplicitBeatsEnvironment) {
  ::setenv("WM_UNITTESTKEY2", "99", 1);
  Config c;
  c.set("unittestkey2", "5");
  EXPECT_EQ(c.get_int("unittestkey2"), 5);
  ::unsetenv("WM_UNITTESTKEY2");
}

TEST(ScaledTest, RoundsAndClamps) {
  EXPECT_EQ(scaled(100, 1.0), 100);
  EXPECT_EQ(scaled(100, 0.5), 50);
  EXPECT_EQ(scaled(3, 0.1), 1);     // clamped to min 1
  EXPECT_EQ(scaled(3, 0.1, 2), 2);  // custom clamp
  EXPECT_EQ(scaled(10, 2.0), 20);
  EXPECT_THROW(scaled(10, 0.0), InvalidArgument);
  // A finite scale whose product leaves int's range is an error, not a
  // conversion with an unspecified result.
  EXPECT_THROW(scaled(10, 1e300), InvalidArgument);
}

TEST(BenchScaleTest, DefaultsToOneAndReadsEnv) {
  ::unsetenv("WM_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  ::setenv("WM_BENCH_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 0.25);
  ::setenv("WM_BENCH_SCALE", "garbage", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  ::setenv("WM_BENCH_SCALE", "0.5x", 1);  // trailing characters
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  ::setenv("WM_BENCH_SCALE", "inf", 1);  // not finite
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  ::unsetenv("WM_BENCH_SCALE");
}

}  // namespace
}  // namespace wm
