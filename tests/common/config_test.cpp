#include "common/config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/error.hpp"

namespace wm {
namespace {

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
