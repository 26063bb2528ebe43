#include "common/csv.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/error.hpp"

namespace wm {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  // PID-unique path: ctest runs each test as its own process, possibly in
  // parallel, so a fixed temp name would race between test processes.
  std::string path_ = (std::filesystem::temp_directory_path() /
                       ("wm_csv_test_" + std::to_string(::getpid()) + ".csv"))
                          .string();

  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, RoundTripSimpleRows) {
  {
    CsvWriter w(path_);
    w.write_row({"a", "b", "c"});
    w.write_row({"1", "2", "3"});
  }
  const auto rows = read_csv(path_);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST_F(CsvTest, QuotesFieldsWithCommasAndQuotes) {
  {
    CsvWriter w(path_);
    w.write_row({"x,y", "he said \"hi\"", "plain"});
  }
  const auto rows = read_csv(path_);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "x,y");
  EXPECT_EQ(rows[0][1], "he said \"hi\"");
  EXPECT_EQ(rows[0][2], "plain");
}

TEST_F(CsvTest, NumericRow) {
  {
    CsvWriter w(path_);
    w.write_row_numeric({1.5, -2.0, 0.333333});
  }
  const auto rows = read_csv(path_);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(std::stod(rows[0][0]), 1.5);
  EXPECT_DOUBLE_EQ(std::stod(rows[0][1]), -2.0);
  EXPECT_NEAR(std::stod(rows[0][2]), 0.333333, 1e-6);
}

TEST(CsvLineTest, SplitsEmptyFields) {
  const auto f = split_csv_line("a,,c,");
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[1], "");
  EXPECT_EQ(f[3], "");
}

TEST(CsvLineTest, HandlesEscapedQuotes) {
  const auto f = split_csv_line("\"a\"\"b\",c");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], "a\"b");
}

TEST(CsvIoTest, MissingFileThrows) {
  EXPECT_THROW(read_csv("/nonexistent/path/file.csv"), IoError);
  EXPECT_THROW(CsvWriter("/nonexistent/dir/file.csv"), IoError);
}

}  // namespace
}  // namespace wm
