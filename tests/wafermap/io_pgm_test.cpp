#include "wafermap/io_pgm.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "wafermap/defect_types.hpp"
#include "wafermap/synth/patterns.hpp"

namespace wm {
namespace {

class PgmTest : public ::testing::Test {
 protected:
  // PID-unique path: ctest runs each test as its own process, possibly in
  // parallel, so a fixed temp name would race between test processes.
  std::string path_ = (std::filesystem::temp_directory_path() /
                       ("wm_pgm_test_" + std::to_string(::getpid()) + ".pgm"))
                          .string();
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(PgmTest, RoundTrip) {
  Rng rng(1);
  const WaferMap map =
      synth::generate(DefectType::kDonut, 24, rng);
  write_pgm(path_, map);
  const WaferMap back = read_pgm(path_);
  EXPECT_EQ(back, map);
}

TEST_F(PgmTest, HeaderIsBinaryPgm) {
  write_pgm(path_, WaferMap(9));
  std::ifstream in(path_, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P5");
}

TEST(PgmIoTest, MissingFileThrows) {
  EXPECT_THROW(read_pgm("/nonexistent/file.pgm"), IoError);
  EXPECT_THROW(write_pgm("/nonexistent/dir/file.pgm", WaferMap(9)), IoError);
}

TEST(AsciiRenderTest, UsesExpectedGlyphs) {
  WaferMap map(9);
  map.set(4, 4, Die::kFail);
  const std::string art = ascii_render(map);
  // 9 rows of 9 chars + newlines.
  EXPECT_EQ(art.size(), 9u * 10u);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find('.'), std::string::npos);
  EXPECT_NE(art.find(' '), std::string::npos);
  // The failing die is at row 4, col 4.
  EXPECT_EQ(art[4 * 10 + 4], '#');
}

TEST(DefectTypesTest, NamesRoundTrip) {
  for (DefectType t : all_defect_types()) {
    EXPECT_EQ(defect_type_from_string(to_string(t)), t);
  }
  EXPECT_THROW(defect_type_from_string("Bogus"), InvalidArgument);
}

TEST(DefectTypesTest, IndexRoundTrip) {
  for (int i = 0; i < kNumDefectTypes; ++i) {
    EXPECT_EQ(static_cast<int>(defect_type_from_index(i)), i);
  }
  EXPECT_THROW(defect_type_from_index(-1), InvalidArgument);
  EXPECT_THROW(defect_type_from_index(9), InvalidArgument);
}

TEST(DefectTypesTest, PaperNames) {
  EXPECT_EQ(to_string(DefectType::kEdgeRing), "Edge-Ring");
  EXPECT_EQ(to_string(DefectType::kNearFull), "Near-Full");
  EXPECT_EQ(to_string(DefectType::kNone), "None");
}

}  // namespace
}  // namespace wm
