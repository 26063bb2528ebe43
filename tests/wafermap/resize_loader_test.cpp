#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "wafermap/resize.hpp"
#include "wafermap/synth/generator.hpp"
#include "wafermap/wm811k_loader.hpp"

namespace wm {
namespace {

namespace fs = std::filesystem;

TEST(ResizeTest, SameSizeIsIdentity) {
  Rng rng(1);
  const WaferMap map = synth::generate(DefectType::kDonut, 20, rng);
  EXPECT_EQ(resize_map(map, 20), map);
}

TEST(ResizeTest, UpscalePreservesPattern) {
  WaferMap map(10);
  map.set(5, 5, Die::kFail);
  const WaferMap big = resize_map(map, 30);
  EXPECT_EQ(big.size(), 30);
  // The failing die maps to a 3x3 block around (16, 16).
  EXPECT_EQ(big.at(16, 16), Die::kFail);
  EXPECT_GT(big.fail_count(), 4);
  // Overall density roughly preserved.
  EXPECT_NEAR(big.fail_fraction(), map.fail_fraction(),
              0.6 * map.fail_fraction());
}

TEST(ResizeTest, DownscaleKeepsCoarseStructure) {
  Rng rng(2);
  const WaferMap map = synth::generate(DefectType::kEdgeRing, 48, rng);
  const WaferMap small = resize_map(map, 16);
  EXPECT_EQ(small.size(), 16);
  // Edge-ring signature survives: failures stay concentrated at the edge.
  double edge_fails = 0.0;
  double inner_fails = 0.0;
  const double c = small.center();
  for (int r = 0; r < 16; ++r) {
    for (int col = 0; col < 16; ++col) {
      if (!small.on_wafer(r, col) || small.at(r, col) != Die::kFail) continue;
      const double d = std::sqrt((r - c) * (r - c) + (col - c) * (col - c));
      (d > 0.75 * small.radius() ? edge_fails : inner_fails) += 1.0;
    }
  }
  EXPECT_GT(edge_fails, inner_fails);
}

TEST(ResizeTest, RejectsTinyTarget) {
  EXPECT_THROW(resize_map(WaferMap(10), 2), InvalidArgument);
}

class LoaderTest : public ::testing::Test {
 protected:
  // PID-unique path: ctest runs each test as its own process, possibly in
  // parallel, so a fixed temp name would race between test processes.
  std::string dir_ = (fs::temp_directory_path() /
                      ("wm_loader_test_" + std::to_string(::getpid())))
                         .string();
  void TearDown() override { fs::remove_all(dir_); }
};

TEST_F(LoaderTest, SaveLoadRoundTrip) {
  Rng rng(3);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts[0] = 3;
  spec.class_counts[8] = 2;
  const Dataset data = synth::generate_dataset(spec, rng);
  save_wafer_directory(dir_, data);
  const Dataset back = load_wafer_directory(dir_);
  ASSERT_EQ(back.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(back[i].map, data[i].map);
    EXPECT_EQ(back[i].label, data[i].label);
  }
}

TEST_F(LoaderTest, TargetSizeResamples) {
  Rng rng(4);
  synth::DatasetSpec spec;
  spec.map_size = 20;
  spec.class_counts[3] = 4;
  save_wafer_directory(dir_, synth::generate_dataset(spec, rng));
  const Dataset loaded = load_wafer_directory(dir_, {.target_size = 16});
  EXPECT_EQ(loaded.map_size(), 16);
}

TEST_F(LoaderTest, LimitCapsCount) {
  Rng rng(5);
  synth::DatasetSpec spec;
  spec.map_size = 12;
  spec.class_counts[0] = 10;
  save_wafer_directory(dir_, synth::generate_dataset(spec, rng));
  const Dataset loaded = load_wafer_directory(dir_, {.limit = 4});
  EXPECT_EQ(loaded.size(), 4u);
}

TEST_F(LoaderTest, MissingIndexThrows) {
  fs::create_directories(dir_);
  EXPECT_THROW(load_wafer_directory(dir_), IoError);
}

TEST_F(LoaderTest, UnknownClassNameThrows) {
  Rng rng(6);
  synth::DatasetSpec spec;
  spec.map_size = 12;
  spec.class_counts[0] = 1;
  save_wafer_directory(dir_, synth::generate_dataset(spec, rng));
  // Corrupt the index with an unknown label.
  std::ofstream index(fs::path(dir_) / "index.csv", std::ios::app);
  index << "wafer_0.pgm,Bogus\n";
  index.close();
  EXPECT_THROW(load_wafer_directory(dir_), InvalidArgument);
}

}  // namespace
}  // namespace wm
