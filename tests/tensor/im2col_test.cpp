#include "tensor/im2col.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"

namespace wm {
namespace {

TEST(ConvGeometryTest, OutputDims) {
  ConvGeometry g{.channels = 1, .height = 32, .width = 32, .kernel_h = 5,
                 .kernel_w = 5, .stride = 1, .pad = 2};
  g.validate();
  EXPECT_EQ(g.out_h(), 32);
  EXPECT_EQ(g.out_w(), 32);
  EXPECT_EQ(g.col_rows(), 25);
  EXPECT_EQ(g.col_cols(), 1024);
}

TEST(ConvGeometryTest, StridedOutputDims) {
  ConvGeometry g{.channels = 3, .height = 7, .width = 9, .kernel_h = 3,
                 .kernel_w = 3, .stride = 2, .pad = 0};
  g.validate();
  EXPECT_EQ(g.out_h(), 3);
  EXPECT_EQ(g.out_w(), 4);
}

TEST(ConvGeometryTest, DegenerateThrows) {
  ConvGeometry g{.channels = 1, .height = 2, .width = 2, .kernel_h = 5,
                 .kernel_w = 5, .stride = 1, .pad = 0};
  EXPECT_THROW(g.validate(), ShapeError);
  ConvGeometry bad_stride{.channels = 1, .height = 4, .width = 4,
                          .kernel_h = 3, .kernel_w = 3, .stride = 0, .pad = 0};
  EXPECT_THROW(bad_stride.validate(), ShapeError);
}

TEST(Im2ColTest, Known2x2KernelNoPad) {
  // 1x3x3 image, 2x2 kernel, stride 1, no pad -> col is 4 x 4.
  ConvGeometry g{.channels = 1, .height = 3, .width = 3, .kernel_h = 2,
                 .kernel_w = 2, .stride = 1, .pad = 0};
  const std::vector<float> img = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(g, img.data(), col.data());
  // Row 0 = top-left tap over the 4 output pixels: 1,2,4,5.
  EXPECT_EQ(col[0], 1.0f);
  EXPECT_EQ(col[1], 2.0f);
  EXPECT_EQ(col[2], 4.0f);
  EXPECT_EQ(col[3], 5.0f);
  // Row 3 = bottom-right tap: 5,6,8,9.
  EXPECT_EQ(col[12], 5.0f);
  EXPECT_EQ(col[15], 9.0f);
}

TEST(Im2ColTest, PaddingWritesZeros) {
  ConvGeometry g{.channels = 1, .height = 2, .width = 2, .kernel_h = 3,
                 .kernel_w = 3, .stride = 1, .pad = 1};
  const std::vector<float> img = {1, 2, 3, 4};
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(g, img.data(), col.data());
  // Output is 2x2; top-left output pixel with kernel tap (0,0) reads the
  // padded corner -> 0.
  EXPECT_EQ(col[0], 0.0f);
  // Center tap (kh=1,kw=1) row index = (0*3+1)*3+1 = 4; reads the image as-is.
  EXPECT_EQ(col[4 * 4 + 0], 1.0f);
  EXPECT_EQ(col[4 * 4 + 3], 4.0f);
}

TEST(Im2ColTest, MultiChannelRowOrdering) {
  ConvGeometry g{.channels = 2, .height = 2, .width = 2, .kernel_h = 1,
                 .kernel_w = 1, .stride = 1, .pad = 0};
  const std::vector<float> img = {1, 2, 3, 4, 10, 20, 30, 40};
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(g, img.data(), col.data());
  // 1x1 kernel: col row c == channel c flattened.
  EXPECT_EQ(col[0], 1.0f);
  EXPECT_EQ(col[3], 4.0f);
  EXPECT_EQ(col[4], 10.0f);
  EXPECT_EQ(col[7], 40.0f);
}

}  // namespace
}  // namespace wm
