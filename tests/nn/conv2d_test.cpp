#include "nn/layers/conv2d.hpp"

#include <gtest/gtest.h>


#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "gradcheck.hpp"

namespace wm::nn {
namespace {

TEST(Conv2dTest, IdentityKernelReproducesInput) {
  Rng rng(1);
  Conv2d conv({.in_channels = 1, .out_channels = 1, .kernel = 3, .stride = 1,
               .pad = 1},
              rng);
  // Kernel with a single 1 in the centre == identity at 'same' padding.
  conv.parameters()[0]->value.fill(0.0f);
  conv.parameters()[0]->value[4] = 1.0f;
  conv.parameters()[1]->value.fill(0.0f);
  const Tensor x = Tensor::normal(Shape{1, 1, 5, 5}, rng);
  const Tensor y = conv.forward(x, true);
  ASSERT_EQ(y.shape(), x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(y[i], x[i], 1e-6f);
}

TEST(Conv2dTest, KnownCrossCorrelation) {
  Rng rng(2);
  Conv2d conv({.in_channels = 1, .out_channels = 1, .kernel = 2, .stride = 1,
               .pad = 0},
              rng);
  conv.parameters()[0]->value = Tensor(Shape{1, 4}, {1, 2, 3, 4});
  conv.parameters()[1]->value = Tensor(Shape{1}, {0.5f});
  const Tensor x(Shape{1, 1, 2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor y = conv.forward(x, true);
  ASSERT_EQ(y.shape(), Shape({1, 1, 1, 2}));
  // y[0] = 1*1 + 2*2 + 3*4 + 4*5 + 0.5 = 37.5
  EXPECT_FLOAT_EQ(y[0], 37.5f);
  // y[1] = 1*2 + 2*3 + 3*5 + 4*6 + 0.5 = 47.5
  EXPECT_FLOAT_EQ(y[1], 47.5f);
}

TEST(Conv2dTest, OutputShapeWithStrideAndPad) {
  Rng rng(3);
  Conv2d conv({.in_channels = 3, .out_channels = 8, .kernel = 3, .stride = 2,
               .pad = 1},
              rng);
  const Tensor x = Tensor::normal(Shape{2, 3, 9, 9}, rng);
  const Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 8, 5, 5}));
}

TEST(Conv2dTest, BiasBroadcastsPerChannel) {
  Rng rng(4);
  Conv2d conv({.in_channels = 1, .out_channels = 2, .kernel = 1, .stride = 1,
               .pad = 0},
              rng);
  conv.parameters()[0]->value = Tensor(Shape{2, 1}, {0, 0});
  conv.parameters()[1]->value = Tensor(Shape{2}, {3.0f, -1.0f});
  const Tensor x = Tensor::ones(Shape{1, 1, 2, 2});
  const Tensor y = conv.forward(x, true);
  for (std::int64_t s = 0; s < 4; ++s) {
    EXPECT_FLOAT_EQ(y[s], 3.0f);       // channel 0
    EXPECT_FLOAT_EQ(y[4 + s], -1.0f);  // channel 1
  }
}

TEST(Conv2dTest, RejectsWrongChannelCount) {
  Rng rng(5);
  Conv2d conv({.in_channels = 2, .out_channels = 1, .kernel = 3, .stride = 1,
               .pad = 1},
              rng);
  EXPECT_THROW(conv.forward(Tensor(Shape{1, 3, 4, 4}), true), ShapeError);
}

TEST(Conv2dTest, GradientsMatchFiniteDifferencesSingleChannel) {
  Rng rng(6);
  Conv2d conv({.in_channels = 1, .out_channels = 2, .kernel = 3, .stride = 1,
               .pad = 1},
              rng);
  const Tensor x = Tensor::normal(Shape{1, 1, 4, 4}, rng, 0.0f, 0.5f);
  const Tensor probe = Tensor::normal(Shape{1, 2, 4, 4}, rng, 0.0f, 0.5f);
  test::check_layer_gradients(conv, x, probe);
}

TEST(Conv2dTest, GradientsMatchFiniteDifferencesMultiChannelStride) {
  Rng rng(7);
  Conv2d conv({.in_channels = 2, .out_channels = 3, .kernel = 2, .stride = 2,
               .pad = 0},
              rng);
  const Tensor x = Tensor::normal(Shape{2, 2, 4, 4}, rng, 0.0f, 0.5f);
  const Tensor probe = Tensor::normal(Shape{2, 3, 2, 2}, rng, 0.0f, 0.5f);
  test::check_layer_gradients(conv, x, probe);
}

TEST(Conv2dTest, TranslationEquivariance) {
  // Shifting the input by one pixel shifts the output by one pixel
  // (away from borders) — the defining property of a convolution.
  Rng rng(8);
  Conv2d conv({.in_channels = 1, .out_channels = 1, .kernel = 3, .stride = 1,
               .pad = 1},
              rng);
  Tensor x(Shape{1, 1, 8, 8});
  x.at(0, 0, 3, 3) = 1.0f;
  Tensor xs(Shape{1, 1, 8, 8});
  xs.at(0, 0, 3, 4) = 1.0f;
  const Tensor y = conv.forward(x, true);
  const Tensor ys = conv.forward(xs, true);
  for (std::int64_t r = 1; r < 7; ++r) {
    for (std::int64_t c = 1; c < 6; ++c) {
      EXPECT_NEAR(y.at(0, 0, r, c), ys.at(0, 0, r, c + 1), 1e-6f);
    }
  }
}

// The batch fan-out must not change results: forward partitions output
// images whole, and backward's dW GEMM splits only M/N panels, db sums each
// channel on one thread and dX convolves each image whole, so every result
// is bit-exact at any pool size.
TEST(Conv2dTest, ParallelMatchesSerial) {
  auto run = [](std::size_t total_threads, Tensor* dx, Tensor* dw,
                Tensor* db) {
    ThreadPool::configure_global(total_threads);
    Rng rng(9);
    Conv2d conv({.in_channels = 3, .out_channels = 8, .kernel = 3,
                 .stride = 1, .pad = 1},
                rng);
    const Tensor x = Tensor::normal(Shape{9, 3, 10, 10}, rng);
    const Tensor y = conv.forward(x, true);
    Rng grng(10);
    const Tensor dy = Tensor::normal(y.shape(), grng);
    conv.zero_grad();
    *dx = conv.backward(dy);
    *dw = conv.parameters()[0]->grad;
    *db = conv.parameters()[1]->grad;
    ThreadPool::configure_global(0);
    return y;
  };
  Tensor dx1, dw1, db1, dx4, dw4, db4;
  const Tensor y1 = run(1, &dx1, &dw1, &db1);
  const Tensor y4 = run(4, &dx4, &dw4, &db4);
  for (std::int64_t i = 0; i < y1.numel(); ++i) ASSERT_EQ(y1[i], y4[i]);
  for (std::int64_t i = 0; i < dx1.numel(); ++i) ASSERT_EQ(dx1[i], dx4[i]);
  for (std::int64_t i = 0; i < dw1.numel(); ++i) ASSERT_EQ(dw1[i], dw4[i]);
  for (std::int64_t i = 0; i < db1.numel(); ++i) ASSERT_EQ(db1[i], db4[i]);
}

}  // namespace
}  // namespace wm::nn
