#include "nn/layers/activations.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gradcheck.hpp"

namespace wm::nn {
namespace {

TEST(ReluTest, ForwardClampsNegatives) {
  ReLU relu;
  const Tensor x(Shape{1, 4}, {-2, -0.5, 0, 3});
  const Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 0.0f);
  EXPECT_FLOAT_EQ(y[3], 3.0f);
}

TEST(ReluTest, BackwardMasksByInputSign) {
  ReLU relu;
  const Tensor x(Shape{1, 3}, {-1, 2, -3});
  relu.forward(x, true);
  const Tensor g = relu.backward(Tensor(Shape{1, 3}, {10, 20, 30}));
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 20.0f);
  EXPECT_FLOAT_EQ(g[2], 0.0f);
}

TEST(SigmoidTest, ForwardKnownValues) {
  Sigmoid s;
  const Tensor x(Shape{1, 3}, {0.0f, 100.0f, -100.0f});
  const Tensor y = s.forward(x, true);
  EXPECT_NEAR(y[0], 0.5f, 1e-6f);
  EXPECT_NEAR(y[1], 1.0f, 1e-6f);
  EXPECT_NEAR(y[2], 0.0f, 1e-6f);
}

TEST(SigmoidTest, OutputAlwaysInUnitInterval) {
  Sigmoid s;
  Rng rng(1);
  const Tensor x = Tensor::normal(Shape{1, 100}, rng, 0.0f, 50.0f);
  const Tensor y = s.forward(x, true);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_GE(y[i], 0.0f);
    EXPECT_LE(y[i], 1.0f);
  }
}

TEST(ActivationGradcheck, Relu) {
  Rng rng(2);
  ReLU layer;
  // Keep inputs away from the kink at 0 where the derivative jumps.
  Tensor x = Tensor::normal(Shape{2, 6}, rng);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x[i]) < 0.1f) x[i] = 0.5f;
  }
  const Tensor probe = Tensor::normal(Shape{2, 6}, rng);
  test::check_layer_gradients(layer, x, probe);
}

TEST(ActivationGradcheck, Sigmoid) {
  Rng rng(3);
  Sigmoid layer;
  const Tensor x = Tensor::normal(Shape{2, 5}, rng);
  const Tensor probe = Tensor::normal(Shape{2, 5}, rng);
  test::check_layer_gradients(layer, x, probe);
}

}  // namespace
}  // namespace wm::nn
