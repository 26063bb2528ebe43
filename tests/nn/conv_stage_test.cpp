// ConvStage against the layer sequence it fuses: Conv2d -> [BatchNorm2d] ->
// ReLU -> MaxPool2d(2) with the same parameters must give the same bits for
// the training and eval forwards, every parameter gradient, the BatchNorm
// running statistics and dX, at every batch size and pool size.
#include "nn/layers/conv_stage.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "nn/layers/activations.hpp"
#include "nn/layers/batchnorm2d.hpp"
#include "nn/layers/conv2d.hpp"
#include "nn/layers/maxpool2d.hpp"
#include "nn/sequential.hpp"

namespace wm::nn {
namespace {

struct StageCase {
  std::int64_t batch;
  std::int64_t in_channels;
  std::int64_t out_channels;
  std::int64_t height;
  std::int64_t width;
  std::int64_t kernel;
  std::int64_t pad;
  bool batchnorm;
};

std::string describe(const StageCase& c) {
  return "batch " + std::to_string(c.batch) + ", " +
         std::to_string(c.in_channels) + "->" + std::to_string(c.out_channels) +
         " @" + std::to_string(c.height) + "x" + std::to_string(c.width) +
         " k" + std::to_string(c.kernel) + " p" + std::to_string(c.pad) +
         (c.batchnorm ? " bn" : "");
}

void expect_same_bits(const Tensor& got, const Tensor& want,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0)
      << what << " differs from the layer sequence";
}

/// Images whose top halves are zero: every conv output there equals the
/// bias, so those 2x2 windows tie, with a positive maximum in some channels
/// and a maximum of ReLU's 0 in others.
Tensor images_with_ties(const StageCase& c, Rng& rng) {
  Tensor x = Tensor::normal(
      Shape{c.batch, c.in_channels, c.height, c.width}, rng);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (i / c.width % c.height < c.height / 2) x[i] = 0.0f;
  }
  return x;
}

void check_stage(const StageCase& c, std::size_t threads) {
  SCOPED_TRACE(describe(c) + ", pool size " + std::to_string(threads));
  ThreadPool::configure_global(threads);
  Rng rng(17);
  ConvStage stage({.in_channels = c.in_channels,
                   .out_channels = c.out_channels, .kernel = c.kernel,
                   .pad = c.pad, .batchnorm = c.batchnorm},
                  rng);
  Conv2d conv({.in_channels = c.in_channels, .out_channels = c.out_channels,
               .kernel = c.kernel, .stride = 1, .pad = c.pad},
              rng);
  BatchNorm2d bn({.channels = c.out_channels});
  ReLU relu;
  MaxPool2d pool(2);
  std::vector<Module*> chain = {&conv};
  if (c.batchnorm) chain.push_back(&bn);
  chain.push_back(&relu);
  chain.push_back(&pool);

  // Random parameters (gamma partly negative), copied into the layers.
  std::vector<Parameter*> ref_params = conv.parameters();
  if (c.batchnorm) {
    for (Parameter* p : bn.parameters()) ref_params.push_back(p);
  }
  const std::vector<Parameter*> params = stage.parameters();
  ASSERT_EQ(params.size(), ref_params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(params[i]->name, ref_params[i]->name);
    if (i > 0) params[i]->value = Tensor::normal(params[i]->value.shape(), rng);
    ref_params[i]->value = params[i]->value;
  }
  ASSERT_EQ(stage.buffers().size(), c.batchnorm ? 2u : 0u);

  const Tensor x = images_with_ties(c, rng);
  const Tensor y = stage.forward(x, /*training=*/true);
  Tensor ref = x;
  Tensor relu_out;
  for (Module* m : chain) {
    ref = m->forward(ref, /*training=*/true);
    if (m == &relu) relu_out = ref;
  }
  expect_same_bits(y, ref, "training forward");

  // The cases must exercise both kinds of tied windows.
  int positive_ties = 0;
  int zero_windows = 0;
  const std::int64_t ow = relu_out.dim(3);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    const std::int64_t plane = i / (y.dim(2) * y.dim(3));
    const std::int64_t py = i / y.dim(3) % y.dim(2);
    const std::int64_t px = i % y.dim(3);
    const float* r0 = relu_out.data() +
                      (plane * relu_out.dim(2) + 2 * py) * ow + 2 * px;
    const float taps[] = {r0[0], r0[1], r0[ow], r0[ow + 1]};
    int at_max = 0;
    for (const float t : taps) at_max += (t == y[i]);
    positive_ties += (y[i] > 0.0f && at_max > 1);
    zero_windows += (y[i] == 0.0f);
  }
  EXPECT_GT(positive_ties, 0);
  EXPECT_GT(zero_windows, 0);

  const Tensor dy = Tensor::normal(y.shape(), rng);
  stage.zero_grad();
  for (Module* m : chain) m->zero_grad();
  const Tensor dx = stage.backward(dy);
  Tensor ref_dx = dy;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    ref_dx = (*it)->backward(ref_dx);
  }
  expect_same_bits(dx, ref_dx, "dX");
  for (std::size_t i = 0; i < params.size(); ++i) {
    expect_same_bits(params[i]->grad, ref_params[i]->grad,
                     "gradient of " + params[i]->name);
  }
  if (c.batchnorm) {
    expect_same_bits(*stage.buffers()[0], bn.running_mean(), "running mean");
    expect_same_bits(*stage.buffers()[1], bn.running_var(), "running var");
  }

  // backward_params accumulates the same parameter gradients, without dX.
  stage.zero_grad();
  stage.backward_params(dy);
  for (std::size_t i = 0; i < params.size(); ++i) {
    expect_same_bits(params[i]->grad, ref_params[i]->grad,
                     "backward_params gradient of " + params[i]->name);
  }

  Tensor ref_eval = x;
  for (Module* m : chain) ref_eval = m->forward(ref_eval, /*training=*/false);
  expect_same_bits(stage.forward(x, /*training=*/false), ref_eval,
                   "eval forward");
  ThreadPool::configure_global(0);
}

TEST(ConvStageTest, BitMatchesTheLayerSequence) {
  for (const bool bn : {true, false}) {
    for (const std::int64_t batch : {1, 7, 32}) {
      for (const std::size_t threads : {1u, 4u}) {
        check_stage({batch, 3, 8, 12, 12, 3, 1, bn}, threads);
        check_stage({batch, 2, 5, 10, 14, 5, 2, bn}, threads);
        // Rows of 18 windows: two eight-window vector steps, then the tail.
        check_stage({batch, 2, 3, 6, 36, 3, 1, bn}, threads);
        // Rows of 4 windows (conv3 of Table I) and of 13: the half-vector
        // step alone, and after an eight-window step, before the tail.
        check_stage({batch, 4, 3, 8, 8, 3, 1, bn}, threads);
        check_stage({batch, 2, 3, 4, 26, 3, 1, bn}, threads);
      }
    }
  }
  // A padless 1x1 conv over a single channel: every tap is an input pixel.
  check_stage({4, 1, 3, 8, 6, 1, 0, true}, 4);
}

TEST(ConvStageTest, SequentialBackwardParamsSkipsOnlyTheFirstInputGradient) {
  Rng rng(5);
  Sequential net;
  net.add(make_layer<ConvStage>(
             ConvStageOptions{.in_channels = 1, .out_channels = 4,
                              .kernel = 3, .pad = 1, .batchnorm = true},
             rng))
      .add(make_layer<ConvStage>(
          ConvStageOptions{.in_channels = 4, .out_channels = 4, .kernel = 3,
                           .pad = 1, .batchnorm = true},
          rng));
  const Tensor x = Tensor::normal(Shape{3, 1, 8, 8}, rng);
  const Tensor y = net.forward(x, true);
  const Tensor dy = Tensor::normal(y.shape(), rng);
  net.zero_grad();
  const Tensor dx = net.backward(dy);
  EXPECT_EQ(dx.shape(), x.shape());
  std::vector<Tensor> grads;
  for (const Parameter* p : net.parameters()) grads.push_back(p->grad);
  net.zero_grad();
  net.backward_params(dy);
  const std::vector<Parameter*> params = net.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    expect_same_bits(params[i]->grad, grads[i], params[i]->name);
  }
}

TEST(ConvStageTest, RejectsAnOddConvOutputAndBackwardBeforeForward) {
  Rng rng(6);
  ConvStage stage({.in_channels = 1, .out_channels = 2, .kernel = 3, .pad = 1},
                  rng);
  EXPECT_THROW(stage.backward(Tensor(Shape{1, 2, 2, 2})), Error);
  EXPECT_THROW(stage.forward(Tensor(Shape{1, 1, 5, 6}), true), ShapeError);
  EXPECT_THROW(stage.forward(Tensor(Shape{1, 2, 6, 6}), true), ShapeError);
  // Released caches are gone: backward needs a training forward again.
  const Tensor y = stage.forward(Tensor(Shape{1, 1, 4, 4}), true);
  stage.release_caches();
  EXPECT_THROW(stage.backward(y), Error);
}

}  // namespace
}  // namespace wm::nn
