// Integration tests: end-to-end training of small networks.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/layers/activations.hpp"
#include "nn/layers/conv2d.hpp"
#include "nn/layers/flatten.hpp"
#include "nn/layers/linear.hpp"
#include "nn/layers/maxpool2d.hpp"
#include "nn/loss/cross_entropy.hpp"
#include "nn/optim/optimizer.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor_ops.hpp"

namespace wm::nn {
namespace {

TEST(SequentialTest, ForwardBackwardChains) {
  Rng rng(1);
  Sequential net;
  net.add(make_layer<Linear>(4, 8, rng))
      .add(make_layer<ReLU>())
      .add(make_layer<Linear>(8, 2, rng));
  EXPECT_EQ(net.size(), 3u);
  EXPECT_EQ(net.parameters().size(), 4u);
  const Tensor x = Tensor::normal(Shape{3, 4}, rng);
  const Tensor y = net.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({3, 2}));
  const Tensor dx = net.backward(Tensor::ones(Shape{3, 2}));
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(SequentialTest, NameListsLayers) {
  Rng rng(2);
  Sequential net;
  net.add(make_layer<Flatten>()).add(make_layer<ReLU>());
  EXPECT_EQ(net.name(), "Sequential[Flatten, ReLU]");
}

TEST(SequentialTrainTest, LearnsXor) {
  Rng rng(3);
  Sequential net;
  net.add(make_layer<Linear>(2, 16, rng))
      .add(make_layer<ReLU>())
      .add(make_layer<Linear>(16, 2, rng));
  Adam opt(net.parameters(), {.lr = 0.02});

  const Tensor x(Shape{4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  const std::vector<int> labels = {0, 1, 1, 0};

  float final_loss = 1e9f;
  for (int epoch = 0; epoch < 400; ++epoch) {
    const Tensor logits = net.forward(x, true);
    const auto loss = SoftmaxCrossEntropy::compute(logits, labels);
    opt.zero_grad();
    net.backward(loss.grad);
    opt.step();
    final_loss = loss.value;
  }
  EXPECT_LT(final_loss, 0.05f);
  const auto preds = argmax_rows(net.forward(x, false));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(preds[i], labels[i]) << "sample " << i;
  }
}

TEST(SequentialTrainTest, SmallCnnSeparatesSyntheticPatterns) {
  // Two 8x8 classes: bright top-left quadrant vs bright bottom-right quadrant.
  Rng rng(4);
  const int n_per_class = 12;
  Tensor x(Shape{2 * n_per_class, 1, 8, 8});
  std::vector<int> labels;
  for (int i = 0; i < 2 * n_per_class; ++i) {
    const int cls = i % 2;
    labels.push_back(cls);
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        const int rr = cls == 0 ? r : r + 4;
        const int cc = cls == 0 ? c : c + 4;
        x.at(i, 0, rr, cc) = 1.0f + 0.1f * static_cast<float>(rng.normal());
      }
    }
  }

  Sequential net;
  net.add(make_layer<Conv2d>(Conv2dOptions{.in_channels = 1, .out_channels = 4,
                                           .kernel = 3, .stride = 1, .pad = 1},
                             rng))
      .add(make_layer<ReLU>())
      .add(make_layer<MaxPool2d>(2))
      .add(make_layer<Flatten>())
      .add(make_layer<Linear>(4 * 4 * 4, 2, rng));
  Adam opt(net.parameters(), {.lr = 0.01});

  for (int epoch = 0; epoch < 60; ++epoch) {
    const Tensor logits = net.forward(x, true);
    const auto loss = SoftmaxCrossEntropy::compute(logits, labels);
    opt.zero_grad();
    net.backward(loss.grad);
    opt.step();
  }
  const auto preds = argmax_rows(net.forward(x, false));
  int correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) correct += (preds[i] == labels[i]);
  EXPECT_EQ(correct, 2 * n_per_class);
}

}  // namespace
}  // namespace wm::nn
