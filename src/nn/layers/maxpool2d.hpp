// Max pooling over (N, C, H, W) with square window == stride (the paper's
// pools are all 2x2 / stride 2).
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace wm::nn {

class MaxPool2d final : public Module {
 public:
  explicit MaxPool2d(std::int64_t window);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override;
  void release_caches() override { argmax_ = std::vector<std::int64_t>(); }

 private:
  std::int64_t window_;
  Shape input_shape_;
  std::vector<std::int64_t> argmax_;  // flat input index per output element
};

}  // namespace wm::nn
