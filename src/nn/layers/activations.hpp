// Element-wise activation layers: ReLU, Sigmoid.
#pragma once

#include "nn/module.hpp"

namespace wm::nn {

/// The logistic function as Sigmoid computes it, for fused callers that
/// must match the layer bit for bit.
float sigmoid(float x);

class ReLU final : public Module {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }
  void release_caches() override { input_ = Tensor(); }

 private:
  Tensor input_;  // cached for the mask
};

class Sigmoid final : public Module {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Sigmoid"; }
  void release_caches() override { output_ = Tensor(); }

 private:
  Tensor output_;  // sigma(x); derivative is sigma*(1-sigma)
};

}  // namespace wm::nn
