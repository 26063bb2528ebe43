// Fully-connected layer: Y = X W^T + b.
#pragma once

#include "nn/module.hpp"

namespace wm {
class Rng;
}

namespace wm::nn {

class Linear final : public Module {
 public:
  /// Weights are He-initialised; bias starts at zero.
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override;
  void release_caches() override { input_ = Tensor(); }

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  Parameter weight_;  // (out, in)
  Parameter bias_;    // (out)
  Tensor input_;      // cached (N, in)
};

}  // namespace wm::nn
