// Optimizer interface and the Adam implementation.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.hpp"

namespace wm::nn {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter*> params);
  virtual ~Optimizer() = default;

  /// Applies one update from the accumulated gradients.
  virtual void step() = 0;

  /// Zeroes all parameter gradients.
  void zero_grad();

  const std::vector<Parameter*>& parameters() const { return params_; }

 protected:
  std::vector<Parameter*> params_;
};

struct AdamOptions {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double weight_decay = 0.0;
};

class Adam final : public Optimizer {
 public:
  Adam(std::vector<Parameter*> params, const AdamOptions& opts);
  void step() override;

  AdamOptions& options() { return opts_; }
  std::int64_t step_count() const { return t_; }

 private:
  AdamOptions opts_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  std::int64_t t_ = 0;
};

}  // namespace wm::nn
