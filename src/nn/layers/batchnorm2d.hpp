// Batch normalisation over (N, C, H, W): per-channel statistics across the
// batch and spatial dimensions, learnable scale/shift, running statistics
// for inference.
#pragma once

#include <cmath>
#include <cstdint>

#include "nn/module.hpp"

namespace wm::nn {

/// The reductions behind BatchNorm's batch statistics and gradient, and a
/// conv's bias gradient. Each reduces one plane in double over 16
/// interleaved partial sums (element s into lane s % 16, lanes folded
/// pairwise at the end), which the compiler vectorises; a channel adds its
/// planes' results in batch order. BatchNorm2d, ConvStage and the conv
/// kernels all reduce through these, so they get the same bits, and the
/// order never depends on the pool.
double plane_sum(const float* x, std::int64_t n);

/// Sum of d * d with d = x[s] - mean, the difference taken in float.
double plane_squared_deviations(const float* x, std::int64_t n, float mean);

/// Sum of x[s] * y[s] in double (exact products of floats).
double plane_products(const float* x, const float* y, std::int64_t n);

/// 1 / sqrt(var + eps) in float, as BatchNorm2d's forward computes it.
inline float bn_inv_std(float var, double eps) {
  return 1.0f / std::sqrt(var + static_cast<float>(eps));
}

struct BatchNorm2dOptions {
  std::int64_t channels = 0;
  double eps = 1e-5;
  double momentum = 0.1;  // running-stats update rate
};

class BatchNorm2d final : public Module {
 public:
  explicit BatchNorm2d(const BatchNorm2dOptions& opts);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> buffers() override {
    return {&running_mean_, &running_var_};
  }
  std::string name() const override;
  void release_caches() override;

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  BatchNorm2dOptions opts_;
  Parameter gamma_;  // (C), initialised to 1
  Parameter beta_;   // (C), initialised to 0
  Tensor running_mean_;  // (C)
  Tensor running_var_;   // (C)

  // Caches from the last training forward.
  Tensor normalized_;          // x_hat
  std::vector<float> inv_std_; // per channel
  bool trained_forward_ = false;
};

}  // namespace wm::nn
