#include "nn/layers/activations.hpp"

#include <cmath>

#include "common/error.hpp"

namespace wm::nn {

// All activations gate their backward caches on `training` so eval-mode
// forwards mutate no member state and are safe to run concurrently.

Tensor ReLU::forward(const Tensor& input, bool training) {
  if (training) input_ = input;
  Tensor out(input.shape());
  const float* in = input.data();
  float* po = out.data();
  const std::int64_t n = input.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = in[i] > 0.0f ? in[i] : 0.0f;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  WM_CHECK_SHAPE(grad_output.same_shape(input_), "ReLU backward shape mismatch");
  Tensor grad(input_.shape());
  const float* in = input_.data();
  const float* go = grad_output.data();
  float* g = grad.data();
  const std::int64_t n = input_.numel();
  for (std::int64_t i = 0; i < n; ++i) g[i] = in[i] > 0.0f ? go[i] : 0.0f;
  return grad;
}

float sigmoid(float x) {
  // Split by sign for numerical stability at large |x|.
  if (x >= 0.0f) return 1.0f / (1.0f + std::exp(-x));
  const float e = std::exp(x);
  return e / (1.0f + e);
}

Tensor Sigmoid::forward(const Tensor& input, bool training) {
  Tensor out(input.shape());
  const float* in = input.data();
  float* po = out.data();
  const std::int64_t n = input.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = sigmoid(in[i]);
  if (training) output_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  WM_CHECK_SHAPE(grad_output.same_shape(output_), "Sigmoid backward shape mismatch");
  Tensor grad(output_.shape());
  const float* s = output_.data();
  const float* go = grad_output.data();
  float* g = grad.data();
  const std::int64_t n = output_.numel();
  for (std::int64_t i = 0; i < n; ++i) g[i] = go[i] * s[i] * (1.0f - s[i]);
  return grad;
}

}  // namespace wm::nn
