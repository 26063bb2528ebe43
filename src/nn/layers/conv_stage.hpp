// One conv block of a CNN as a single training stage:
//
//   Conv2d (stride 1) -> [BatchNorm2d] -> ReLU -> MaxPool2d(2)
//
// with the values, and the bits, of that layer sequence (which the tests
// keep as the reference), in a few plane-by-plane passes instead of a full
// pass per layer.
//
//   forward:  sgemm_conv per image into the kept conv output; with
//             BatchNorm, the batch statistics, each plane reduced by
//             plane_sum as BatchNorm2d reduces it; then one pass per plane
//             applies BatchNorm, ReLU and the 2x2 max, writing the pooled
//             output and a 1-byte window index.
//   backward: one pass per plane routes the pooled gradient through the
//             window index (which also records the ReLU mask) and reduces
//             BatchNorm's two sums; a second writes the conv-output
//             gradient with BatchNorm's backward applied, and its bias sums.
//             Then the conv kernels of conv_kernels.hpp: dW as one GEMM over
//             the batch, and dX by implicit col2im, which backward_params()
//             skips.
//
// parameters() and buffers() keep the layer sequence's order: conv.weight,
// conv.bias[, bn.gamma, bn.beta] and [running_mean, running_var]. So model
// files, compiled inference plans and the quantizer see the same net, and
// the filters are drawn from the rng as Conv2d draws them.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layers/batchnorm2d.hpp"
#include "nn/module.hpp"
#include "tensor/im2col.hpp"

namespace wm {
class Rng;
}

namespace wm::nn {

/// BatchNorm2d's eval map of one channel: gamma * ((x - mean) * inv_std) +
/// beta, with inv_std = bn_inv_std(var, eps).
struct BnAffine {
  float mean, inv_std, gamma, beta;
};

/// The eval tail of a conv block over one (oh, ow) plane of conv output,
/// bias included: BatchNorm (none when bn is null), ReLU and the 2x2 max into
/// (oh/2, ow/2), each row `out_stride` floats after the last, with the bits
/// of that layer sequence. ConvStage's eval forward runs it, and so do
/// InferencePlan's fp32 stages, which pool into the inside of the next
/// conv's bordered input.
void bn_relu_pool_plane(const float* conv, std::int64_t oh, std::int64_t ow,
                        const BnAffine* bn, float* out,
                        std::int64_t out_stride);

struct ConvStageOptions {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 0;  // square, stride 1
  std::int64_t pad = 0;
  bool batchnorm = false;   // BatchNorm2d with its default eps and momentum
};

class ConvStage final : public Module {
 public:
  ConvStage(const ConvStageOptions& opts, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::vector<Tensor*> buffers() override;
  std::string name() const override;
  void release_caches() override;

 private:
  ConvGeometry geometry(std::int64_t h, std::int64_t w) const;
  Tensor backward_impl(const Tensor& grad_output, bool input_grad);

  ConvStageOptions opts_;
  BatchNorm2dOptions bn_;
  Parameter weight_;  // (OC, IC*K*K)
  Parameter bias_;    // (OC)
  Parameter gamma_;   // (OC), listed only with batchnorm
  Parameter beta_;
  Tensor running_mean_;
  Tensor running_var_;

  // Caches from the last training forward. The conv output and the
  // conv-output gradient keep their storage from step to step.
  Tensor input_;
  Tensor conv_;
  std::vector<std::uint8_t> window_;  // tap 0-3 of each window's maximum
  std::vector<float> mean_;
  std::vector<float> inv_std_;
  Tensor grad_conv_;
};

}  // namespace wm::nn
