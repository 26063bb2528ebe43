// Transposed convolution ("deconvolution") over (N, C, H, W) batches.
//
// Forward is exactly the data-gradient of a Conv2d with the same geometry:
// output height = (H - 1) * stride + K - 2 * pad. It runs on the same
// kernels (conv_kernels.hpp): forward is the conv's implicit-col2im input
// gradient, backward's dX is the conv's forward, and dW is the batched GEMM
// on implicit-im2col panels.
#pragma once

#include "nn/module.hpp"
#include "tensor/im2col.hpp"

namespace wm {
class Rng;
}

namespace wm::nn {

struct ConvTranspose2dOptions {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;
};

class ConvTranspose2d final : public Module {
 public:
  ConvTranspose2d(const ConvTranspose2dOptions& opts, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override;
  void release_caches() override { input_ = Tensor(); }

  /// Output spatial size for a given input size.
  std::int64_t out_size(std::int64_t in_size) const;

 private:
  ConvGeometry geometry(std::int64_t out_h, std::int64_t out_w) const;

  ConvTranspose2dOptions opts_;
  Parameter weight_;  // (IC, OC*K*K)
  Parameter bias_;    // (OC)
  Tensor input_;      // cached, training forward only
};

}  // namespace wm::nn
