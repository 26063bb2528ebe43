// 2-D convolution over (N, C, H, W) batches, lowered to GEMM. Forward runs
// one sgemm_conv per image, whose kernel reads the im2col rows in place;
// backward runs the kernels of conv_grad.hpp: dW as one GEMM over the batch
// on implicit-im2col panels, dX as an implicit-col2im sgemm_conv per image.
// Only a forward at stride > 1 builds a column buffer (sgemm_conv's
// per-thread im2col), and no gradient depends on the pool size.
//
// The batch loop fans out across ThreadPool::global(); forward keeps no
// state outside its call, so forward in eval mode is reentrant. The input
// cache needed by backward is only captured when training.
#pragma once

#include "nn/module.hpp"
#include "tensor/im2col.hpp"

namespace wm {
class Rng;
}

namespace wm::nn {

struct Conv2dOptions {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 0;   // square kernels (the paper uses 5x5 / 3x3)
  std::int64_t stride = 1;
  std::int64_t pad = 0;      // use kernel/2 for 'same' output at stride 1
};

class Conv2d final : public Module {
 public:
  Conv2d(const Conv2dOptions& opts, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override;
  void release_caches() override { input_ = Tensor(); }

  const Conv2dOptions& options() const { return opts_; }

 private:
  ConvGeometry geometry(std::int64_t h, std::int64_t w) const;

  Conv2dOptions opts_;
  Parameter weight_;  // (OC, IC*K*K)
  Parameter bias_;    // (OC)
  Tensor input_;      // cached (N, C, H, W), training forward only
};

}  // namespace wm::nn
