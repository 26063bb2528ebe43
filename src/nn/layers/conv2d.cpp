#include "nn/layers/conv2d.hpp"

#include <sstream>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "common/rng.hpp"
#include "nn/init.hpp"
#include "nn/layers/conv_kernels.hpp"
#include "tensor/gemm.hpp"

namespace wm::nn {

Conv2d::Conv2d(const Conv2dOptions& opts, Rng& rng)
    : opts_(opts),
      weight_("conv.weight",
              Tensor(Shape{opts.out_channels,
                           opts.in_channels * opts.kernel * opts.kernel})),
      bias_("conv.bias", Tensor(Shape{opts.out_channels})) {
  WM_CHECK(opts.in_channels > 0 && opts.out_channels > 0 && opts.kernel > 0 &&
               opts.stride > 0 && opts.pad >= 0,
           "bad Conv2d options");
  he_normal(weight_.value, opts.in_channels * opts.kernel * opts.kernel, rng);
}

ConvGeometry Conv2d::geometry(std::int64_t h, std::int64_t w) const {
  ConvGeometry g{.channels = opts_.in_channels, .height = h, .width = w,
                 .kernel_h = opts_.kernel, .kernel_w = opts_.kernel,
                 .stride = opts_.stride, .pad = opts_.pad};
  g.validate();
  return g;
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  WM_TRACE_SCOPE("conv2d.fwd");
  WM_COUNTER_INC("wm_nn_conv2d_forward_total", "Conv2d forward passes");
  WM_CHECK_SHAPE(input.rank() == 4 && input.dim(1) == opts_.in_channels,
                 "Conv2d expects (N, ", opts_.in_channels, ", H, W), got ",
                 input.shape().to_string());
  if (training) input_ = input;
  const std::int64_t n = input.dim(0);
  const ConvGeometry g = geometry(input.dim(2), input.dim(3));
  // The weights change every training step, so they are packed per call.
  const PackedPanels w =
      pack_weights_a(opts_.out_channels, g.col_rows(), weight_.value.data());
  Tensor out(Shape{n, opts_.out_channels, g.out_h(), g.out_w()});
  conv_forward(g, n, w, input.data(), out.data(), bias_.value.data());
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  WM_TRACE_SCOPE("conv2d.bwd");
  WM_COUNTER_INC("wm_nn_conv2d_backward_total", "Conv2d backward passes");
  const std::int64_t n = input_.dim(0);
  const ConvGeometry g = geometry(input_.dim(2), input_.dim(3));
  WM_CHECK_SHAPE(grad_output.rank() == 4 && grad_output.dim(0) == n &&
                     grad_output.dim(1) == opts_.out_channels &&
                     grad_output.dim(2) == g.out_h() &&
                     grad_output.dim(3) == g.out_w(),
                 "Conv2d backward shape mismatch: got ",
                 grad_output.shape().to_string());
  // dW (OC x R) += dY (OC x N*OH*OW) * im2col(X)^T, one GEMM over the batch.
  sgemm_conv_dw(g, n, opts_.out_channels, grad_output.data(), input_.data(),
                weight_.grad.data());
  accumulate_row_sums(n, opts_.out_channels, g.col_cols(), grad_output.data(),
                      bias_.grad.data());
  Tensor grad_input(input_.shape());
  conv_input_grad(g, n, opts_.out_channels,
                  pack_input_grad_filters(g, opts_.out_channels,
                                          weight_.value.data()),
                  grad_output.data(), grad_input.data(), nullptr);
  return grad_input;
}

std::string Conv2d::name() const {
  std::ostringstream os;
  os << "Conv2d(" << opts_.in_channels << " -> " << opts_.out_channels << ", k="
     << opts_.kernel << ", s=" << opts_.stride << ", p=" << opts_.pad << ")";
  return os.str();
}

}  // namespace wm::nn
