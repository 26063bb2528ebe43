#include "nn/layers/conv_transpose2d.hpp"

#include <sstream>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "common/rng.hpp"
#include "nn/init.hpp"
#include "nn/layers/conv_kernels.hpp"
#include "tensor/gemm.hpp"

namespace wm::nn {

ConvTranspose2d::ConvTranspose2d(const ConvTranspose2dOptions& opts, Rng& rng)
    : opts_(opts),
      weight_("convT.weight",
              Tensor(Shape{opts.in_channels,
                           opts.out_channels * opts.kernel * opts.kernel})),
      bias_("convT.bias", Tensor(Shape{opts.out_channels})) {
  WM_CHECK(opts.in_channels > 0 && opts.out_channels > 0 && opts.kernel > 0 &&
               opts.stride > 0 && opts.pad >= 0,
           "bad ConvTranspose2d options");
  he_normal(weight_.value, opts.in_channels * opts.kernel * opts.kernel, rng);
}

std::int64_t ConvTranspose2d::out_size(std::int64_t in_size) const {
  return (in_size - 1) * opts_.stride + opts_.kernel - 2 * opts_.pad;
}

ConvGeometry ConvTranspose2d::geometry(std::int64_t out_h, std::int64_t out_w) const {
  // The "image" of this geometry is the *output* of the transposed conv,
  // mirroring the forward geometry of the matching Conv2d.
  ConvGeometry g{.channels = opts_.out_channels, .height = out_h,
                 .width = out_w, .kernel_h = opts_.kernel,
                 .kernel_w = opts_.kernel, .stride = opts_.stride,
                 .pad = opts_.pad};
  g.validate();
  return g;
}

Tensor ConvTranspose2d::forward(const Tensor& input, bool training) {
  WM_TRACE_SCOPE("conv_transpose2d.fwd");
  WM_COUNTER_INC("wm_nn_conv_transpose2d_forward_total", "ConvTranspose2d forward passes");
  WM_CHECK_SHAPE(input.rank() == 4 && input.dim(1) == opts_.in_channels,
                 "ConvTranspose2d expects (N, ", opts_.in_channels,
                 ", H, W), got ", input.shape().to_string());
  if (training) input_ = input;
  const std::int64_t n = input.dim(0);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t oh = out_size(h);
  const std::int64_t ow = out_size(w);
  WM_CHECK_SHAPE(oh > 0 && ow > 0, "ConvTranspose2d produces empty output");
  const ConvGeometry g = geometry(oh, ow);
  WM_CHECK_SHAPE(g.out_h() == h && g.out_w() == w,
                 "inconsistent transpose geometry (stride/pad/kernel mismatch)");

  // The forward of a transposed conv is the input gradient of the conv with
  // geometry g, whose filters are this layer's weights (IC x OC*K*K).
  Tensor out(Shape{n, opts_.out_channels, oh, ow});
  conv_input_grad(g, n, opts_.in_channels,
                  pack_input_grad_filters(g, opts_.in_channels,
                                          weight_.value.data()),
                  input.data(), out.data(), bias_.value.data());
  return out;
}

Tensor ConvTranspose2d::backward(const Tensor& grad_output) {
  WM_TRACE_SCOPE("conv_transpose2d.bwd");
  WM_COUNTER_INC("wm_nn_conv_transpose2d_backward_total", "ConvTranspose2d backward passes");
  const std::int64_t n = input_.dim(0);
  const std::int64_t oh = out_size(input_.dim(2));
  const std::int64_t ow = out_size(input_.dim(3));
  WM_CHECK_SHAPE(grad_output.rank() == 4 && grad_output.dim(0) == n &&
                     grad_output.dim(1) == opts_.out_channels &&
                     grad_output.dim(2) == oh && grad_output.dim(3) == ow,
                 "ConvTranspose2d backward shape mismatch: got ",
                 grad_output.shape().to_string());
  const ConvGeometry g = geometry(oh, ow);
  // dX_i (IC x h*w) = W (IC x OC*K*K) * im2col(dY_i): the conv's forward.
  Tensor grad_input(input_.shape());
  conv_forward(g, n,
               pack_weights_a(opts_.in_channels, g.col_rows(),
                              weight_.value.data()),
               grad_output.data(), grad_input.data(), nullptr);
  // dW (IC x OC*K*K) += X (IC x N*h*w) * im2col(dY)^T, one GEMM over the
  // batch; db += per-output-channel sums of dY.
  sgemm_conv_dw(g, n, opts_.in_channels, input_.data(), grad_output.data(),
                weight_.grad.data());
  accumulate_row_sums(n, opts_.out_channels, oh * ow, grad_output.data(),
                      bias_.grad.data());
  return grad_input;
}

std::string ConvTranspose2d::name() const {
  std::ostringstream os;
  os << "ConvTranspose2d(" << opts_.in_channels << " -> " << opts_.out_channels
     << ", k=" << opts_.kernel << ", s=" << opts_.stride << ", p=" << opts_.pad
     << ")";
  return os.str();
}

}  // namespace wm::nn
