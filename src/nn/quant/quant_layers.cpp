#include "nn/quant/quant_layers.hpp"

#include <vector>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/i8gemm.hpp"
#include "tensor/im2col.hpp"

namespace wm::nn::quant {

namespace {

void check_channel_shapes(const QuantizedWeights& qw, const Tensor& bias) {
  WM_CHECK_SHAPE(bias.numel() == qw.rows, "quantized layer bias size ",
                 bias.numel(), " does not match ", qw.rows,
                 " output channels");
  WM_CHECK(qw.q.size() == static_cast<std::size_t>(qw.rows * qw.cols) &&
               qw.scales.size() == static_cast<std::size_t>(qw.rows),
           "inconsistent quantized weight sizes");
}

}  // namespace

QuantConv2d::QuantConv2d(const Conv2dOptions& opts, const Tensor& weight,
                         const Tensor& bias, bool fuse_relu)
    : QuantConv2d(opts, quantize_weights_per_channel(weight), bias,
                  fuse_relu) {}

QuantConv2d::QuantConv2d(const Conv2dOptions& opts, QuantizedWeights qw,
                         Tensor bias, bool fuse_relu)
    : opts_(opts), qw_(std::move(qw)), bias_(std::move(bias)),
      relu_(fuse_relu) {
  WM_CHECK(opts.in_channels > 0 && opts.out_channels > 0 && opts.kernel > 0 &&
               opts.stride > 0 && opts.pad >= 0,
           "bad QuantConv2d options");
  WM_CHECK_SHAPE(qw_.rows == opts.out_channels &&
                     qw_.cols ==
                         opts.in_channels * opts.kernel * opts.kernel,
                 "QuantConv2d weight shape mismatch");
  check_channel_shapes(qw_, bias_);
  if (qw_.row_sums.size() != static_cast<std::size_t>(qw_.rows)) {
    refresh_row_sums(qw_);
  }
}

Tensor QuantConv2d::forward(const Tensor& input) const {
  WM_TRACE_SCOPE("qconv2d.fwd");
  WM_COUNTER_INC("wm_nn_quant_conv2d_forward_total",
                 "QuantConv2d forward passes");
  WM_CHECK_SHAPE(input.rank() == 4 && input.dim(1) == opts_.in_channels,
                 "QuantConv2d expects (N, ", opts_.in_channels,
                 ", H, W), got ", input.shape().to_string());
  const std::int64_t n = input.dim(0);
  ConvGeometry g{.channels = opts_.in_channels, .height = input.dim(2),
                 .width = input.dim(3), .kernel_h = opts_.kernel,
                 .kernel_w = opts_.kernel, .stride = opts_.stride,
                 .pad = opts_.pad};
  g.validate();
  const std::int64_t spatial = g.col_cols();
  const std::int64_t in_image = input.dim(1) * input.dim(2) * input.dim(3);
  const std::int64_t out_image = opts_.out_channels * spatial;
  const std::size_t col_size =
      static_cast<std::size_t>(g.col_rows() * g.col_cols());

  // Dynamic activation quantization is per image, not per batch: a sample's
  // output must not depend on what it was batched with (the Classifier
  // contract), and per-image ranges are tighter anyway. Each image is
  // quantized, expanded by a u8 im2col (4x less traffic than the float
  // expansion, pad taps = the zero point) and multiplied against the shared
  // int8 weights.
  Tensor out(Shape{n, opts_.out_channels, g.out_h(), g.out_w()});
  ThreadPool::global().parallel_chunks(
      0, static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<std::uint8_t> qimg(static_cast<std::size_t>(in_image));
        std::vector<std::uint8_t> col(col_size);
        for (std::size_t i = lo; i < hi; ++i) {
          const std::int64_t img = static_cast<std::int64_t>(i);
          const float* src = input.data() + img * in_image;
          const ActivationQuant aq = choose_activation_quant(src, in_image);
          quantize_activations(src, in_image, aq, qimg.data());
          im2col_u8(g, qimg.data(), col.data(),
                    static_cast<std::uint8_t>(aq.zero_point));
          I8Epilogue epi;
          epi.channel_scales = qw_.scales.data();
          epi.act_scale = aq.scale;
          epi.act_zero_point = aq.zero_point;
          epi.weight_row_sums = qw_.row_sums.data();
          epi.bias = bias_.data();
          epi.relu = relu_;
          i8gemm_bias_rows(opts_.out_channels, spatial, g.col_rows(),
                           qw_.q.data(), col.data(),
                           out.data() + img * out_image, epi);
        }
      });
  return out;
}

QuantLinear::QuantLinear(const Tensor& weight, const Tensor& bias,
                         bool fuse_relu)
    : QuantLinear(quantize_weights_per_channel(weight), bias, fuse_relu) {}

QuantLinear::QuantLinear(QuantizedWeights qw, Tensor bias, bool fuse_relu)
    : qw_(std::move(qw)), bias_(std::move(bias)), relu_(fuse_relu) {
  check_channel_shapes(qw_, bias_);
  if (qw_.row_sums.size() != static_cast<std::size_t>(qw_.rows)) {
    refresh_row_sums(qw_);
  }
}

Tensor QuantLinear::forward(const Tensor& input) const {
  WM_TRACE_SCOPE("qlinear.fwd");
  WM_COUNTER_INC("wm_nn_quant_linear_forward_total",
                 "QuantLinear forward passes");
  WM_CHECK_SHAPE(input.rank() == 2 && input.dim(1) == qw_.cols,
                 "QuantLinear expects (N, ", qw_.cols, "), got ",
                 input.shape().to_string());
  const std::int64_t n = input.dim(0);
  // Each sample (row) carries its own dynamic quantization — see the
  // per-image rationale in QuantConv2d::forward — threaded through the
  // epilogue's per-row activation parameters so the batch still runs as one
  // GEMM.
  std::vector<std::uint8_t> qin(static_cast<std::size_t>(input.numel()));
  std::vector<float> row_scales(static_cast<std::size_t>(n));
  std::vector<std::int32_t> row_zps(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < n; ++r) {
    const float* src = input.data() + r * qw_.cols;
    const ActivationQuant aq = choose_activation_quant(src, qw_.cols);
    quantize_activations(src, qw_.cols, aq, qin.data() + r * qw_.cols);
    row_scales[static_cast<std::size_t>(r)] = aq.scale;
    row_zps[static_cast<std::size_t>(r)] = aq.zero_point;
  }

  I8Epilogue epi;
  epi.channel_scales = qw_.scales.data();
  epi.weight_row_sums = qw_.row_sums.data();
  epi.bias = bias_.data();
  epi.relu = relu_;
  epi.act_row_scales = row_scales.data();
  epi.act_row_zero_points = row_zps.data();

  Tensor out(Shape{n, qw_.rows});
  i8gemm_bt_bias_cols(n, qw_.rows, qw_.cols, qin.data(), qw_.q.data(),
                      out.data(), epi);
  return out;
}

}  // namespace wm::nn::quant
