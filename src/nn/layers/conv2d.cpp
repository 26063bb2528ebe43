#include "nn/layers/conv2d.hpp"

#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "nn/init.hpp"
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
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t spatial = oh * ow;
  const std::int64_t in_image = input.dim(1) * input.dim(2) * input.dim(3);
  const std::int64_t out_image = opts_.out_channels * spatial;
  // The weights change every training step, so they are packed per call.
  const PackedPanels w =
      pack_weights_a(opts_.out_channels, g.col_rows(), weight_.value.data());

  Tensor out(Shape{n, opts_.out_channels, oh, ow});
  ThreadPool::global().parallel_chunks(
      0, static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi, std::size_t /*slot*/) {
        for (std::size_t i = lo; i < hi; ++i) {
          const std::int64_t img = static_cast<std::int64_t>(i);
          // out_i (OC x spatial) = W (OC x IC*K*K) * im2col(image_i), with
          // the per-channel bias folded into the GEMM epilogue.
          sgemm_conv(g, w, input.data() + img * in_image,
                     out.data() + img * out_image, bias_.value.data());
        }
      });
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  WM_TRACE_SCOPE("conv2d.bwd");
  WM_COUNTER_INC("wm_nn_conv2d_backward_total", "Conv2d backward passes");
  const std::int64_t n = input_.dim(0);
  const ConvGeometry g = geometry(input_.dim(2), input_.dim(3));
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t spatial = oh * ow;
  WM_CHECK_SHAPE(grad_output.rank() == 4 && grad_output.dim(0) == n &&
                     grad_output.dim(1) == opts_.out_channels &&
                     grad_output.dim(2) == oh && grad_output.dim(3) == ow,
                 "Conv2d backward shape mismatch: got ",
                 grad_output.shape().to_string());

  const std::int64_t in_image = input_.dim(1) * input_.dim(2) * input_.dim(3);
  const std::int64_t out_image = opts_.out_channels * spatial;
  const std::size_t col_size =
      static_cast<std::size_t>(g.col_rows() * g.col_cols());
  Tensor grad_input(input_.shape());

  // Each image of a chunk contributes, in batch order, to that chunk's
  // private dW/db accumulators (slot 0 accumulates straight into the
  // parameter gradients, so a single chunk reproduces the serial order
  // bit-for-bit); the remaining slots are reduced in slot order below.
  ThreadPool& pool = ThreadPool::global();
  const std::size_t chunks = pool.chunk_count(static_cast<std::size_t>(n));
  const std::size_t wsize = static_cast<std::size_t>(weight_.grad.numel());
  const std::size_t bsize = static_cast<std::size_t>(bias_.grad.numel());
  std::vector<float> dw_slots(chunks > 1 ? (chunks - 1) * wsize : 0, 0.0f);
  std::vector<float> db_slots(chunks > 1 ? (chunks - 1) * bsize : 0, 0.0f);

  pool.parallel_chunks(
      0, static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi, std::size_t slot) {
        float* dw = slot == 0 ? weight_.grad.data()
                              : dw_slots.data() + (slot - 1) * wsize;
        float* db = slot == 0 ? bias_.grad.data()
                              : db_slots.data() + (slot - 1) * bsize;
        std::vector<float> col(col_size);
        std::vector<float> dcol(col_size);
        for (std::size_t ii = lo; ii < hi; ++ii) {
          const std::int64_t i = static_cast<std::int64_t>(ii);
          const float* dy = grad_output.data() + i * out_image;
          // dW (OC x R) += dY_i (OC x spatial) * col_i^T (spatial x R)
          im2col(g, input_.data() + i * in_image, col.data());
          sgemm_bt(opts_.out_channels, g.col_rows(), spatial, 1.0f, dy,
                   col.data(), 1.0f, dw);
          // db += per-channel sums of dY
          for (std::int64_t oc = 0; oc < opts_.out_channels; ++oc) {
            const float* chan = dy + oc * spatial;
            float acc = 0.0f;
            for (std::int64_t s = 0; s < spatial; ++s) acc += chan[s];
            db[oc] += acc;
          }
          // dcol (R x spatial) = W^T (R x OC) * dY_i (OC x spatial)
          sgemm_at(g.col_rows(), spatial, opts_.out_channels, 1.0f,
                   weight_.value.data(), dy, 0.0f, dcol.data());
          col2im(g, dcol.data(), grad_input.data() + i * in_image);
        }
      });

  for (std::size_t slot = 1; slot < chunks; ++slot) {
    const float* dw = dw_slots.data() + (slot - 1) * wsize;
    const float* db = db_slots.data() + (slot - 1) * bsize;
    float* wgrad = weight_.grad.data();
    float* bgrad = bias_.grad.data();
    for (std::size_t i = 0; i < wsize; ++i) wgrad[i] += dw[i];
    for (std::size_t i = 0; i < bsize; ++i) bgrad[i] += db[i];
  }
  return grad_input;
}

std::string Conv2d::name() const {
  std::ostringstream os;
  os << "Conv2d(" << opts_.in_channels << " -> " << opts_.out_channels << ", k="
     << opts_.kernel << ", s=" << opts_.stride << ", p=" << opts_.pad << ")";
  return os.str();
}

}  // namespace wm::nn
