#include "selective/inference_plan.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "nn/layers/activations.hpp"
#include "nn/layers/batchnorm2d.hpp"

namespace wm::selective {

namespace {

std::vector<float> to_vector(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

/// The fused epilogue of one conv block over its (OC, OH, OW) GEMM output:
/// each value takes the arithmetic of the layers it replaces, in their order
/// (the GEMM's bias add, BatchNorm2d's eval forward, ReLU), and each 2x2
/// window keeps its maximum, as MaxPool2d does. ReLU leaves no NaN or -0, so
/// the maximum is the one MaxPool2d's scan picks, in any order: rows are
/// reduced first, in place in `conv` (the caller's scratch), so the inner
/// loop runs over contiguous values.
template <bool kBatchNorm>
void bias_bn_relu_pool(float* conv, std::int64_t channels, std::int64_t oh,
                       std::int64_t ow, const float* bias, const float* mean,
                       const float* inv_std, const float* gamma,
                       const float* beta, float* pooled) {
  const std::int64_t ph = oh / 2;
  const std::int64_t pw = ow / 2;
  for (std::int64_t ch = 0; ch < channels; ++ch) {
    const float b = bias[ch];
    const float mu = kBatchNorm ? mean[ch] : 0.0f;
    const float is = kBatchNorm ? inv_std[ch] : 0.0f;
    const float g = kBatchNorm ? gamma[ch] : 0.0f;
    const float be = kBatchNorm ? beta[ch] : 0.0f;
    const auto act = [&](float v) {
      v += b;
      if constexpr (kBatchNorm) {
        const float norm = (v - mu) * is;
        v = g * norm + be;
      }
      return v > 0.0f ? v : 0.0f;
    };
    float* plane = conv + ch * oh * ow;
    float* out = pooled + ch * ph * pw;
    for (std::int64_t y = 0; y < ph; ++y) {
      float* r0 = plane + 2 * y * ow;
      const float* r1 = r0 + ow;
      for (std::int64_t x = 0; x < ow; ++x) {
        r0[x] = std::max(act(r0[x]), act(r1[x]));
      }
      float* o = out + y * pw;
      for (std::int64_t x = 0; x < pw; ++x) {
        o[x] = std::max(r0[2 * x], r0[2 * x + 1]);
      }
    }
  }
}

}  // namespace

InferencePlan::InferencePlan(const SelectiveNet& net) : opts_(net.options()) {
  // parameters()/buffers() lack const qualifiers only because training
  // mutates through them; enumeration itself touches nothing.
  SelectiveNet& src = const_cast<SelectiveNet&>(net);
  const std::vector<nn::Parameter*> params = src.parameters();
  const std::vector<Tensor*> buffers = src.buffers();
  std::size_t pi = 0;
  std::size_t bi = 0;
  // Parameters come back in construction order (conv[, bn] x3, fc, head_f,
  // head_g; weight before bias); the name checks turn a reordering into a
  // loud failure.
  const auto take = [&](const char* expect) -> const Tensor& {
    WM_CHECK(pi < params.size(), "selective net ran out of parameters");
    const nn::Parameter* p = params[pi++];
    WM_CHECK(p->name == expect, "unexpected parameter order: got ", p->name,
             ", expected ", expect);
    return p->value;
  };
  const auto take_buffer = [&]() -> const Tensor& {
    WM_CHECK(bi < buffers.size(), "selective net ran out of buffers");
    return *buffers[bi++];
  };

  const std::int64_t s = opts_.map_size;
  const std::int64_t filters[] = {1, opts_.conv1_filters, opts_.conv2_filters,
                                  opts_.conv3_filters};
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    ConvStage& st = convs_[i];
    const std::int64_t kernel = i == 0 ? 5 : 3;
    st.geom = {.channels = filters[i], .height = s >> i, .width = s >> i,
               .kernel_h = kernel, .kernel_w = kernel, .stride = 1,
               .pad = kernel / 2};
    const Tensor& w = take("conv.weight");
    WM_CHECK_SHAPE(w.numel() == filters[i + 1] * st.geom.col_rows(),
                   "conv weight shape ", w.shape().to_string());
    st.weights = pack_weights_a(filters[i + 1], st.geom.col_rows(), w.data());
    st.bias = to_vector(take("conv.bias"));
    if (opts_.use_batchnorm) {
      st.gamma = to_vector(take("bn.gamma"));
      st.beta = to_vector(take("bn.beta"));
      st.mean = to_vector(take_buffer());
      const Tensor& var = take_buffer();
      const float eps = static_cast<float>(nn::BatchNorm2dOptions{}.eps);
      for (std::int64_t ch = 0; ch < var.numel(); ++ch) {
        st.inv_std.push_back(1.0f / std::sqrt(var[ch] + eps));
      }
    }
  }
  const auto dense = [&](Dense& d) {
    const Tensor& w = take("linear.weight");
    d.weights = pack_weights_bt(w.dim(0), w.dim(1), w.data());
    d.bias = to_vector(take("linear.bias"));
  };
  dense(fc_);
  dense(head_f_);
  dense(head_g_);
  WM_CHECK(pi == params.size() && bi == buffers.size(),
           "selective net has parameters the inference plan does not know");
}

void InferencePlan::ConvStage::run(const float* image, float* conv,
                                   float* pooled) const {
  sgemm_conv(geom, weights, image, conv, /*bias=*/nullptr);
  if (mean.empty()) {
    bias_bn_relu_pool<false>(conv, weights.rows, geom.out_h(), geom.out_w(),
                             bias.data(), nullptr, nullptr, nullptr, nullptr,
                             pooled);
  } else {
    bias_bn_relu_pool<true>(conv, weights.rows, geom.out_h(), geom.out_w(),
                            bias.data(), mean.data(), inv_std.data(),
                            gamma.data(), beta.data(), pooled);
  }
}

SelectiveOutput InferencePlan::infer(const Tensor& images) const {
  WM_CHECK_SHAPE(images.rank() == 4 && images.dim(1) == 1 &&
                     images.dim(2) == opts_.map_size &&
                     images.dim(3) == opts_.map_size,
                 "InferencePlan expects (N,1,", opts_.map_size, ",",
                 opts_.map_size, "), got ", images.shape().to_string());
  const std::int64_t n = images.dim(0);
  const std::int64_t image_size = images.dim(2) * images.dim(3);
  const std::int64_t features = fc_.weights.depth;
  // Per-thread scratch: the largest conv output, then the pooled inputs of
  // conv2 and conv3.
  std::int64_t conv_size = 0;
  for (const ConvStage& st : convs_) conv_size = std::max(conv_size, st.out_size());
  const std::int64_t in2 = convs_[1].geom.channels * convs_[1].geom.height *
                           convs_[1].geom.width;
  const std::int64_t in3 = convs_[2].geom.channels * convs_[2].geom.height *
                           convs_[2].geom.width;

  Tensor fc_in(Shape{n, features});
  ThreadPool::global().parallel_chunks(
      0, static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi, std::size_t /*slot*/) {
        thread_local std::vector<float> scratch;
        scratch.resize(static_cast<std::size_t>(conv_size + in2 + in3));
        float* conv = scratch.data();
        float* x2 = conv + conv_size;
        float* x3 = x2 + in2;
        for (std::size_t i = lo; i < hi; ++i) {
          const std::int64_t img = static_cast<std::int64_t>(i);
          convs_[0].run(images.data() + img * image_size, conv, x2);
          convs_[1].run(x2, conv, x3);
          convs_[2].run(x3, conv, fc_in.data() + img * features);
        }
      });

  Tensor hidden(Shape{n, fc_.weights.rows});
  sgemm_packed_bt_bias_cols(n, fc_in.data(), fc_.weights, hidden.data(),
                            fc_.bias.data());
  float* h = hidden.data();
  for (std::int64_t i = 0; i < hidden.numel(); ++i) {
    h[i] = h[i] > 0.0f ? h[i] : 0.0f;
  }
  SelectiveOutput out;
  out.logits = Tensor(Shape{n, head_f_.weights.rows});
  sgemm_packed_bt_bias_cols(n, hidden.data(), head_f_.weights,
                            out.logits.data(), head_f_.bias.data());
  out.g = Tensor(Shape{n, 1});
  sgemm_packed_bt_bias_cols(n, hidden.data(), head_g_.weights, out.g.data(),
                            head_g_.bias.data());
  float* g = out.g.data();
  for (std::int64_t i = 0; i < n; ++i) g[i] = nn::sigmoid(g[i]);
  return out;
}

}  // namespace wm::selective
