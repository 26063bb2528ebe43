#include "selective/inference_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "nn/layers/activations.hpp"
#include "nn/layers/batchnorm2d.hpp"
#include "nn/quant/quantize.hpp"

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

/// MaxPool2d(2)'s eval forward over one image's (channels, oh, ow) planes:
/// each window is scanned in MaxPool2d's order from -inf, and a value
/// replaces the best only when strictly greater. The int8 epilogue's ReLU
/// keeps -0 and NaN, so unlike the fp32 pass this keeps the scan's order.
void max_pool2(const float* conv, std::int64_t channels, std::int64_t oh,
               std::int64_t ow, float* pooled) {
  const std::int64_t ph = oh / 2;
  const std::int64_t pw = ow / 2;
  for (std::int64_t ch = 0; ch < channels; ++ch) {
    const float* plane = conv + ch * oh * ow;
    float* out = pooled + ch * ph * pw;
    for (std::int64_t y = 0; y < ph; ++y) {
      const float* r0 = plane + 2 * y * ow;
      const float* r1 = r0 + ow;
      float* o = out + y * pw;
      for (std::int64_t x = 0; x < pw; ++x) {
        float best = -std::numeric_limits<float>::infinity();
        for (const float v : {r0[2 * x], r0[2 * x + 1], r1[2 * x],
                              r1[2 * x + 1]}) {
          best = v > best ? v : best;
        }
        o[x] = best;
      }
    }
  }
}

/// The sigmoid each precision's layer path ends g with: nn::Sigmoid for
/// fp32, 1 / (1 + e^-x) after the int8 head (the two differ in the last bit
/// for negative x).
float fp32_sigmoid(float x) { return nn::sigmoid(x); }
float int8_sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

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
    Fp32Conv& st = convs_[i].emplace<Fp32Conv>();
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
  const auto dense = [&](bool relu) {
    Fp32Dense d{};
    const Tensor& w = take("linear.weight");
    d.weights = pack_weights_bt(w.dim(0), w.dim(1), w.data());
    d.bias = to_vector(take("linear.bias"));
    d.relu = relu;
    return d;
  };
  fc_ = dense(/*relu=*/true);
  head_f_ = dense(false);
  head_g_ = dense(false);
  WM_CHECK(pi == params.size() && bi == buffers.size(),
           "selective net has parameters the inference plan does not know");
  size_scratch();
}

InferencePlan::InferencePlan(const QuantizedSelectiveNet& net)
    : opts_(net.options()), quantized_(true) {
  const nn::quant::QuantConv2d* convs[] = {&net.conv1(), &net.conv2(),
                                           &net.conv3()};
  std::int64_t size = opts_.map_size;
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    const nn::Conv2dOptions& o = convs[i]->options();
    WM_CHECK(o.stride == 1 && o.kernel % 2 == 1 && o.pad == o.kernel / 2,
             "the inference plan needs stride-1 convs with pad = kernel / 2; "
             "conv", i + 1, " has kernel ", o.kernel, ", stride ", o.stride,
             ", pad ", o.pad);
    const nn::quant::QuantizedWeights& qw = convs[i]->weights();
    convs_[i] = Int8Conv{
        {pack_weights_a(qw.rows, qw.cols, qw.q.data()), qw.scales,
         qw.row_sums, to_vector(convs[i]->bias()), convs[i]->fused_relu()},
        {.channels = o.in_channels, .height = size, .width = size,
         .kernel_h = o.kernel, .kernel_w = o.kernel, .stride = 1,
         .pad = o.pad}};
    size /= 2;
  }
  const auto dense = [](const nn::quant::QuantLinear& l) {
    const nn::quant::QuantizedWeights& qw = l.weights();
    return Int8Dense{{pack_weights_bt(qw.rows, qw.cols, qw.q.data()),
                      qw.scales, qw.row_sums, to_vector(l.bias()),
                      l.fused_relu()}};
  };
  fc_ = dense(net.fc());
  head_f_ = dense(net.head_f());
  head_g_ = dense(net.head_g());
  size_scratch();
}

void InferencePlan::size_scratch() {
  std::int64_t inputs[3] = {};
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    std::visit(
        [&](const auto& st) {
          const ConvGeometry& g = st.geom;
          inputs[i] = g.channels * g.height * g.width;
          conv_scratch_ =
              std::max(conv_scratch_, st.weights.rows * g.col_cols());
          if constexpr (std::is_same_v<std::decay_t<decltype(st)>, Int8Conv>) {
            bordered_scratch_ = std::max(
                bordered_scratch_,
                g.channels * (g.height + 2 * g.pad) * (g.width + 2 * g.pad));
          }
        },
        convs_[i]);
  }
  in2_ = inputs[1];
  in3_ = inputs[2];
}

void InferencePlan::Fp32Conv::run(const float* image, const Scratch& s,
                                  float* pooled) const {
  sgemm_conv(geom, weights, image, s.conv, /*bias=*/nullptr);
  if (mean.empty()) {
    bias_bn_relu_pool<false>(s.conv, weights.rows, geom.out_h(), geom.out_w(),
                             bias.data(), nullptr, nullptr, nullptr, nullptr,
                             pooled);
  } else {
    bias_bn_relu_pool<true>(s.conv, weights.rows, geom.out_h(), geom.out_w(),
                            bias.data(), mean.data(), inv_std.data(),
                            gamma.data(), beta.data(), pooled);
  }
}

I8Epilogue InferencePlan::Int8Layer::epilogue() const {
  I8Epilogue epi;
  epi.channel_scales = scales.data();
  epi.weight_row_sums = row_sums.data();
  epi.bias = bias.data();
  epi.relu = relu;
  return epi;
}

void InferencePlan::Int8Conv::run(const float* image, const Scratch& s,
                                  float* pooled) const {
  // QuantConv2d::forward's per-image quantization, written straight into a
  // copy bordered with the zero point: the value its im2col_u8 gives
  // padding taps.
  const std::int64_t h = geom.height;
  const std::int64_t w = geom.width;
  const std::int64_t pad = geom.pad;
  const std::int64_t bw = w + 2 * pad;
  const std::int64_t bh = h + 2 * pad;
  const nn::quant::ActivationQuant aq =
      nn::quant::choose_activation_quant(image, geom.channels * h * w);
  const auto zp = static_cast<std::uint8_t>(aq.zero_point);
  for (std::int64_t ch = 0; ch < geom.channels; ++ch) {
    std::uint8_t* plane = s.bordered + ch * bh * bw;
    std::memset(plane, zp, static_cast<std::size_t>(pad * bw));
    for (std::int64_t y = 0; y < h; ++y) {
      std::uint8_t* row = plane + (y + pad) * bw;
      std::memset(row, zp, static_cast<std::size_t>(pad));
      nn::quant::quantize_activations(image + (ch * h + y) * w, w, aq,
                                      row + pad);
      std::memset(row + pad + w, zp, static_cast<std::size_t>(pad));
    }
    std::memset(plane + (pad + h) * bw, zp, static_cast<std::size_t>(pad * bw));
  }
  I8Epilogue epi = epilogue();
  epi.act_scale = aq.scale;
  epi.act_zero_point = aq.zero_point;
  i8gemm_conv(geom, weights, s.bordered, s.conv, epi);
  max_pool2(s.conv, weights.rows, geom.out_h(), geom.out_w(), pooled);
}

void InferencePlan::Fp32Dense::run(std::int64_t n, const float* x,
                                   float* y) const {
  sgemm_packed_bt_bias_cols(n, x, weights, y, bias.data());
  if (relu) {
    for (std::int64_t i = 0; i < n * weights.rows; ++i) {
      y[i] = y[i] > 0.0f ? y[i] : 0.0f;
    }
  }
}

void InferencePlan::Int8Dense::run(std::int64_t n, const float* x,
                                   float* y) const {
  // QuantLinear::forward: each row carries its own activation parameters.
  const std::int64_t k = weights.depth;
  std::vector<std::uint8_t> q(static_cast<std::size_t>(n * k));
  std::vector<float> row_scales(static_cast<std::size_t>(n));
  std::vector<std::int32_t> row_zps(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < n; ++r) {
    const nn::quant::ActivationQuant aq =
        nn::quant::choose_activation_quant(x + r * k, k);
    nn::quant::quantize_activations(x + r * k, k, aq, q.data() + r * k);
    row_scales[static_cast<std::size_t>(r)] = aq.scale;
    row_zps[static_cast<std::size_t>(r)] = aq.zero_point;
  }
  I8Epilogue epi = epilogue();
  epi.act_row_scales = row_scales.data();
  epi.act_row_zero_points = row_zps.data();
  i8gemm_packed_bt_bias_cols(n, q.data(), weights, y, epi);
}

SelectiveOutput InferencePlan::infer(const Tensor& images) const {
  WM_CHECK_SHAPE(images.rank() == 4 && images.dim(1) == 1 &&
                     images.dim(2) == opts_.map_size &&
                     images.dim(3) == opts_.map_size,
                 "InferencePlan expects (N,1,", opts_.map_size, ",",
                 opts_.map_size, "), got ", images.shape().to_string());
  const std::int64_t n = images.dim(0);
  const std::int64_t image_size = images.dim(2) * images.dim(3);
  const auto rows = [](const DenseStage& d) {
    return std::visit([](const auto& l) { return l.weights.rows; }, d);
  };
  const std::int64_t features =
      std::visit([](const auto& l) { return l.weights.depth; }, fc_);

  Tensor fc_in(Shape{n, features});
  ThreadPool::global().parallel_chunks(
      0, static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi, std::size_t /*slot*/) {
        thread_local std::vector<float> floats;
        thread_local std::vector<std::uint8_t> bytes;
        floats.resize(static_cast<std::size_t>(conv_scratch_ + in2_ + in3_));
        bytes.resize(static_cast<std::size_t>(bordered_scratch_));
        const Scratch s{floats.data(), bytes.data()};
        float* x2 = s.conv + conv_scratch_;
        float* x3 = x2 + in2_;
        const auto run = [&](const ConvStage& st, const float* in, float* out) {
          std::visit([&](const auto& c) { c.run(in, s, out); }, st);
        };
        for (std::size_t i = lo; i < hi; ++i) {
          const std::int64_t img = static_cast<std::int64_t>(i);
          run(convs_[0], images.data() + img * image_size, x2);
          run(convs_[1], x2, x3);
          run(convs_[2], x3, fc_in.data() + img * features);
        }
      });

  const auto dense = [n](const DenseStage& d, const float* x, float* y) {
    std::visit([&](const auto& l) { l.run(n, x, y); }, d);
  };
  Tensor hidden(Shape{n, rows(fc_)});
  dense(fc_, fc_in.data(), hidden.data());
  SelectiveOutput out;
  out.logits = Tensor(Shape{n, rows(head_f_)});
  dense(head_f_, hidden.data(), out.logits.data());
  out.g = Tensor(Shape{n, 1});
  dense(head_g_, hidden.data(), out.g.data());
  const auto sigmoid = quantized_ ? int8_sigmoid : fp32_sigmoid;
  float* g = out.g.data();
  for (std::int64_t i = 0; i < n; ++i) g[i] = sigmoid(g[i]);
  return out;
}

}  // namespace wm::selective
