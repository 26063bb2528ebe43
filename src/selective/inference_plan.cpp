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
#include "nn/layers/conv_stage.hpp"
#include "nn/quant/quantize.hpp"

namespace wm::selective {

namespace {

std::vector<float> to_vector(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

/// MaxPool2d(2)'s eval forward over one image's channels-last (oh, ow,
/// channels) conv output, into channels-last (oh / 2, ow / 2, channels), or
/// into (channels, oh / 2, ow / 2) planes when `Planar`: each window is
/// scanned in MaxPool2d's order from -inf, and a value replaces the best
/// only when strictly greater. The int8 epilogue's ReLU keeps -0 and NaN,
/// so unlike the fp32 pass this keeps the scan's order; it runs across
/// channels, a vector of windows at a time. `Planar` is a template argument
/// so that the channels-last stores stay unit-stride vector stores; a
/// run-time stride measurably slowed the int8 plan.
template <bool Planar>
void max_pool2_channels_last(const float* conv, std::int64_t oh,
                             std::int64_t ow, std::int64_t channels,
                             float* pooled) {
  const std::int64_t row = ow * channels;
  const std::int64_t pixel_step = Planar ? 1 : channels;
  const std::int64_t channel_step = Planar ? (oh / 2) * (ow / 2) : 1;
  for (std::int64_t y = 0; y < oh / 2; ++y) {
    const float* r0 = conv + 2 * y * row;
    const float* r1 = r0 + row;
    for (std::int64_t x = 0; x < ow / 2; ++x) {
      const float* a = r0 + 2 * x * channels;
      const float* b = r1 + 2 * x * channels;
      float* o = pooled + (y * (ow / 2) + x) * pixel_step;
      for (std::int64_t ch = 0; ch < channels; ++ch) {
        float best = -std::numeric_limits<float>::infinity();
        for (const float v : {a[ch], a[channels + ch], b[ch],
                              b[channels + ch]}) {
          best = v > best ? v : best;
        }
        o[ch * channel_step] = best;
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
  const std::int64_t kernels[] = {5, 3, 3};
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    Fp32Conv& st = convs_[i].emplace<Fp32Conv>();
    const std::int64_t kernel = kernels[i];
    st.geom = {.channels = filters[i], .height = s >> i, .width = s >> i,
               .kernel_h = kernel, .kernel_w = kernel, .stride = 1,
               .pad = kernel / 2};
    st.border_input = i == 0;
    st.out_pad = i + 1 < convs_.size() ? kernels[i + 1] / 2 : 0;
    const Tensor& w = take("conv.weight");
    WM_CHECK_SHAPE(w.numel() == filters[i + 1] * st.geom.col_rows(),
                   "conv weight shape ", w.shape().to_string());
    st.weights = pack_weights_a(filters[i + 1], st.geom.col_rows(), w.data());
    st.bias = to_vector(take("conv.bias"));
    if (opts_.use_batchnorm) {
      const Tensor& gamma = take("bn.gamma");
      const Tensor& beta = take("bn.beta");
      const Tensor& mean = take_buffer();
      const Tensor& var = take_buffer();
      for (std::int64_t ch = 0; ch < var.numel(); ++ch) {
        st.bn.push_back(
            {mean[ch], nn::bn_inv_std(var[ch], nn::BatchNorm2dOptions{}.eps),
             gamma[ch], beta[ch]});
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
    const ConvGeometry g{.channels = o.in_channels, .height = size,
                         .width = size, .kernel_h = o.kernel,
                         .kernel_w = o.kernel, .stride = 1, .pad = o.pad};
    // conv3 pools into (c, y, x), the order the layer path flattens in, so
    // the FC's weights pack as they are.
    convs_[i] = Int8Conv{
        {pack_conv_filters(g, qw.rows, qw.q.data()), qw.scales, qw.row_sums,
         to_vector(convs[i]->bias()), convs[i]->fused_relu()},
        g,
        /*planar=*/i + 1 == convs_.size()};
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
          const std::int64_t bordered =
              (g.height + 2 * g.pad) * (g.width + 2 * g.pad) * g.channels;
          conv_scratch_ =
              std::max(conv_scratch_, st.weights.rows * g.col_cols());
          if constexpr (std::is_same_v<std::decay_t<decltype(st)>, Int8Conv>) {
            inputs[i] = g.channels * g.height * g.width;
            bordered_scratch_ =
                std::max(bordered_scratch_, bordered + kI8ConvImageSlack);
          } else {
            inputs[i] = bordered;
            if (st.border_input) frame_ = bordered;
          }
        },
        convs_[i]);
  }
  in2_ = inputs[1];
  in3_ = inputs[2];
}

void InferencePlan::Fp32Conv::run(const float* image, const Scratch& s,
                                  float* pooled) const {
  if (border_input) {
    border_image(geom, image, s.frame);
    image = s.frame;
  }
  sgemm_conv(geom, weights, image, s.conv, bias.data());
  const std::int64_t oh = geom.out_h();
  const std::int64_t ow = geom.out_w();
  const std::int64_t hb = oh / 2 + 2 * out_pad;
  const std::int64_t wb = ow / 2 + 2 * out_pad;
  zero_border(weights.rows, oh / 2, ow / 2, out_pad, pooled);
  for (std::int64_t ch = 0; ch < weights.rows; ++ch) {
    nn::bn_relu_pool_plane(s.conv + ch * oh * ow, oh, ow,
                           bn.empty() ? nullptr : &bn[ch],
                           pooled + (ch * hb + out_pad) * wb + out_pad, wb);
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
  // QuantConv2d::forward's per-image quantization, written channels-last
  // into a copy bordered with the zero point: the value its im2col_u8 gives
  // padding taps. The range is a min/max over the same values in another
  // order, and quantizing works element by element.
  const std::int64_t c = geom.channels;
  const std::int64_t row = geom.width * c;
  const std::int64_t ring = geom.pad * c;
  const std::int64_t brow = row + 2 * ring;
  const std::int64_t border = geom.pad * brow;
  const nn::quant::ActivationQuant aq =
      nn::quant::choose_activation_quant(image, geom.height * row);
  const auto zp = static_cast<std::uint8_t>(aq.zero_point);
  std::memset(s.bordered, zp, static_cast<std::size_t>(border));
  for (std::int64_t y = 0; y < geom.height; ++y) {
    std::uint8_t* out = s.bordered + border + y * brow;
    std::memset(out, zp, static_cast<std::size_t>(ring));
    nn::quant::quantize_activations(image + y * row, row, aq, out + ring);
    std::memset(out + ring + row, zp, static_cast<std::size_t>(ring));
  }
  std::memset(s.bordered + border + geom.height * brow, zp,
              static_cast<std::size_t>(border));
  I8Epilogue epi = epilogue();
  epi.act_scale = aq.scale;
  epi.act_zero_point = aq.zero_point;
  i8gemm_conv(geom, weights, s.bordered, s.conv, epi);
  const auto pool = planar ? max_pool2_channels_last<true>
                           : max_pool2_channels_last<false>;
  pool(s.conv, geom.out_h(), geom.out_w(), weights.rows, pooled);
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
      [&](std::size_t lo, std::size_t hi) {
        thread_local std::vector<float> floats;
        thread_local std::vector<std::uint8_t> bytes;
        floats.resize(
            static_cast<std::size_t>(conv_scratch_ + frame_ + in2_ + in3_));
        bytes.resize(static_cast<std::size_t>(bordered_scratch_));
        const Scratch s{floats.data(), floats.data() + conv_scratch_,
                        bytes.data()};
        float* x2 = s.frame + frame_;
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
