#include "nn/layers/conv_stage.hpp"

#include <bit>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "nn/init.hpp"
#include "nn/layers/conv_kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/gemm.hpp"

namespace wm::nn {

namespace {

/// Window index of a maximum that ReLU zeroed: its mask is false at the
/// tap, so the window passes no gradient.
constexpr std::uint8_t kNoGrad = 4;

typedef float v8f __attribute__((vector_size(32), aligned(4)));
typedef std::int32_t v8i __attribute__((vector_size(32), aligned(4)));
typedef std::uint32_t v8u __attribute__((vector_size(32), aligned(4)));
typedef std::uint8_t v8b __attribute__((vector_size(8), aligned(1)));

/// BatchNorm's affine map as BatchNorm2d computes it, or the identity.
template <bool kBatchNorm, typename V>
V affine(V v, const BnAffine& a) {
  if constexpr (kBatchNorm) {
    const V norm = (v - a.mean) * a.inv_std;
    return a.gamma * norm + a.beta;
  } else {
    return v;
  }
}

/// ReLU on a float's bits: values in (0, inf] keep theirs, anything else
/// (negative, -0, NaN) becomes +0's, as ReLU's `v > 0 ? v : 0` does. The
/// results are non-negative and never NaN, so their bits order as the
/// floats do, and the pool compares them as ints.
inline std::int32_t relu_bits(float v) {
  const std::int32_t b = std::bit_cast<std::int32_t>(v);
  return static_cast<std::uint32_t>(b - 1) < 0x7f800000u ? b : 0;
}

inline v8i relu_bits(v8f v) {
  const v8i b = reinterpret_cast<v8i>(v);
  return b & (reinterpret_cast<v8u>(b - 1) < 0x7f800000u);
}

/// The 2x2 max of ReLU(affine(conv)) over one (oh, ow) plane into
/// (oh/2, ow/2), each pooled row `out_stride` floats after the last. With
/// kIndex, window[] gets the tap MaxPool2d's scan picks (0-3, row-major; the
/// first tap holding the maximum, which the tournament below reproduces:
/// each row's pair, then the rows), or kNoGrad when the maximum is ReLU's 0.
/// Eight windows a step: BatchNorm and ReLU run on the rows as loaded, then
/// shuffles split the even and odd columns. The maximum alone is one value
/// in any order, so without kIndex the two rows are reduced first and two
/// shuffles do instead of four. A row's last four to seven windows take
/// one more step on half a vector, so rows of four windows (conv3 of
/// Table I) are vector code too.
template <bool kBatchNorm, bool kIndex>
void pool_plane(const float* conv, std::int64_t oh, std::int64_t ow,
                const BnAffine& af, float* out, std::int64_t out_stride,
                std::uint8_t* window) {
  const std::int64_t pw = ow / 2;
  const auto act = [&](const float* p) {
    return relu_bits(affine<kBatchNorm>(*reinterpret_cast<const v8f*>(p), af));
  };
  // The maxima (and taps) of the eight windows whose top rows are t0, t1
  // and bottom rows u0, u1, sixteen values each.
  const auto pool8 = [](v8i t0, v8i t1, v8i u0, v8i u1, v8i& tap) {
    constexpr v8i even = {0, 2, 4, 6, 8, 10, 12, 14};
    constexpr v8i odd = {1, 3, 5, 7, 9, 11, 13, 15};
    if constexpr (!kIndex) {
      const v8i m0 = u0 > t0 ? u0 : t0;
      const v8i m1 = u1 > t1 ? u1 : t1;
      const v8i a = __builtin_shuffle(m0, m1, even);
      const v8i b = __builtin_shuffle(m0, m1, odd);
      return b > a ? b : a;
    } else {
      const v8i a = __builtin_shuffle(t0, t1, even);
      const v8i b = __builtin_shuffle(t0, t1, odd);
      const v8i c = __builtin_shuffle(u0, u1, even);
      const v8i d = __builtin_shuffle(u0, u1, odd);
      const v8i right = b > a;
      const v8i lower_right = d > c;
      const v8i top = (b & right) | (a & ~right);
      const v8i bottom = (d & lower_right) | (c & ~lower_right);
      const v8i lower = bottom > top;
      const v8i best = (bottom & lower) | (top & ~lower);
      const v8i t = ((2 + (lower_right & 1)) & lower) | ((right & 1) & ~lower);
      const v8i zero = best > 0;
      tap = (t & zero) | (kNoGrad & ~zero);
      return best;
    }
  };
  for (std::int64_t y = 0; y < oh / 2; ++y) {
    const float* r0 = conv + 2 * y * ow;
    const float* r1 = r0 + ow;
    float* o = out + y * out_stride;
    std::uint8_t* wi = nullptr;
    if constexpr (kIndex) wi = window + y * pw;
    std::int64_t x = 0;
    v8i tap;
    for (; x + 8 <= pw; x += 8) {
      const v8i best = pool8(act(r0 + 2 * x), act(r0 + 2 * x + 8),
                             act(r1 + 2 * x), act(r1 + 2 * x + 8), tap);
      *reinterpret_cast<v8f*>(o + x) = reinterpret_cast<v8f>(best);
      if constexpr (kIndex) {
        *reinterpret_cast<v8b*>(wi + x) = __builtin_convertvector(tap, v8b);
      }
    }
    if (x + 4 <= pw) {
      const v8i t = act(r0 + 2 * x);
      const v8i u = act(r1 + 2 * x);
      const v8i best = pool8(t, t, u, u, tap);
      std::memcpy(o + x, &best, 4 * sizeof(float));
      if constexpr (kIndex) {
        const v8b taps = __builtin_convertvector(tap, v8b);
        std::memcpy(wi + x, &taps, 4);
      }
      x += 4;
    }
    for (; x < pw; ++x) {
      const std::int32_t a = relu_bits(affine<kBatchNorm>(r0[2 * x], af));
      const std::int32_t b = relu_bits(affine<kBatchNorm>(r0[2 * x + 1], af));
      const std::int32_t c = relu_bits(affine<kBatchNorm>(r1[2 * x], af));
      const std::int32_t d = relu_bits(affine<kBatchNorm>(r1[2 * x + 1], af));
      const std::int32_t top = b > a ? b : a;
      const std::int32_t bottom = d > c ? d : c;
      const std::int32_t best = bottom > top ? bottom : top;
      o[x] = std::bit_cast<float>(best);
      if constexpr (kIndex) {
        const std::int32_t t = bottom > top ? (d > c ? 3 : 2) : (b > a ? 1 : 0);
        wi[x] = static_cast<std::uint8_t>(best > 0 ? t : kNoGrad);
      }
    }
  }
}

/// MaxPool2d's then ReLU's backward over one plane: each window's gradient
/// lands on its tap as 0 + g (MaxPool2d adds it into a zeroed gradient),
/// and every other value of the plane is +0. Eight windows a step: a mask
/// per tap selects the gradient, and shuffles interleave each row's even
/// and odd columns; a row's last four to seven windows take one more step
/// on half a vector.
void route_plane(const float* grad, const std::uint8_t* window,
                 std::int64_t oh, std::int64_t ow, float* out) {
  const std::int64_t pw = ow / 2;
  // The four taps' values of eight windows, from their gradients and taps.
  const auto route8 = [](v8f g, v8i t, v8f& a, v8f& b, v8f& c, v8f& d) {
    const v8i bits = reinterpret_cast<v8i>(0.0f + g);
    a = reinterpret_cast<v8f>(bits & (t == 0));
    b = reinterpret_cast<v8f>(bits & (t == 1));
    c = reinterpret_cast<v8f>(bits & (t == 2));
    d = reinterpret_cast<v8f>(bits & (t == 3));
  };
  constexpr v8i lo = {0, 8, 1, 9, 2, 10, 3, 11};
  constexpr v8i hi = {4, 12, 5, 13, 6, 14, 7, 15};
  for (std::int64_t y = 0; y < oh / 2; ++y) {
    float* r0 = out + 2 * y * ow;
    float* r1 = r0 + ow;
    const float* g = grad + y * pw;
    const std::uint8_t* w = window + y * pw;
    std::int64_t x = 0;
    v8f a, b, c, d;
    for (; x + 8 <= pw; x += 8) {
      route8(*reinterpret_cast<const v8f*>(g + x),
             __builtin_convertvector(*reinterpret_cast<const v8b*>(w + x), v8i),
             a, b, c, d);
      *reinterpret_cast<v8f*>(r0 + 2 * x) = __builtin_shuffle(a, b, lo);
      *reinterpret_cast<v8f*>(r0 + 2 * x + 8) = __builtin_shuffle(a, b, hi);
      *reinterpret_cast<v8f*>(r1 + 2 * x) = __builtin_shuffle(c, d, lo);
      *reinterpret_cast<v8f*>(r1 + 2 * x + 8) = __builtin_shuffle(c, d, hi);
    }
    if (x + 4 <= pw) {
      v8f gv{};
      v8b wv{};
      std::memcpy(&gv, g + x, 4 * sizeof(float));
      std::memcpy(&wv, w + x, 4);
      route8(gv, __builtin_convertvector(wv, v8i), a, b, c, d);
      *reinterpret_cast<v8f*>(r0 + 2 * x) = __builtin_shuffle(a, b, lo);
      *reinterpret_cast<v8f*>(r1 + 2 * x) = __builtin_shuffle(c, d, lo);
      x += 4;
    }
    for (; x < pw; ++x) {
      const float v = 0.0f + g[x];
      const std::uint8_t t = w[x];
      r0[2 * x] = t == 0 ? v : 0.0f;
      r0[2 * x + 1] = t == 1 ? v : 0.0f;
      r1[2 * x] = t == 2 ? v : 0.0f;
      r1[2 * x + 1] = t == 3 ? v : 0.0f;
    }
  }
}

/// Per-thread scratch of at least n floats for one plane's passes.
float* plane_scratch(std::int64_t n) {
  thread_local std::vector<float> scratch;
  if (scratch.size() < static_cast<std::size_t>(n)) {
    scratch.resize(static_cast<std::size_t>(n));
  }
  return scratch.data();
}

}  // namespace

void bn_relu_pool_plane(const float* conv, std::int64_t oh, std::int64_t ow,
                        const BnAffine* bn, float* out,
                        std::int64_t out_stride) {
  if (bn != nullptr) {
    pool_plane<true, false>(conv, oh, ow, *bn, out, out_stride, nullptr);
  } else {
    pool_plane<false, false>(conv, oh, ow, BnAffine{}, out, out_stride,
                             nullptr);
  }
}

ConvStage::ConvStage(const ConvStageOptions& opts, Rng& rng)
    : opts_(opts),
      bn_{.channels = opts.out_channels},
      weight_("conv.weight",
              Tensor(Shape{opts.out_channels,
                           opts.in_channels * opts.kernel * opts.kernel})),
      bias_("conv.bias", Tensor(Shape{opts.out_channels})),
      gamma_("bn.gamma", Tensor::ones(Shape{opts.out_channels})),
      beta_("bn.beta", Tensor(Shape{opts.out_channels})),
      running_mean_(Shape{opts.out_channels}),
      running_var_(Tensor::ones(Shape{opts.out_channels})) {
  WM_CHECK(opts.in_channels > 0 && opts.out_channels > 0 && opts.kernel > 0 &&
               opts.pad >= 0,
           "bad ConvStage options");
  he_normal(weight_.value, opts.in_channels * opts.kernel * opts.kernel, rng);
}

ConvGeometry ConvStage::geometry(std::int64_t h, std::int64_t w) const {
  ConvGeometry g{.channels = opts_.in_channels, .height = h, .width = w,
                 .kernel_h = opts_.kernel, .kernel_w = opts_.kernel,
                 .stride = 1, .pad = opts_.pad};
  g.validate();
  return g;
}

Tensor ConvStage::forward(const Tensor& input, bool training) {
  WM_TRACE_SCOPE("conv_stage.fwd");
  WM_COUNTER_INC("wm_nn_conv_stage_forward_total", "ConvStage forward passes");
  WM_CHECK_SHAPE(input.rank() == 4 && input.dim(1) == opts_.in_channels,
                 "ConvStage expects (N, ", opts_.in_channels, ", H, W), got ",
                 input.shape().to_string());
  const std::int64_t n = input.dim(0);
  const ConvGeometry g = geometry(input.dim(2), input.dim(3));
  const std::int64_t oc = opts_.out_channels;
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  WM_CHECK_SHAPE(oh % 2 == 0 && ow % 2 == 0,
                 "ConvStage pools 2x2 and needs an even conv output, got ", oh,
                 "x", ow);
  const std::int64_t spatial = oh * ow;
  const std::int64_t pooled = spatial / 4;

  // Training keeps the conv output for backward, in last step's storage.
  Tensor conv = training ? std::move(conv_) : Tensor();
  const Shape conv_shape{n, oc, oh, ow};
  if (!(conv.shape() == conv_shape)) conv = Tensor(conv_shape);
  {
    WM_TRACE_SCOPE("conv_stage.conv");
    conv_forward(g, n, pack_weights_a(oc, g.col_rows(), weight_.value.data()),
                 input.data(), conv.data(), bias_.value.data());
  }
  Tensor out(Shape{n, oc, oh / 2, ow / 2});
  if (training) {
    input_ = input;
    window_.resize(static_cast<std::size_t>(out.numel()));
  }
  const float* z = conv.data();
  float* po = out.data();
  const auto pool = [&](std::int64_t plane, const BnAffine& af) {
    const float* zp = z + plane * spatial;
    float* op = po + plane * pooled;
    if (!training) {
      bn_relu_pool_plane(zp, oh, ow, opts_.batchnorm ? &af : nullptr, op,
                         ow / 2);
      return;
    }
    std::uint8_t* wp = window_.data() + plane * pooled;
    if (opts_.batchnorm) {
      pool_plane<true, true>(zp, oh, ow, af, op, ow / 2, wp);
    } else {
      pool_plane<false, true>(zp, oh, ow, af, op, ow / 2, wp);
    }
  };

  WM_TRACE_SCOPE("conv_stage.bn_relu_pool");
  ThreadPool& pool_threads = ThreadPool::global();
  const std::size_t planes = static_cast<std::size_t>(n * oc);
  if (!opts_.batchnorm) {
    pool_threads.parallel_for(0, planes, [&](std::size_t p) {
      pool(static_cast<std::int64_t>(p), BnAffine{});
    });
  } else {
    // Every pass runs plane by plane through memory; each channel's
    // statistic adds its planes' results in batch order, as BatchNorm2d's.
    std::vector<float> mean(static_cast<std::size_t>(oc));
    std::vector<float> inv_std(static_cast<std::size_t>(oc));
    if (training) {
      const double count = static_cast<double>(n * spatial);
      std::vector<double> totals(planes);
      const auto channel_totals = [&](const auto& reduce, auto&& finish) {
        pool_threads.parallel_for(0, planes, [&](std::size_t p) {
          totals[p] = reduce(static_cast<std::int64_t>(p));
        });
        for (std::int64_t ch = 0; ch < oc; ++ch) {
          double sum = 0.0;
          for (std::int64_t i = 0; i < n; ++i) {
            sum += totals[static_cast<std::size_t>(i * oc + ch)];
          }
          finish(ch, sum);
        }
      };
      channel_totals(
          [&](std::int64_t p) { return plane_sum(z + p * spatial, spatial); },
          [&](std::int64_t ch, double sum) {
            mean[static_cast<std::size_t>(ch)] = static_cast<float>(sum / count);
          });
      channel_totals(
          [&](std::int64_t p) {
            return plane_squared_deviations(z + p * spatial, spatial,
                                            mean[static_cast<std::size_t>(p % oc)]);
          },
          [&](std::int64_t ch, double sum) {
            const std::size_t c = static_cast<std::size_t>(ch);
            const float var = static_cast<float>(sum / count);
            const float m = static_cast<float>(bn_.momentum);
            running_mean_[ch] = (1.0f - m) * running_mean_[ch] + m * mean[c];
            running_var_[ch] = (1.0f - m) * running_var_[ch] + m * var;
            inv_std[c] = bn_inv_std(var, bn_.eps);
          });
      mean_ = mean;
      inv_std_ = inv_std;
    } else {
      for (std::int64_t ch = 0; ch < oc; ++ch) {
        mean[static_cast<std::size_t>(ch)] = running_mean_[ch];
        inv_std[static_cast<std::size_t>(ch)] =
            bn_inv_std(running_var_[ch], bn_.eps);
      }
    }
    pool_threads.parallel_for(0, planes, [&](std::size_t p) {
      const std::int64_t ch = static_cast<std::int64_t>(p) % oc;
      const std::size_t c = static_cast<std::size_t>(ch);
      pool(static_cast<std::int64_t>(p),
           BnAffine{mean[c], inv_std[c], gamma_.value[ch], beta_.value[ch]});
    });
  }
  if (training) conv_ = std::move(conv);
  return out;
}

Tensor ConvStage::backward(const Tensor& grad_output) {
  return backward_impl(grad_output, /*input_grad=*/true);
}

void ConvStage::backward_params(const Tensor& grad_output) {
  backward_impl(grad_output, /*input_grad=*/false);
}

Tensor ConvStage::backward_impl(const Tensor& grad_output, bool input_grad) {
  WM_TRACE_SCOPE("conv_stage.bwd");
  WM_COUNTER_INC("wm_nn_conv_stage_backward_total", "ConvStage backward passes");
  WM_CHECK(conv_.rank() == 4, "ConvStage backward without a training forward");
  const std::int64_t n = conv_.dim(0);
  const std::int64_t oc = conv_.dim(1);
  const std::int64_t oh = conv_.dim(2);
  const std::int64_t ow = conv_.dim(3);
  WM_CHECK_SHAPE(grad_output.shape() == Shape({n, oc, oh / 2, ow / 2}),
                 "ConvStage backward shape mismatch: got ",
                 grad_output.shape().to_string());
  const ConvGeometry g = geometry(input_.dim(2), input_.dim(3));
  const std::int64_t spatial = oh * ow;
  const std::int64_t pooled = spatial / 4;

  Tensor grad = std::move(grad_conv_);
  if (!(grad.shape() == conv_.shape())) grad = Tensor(conv_.shape());
  const float* dp = grad_output.data();
  const std::uint8_t* win = window_.data();
  const float* z = conv_.data();
  float* dz = grad.data();
  const std::size_t planes = static_cast<std::size_t>(n * oc);
  ThreadPool& pool_threads = ThreadPool::global();
  // Per-plane sums of the conv-output gradient, for the bias gradient.
  std::vector<double> bias_totals(planes);
  {
    WM_TRACE_SCOPE("conv_stage.pool_relu_bn.bwd");
    if (!opts_.batchnorm) {
      pool_threads.parallel_for(0, planes, [&](std::size_t p) {
        const std::int64_t plane = static_cast<std::int64_t>(p);
        float* d = dz + plane * spatial;
        route_plane(dp + plane * pooled, win + plane * pooled, oh, ow, d);
        bias_totals[p] = plane_sum(d, spatial);
      });
    } else {
      // BatchNorm2d's backward with the x_hat it would have kept recomputed
      // from the conv output. The first pass only reduces, routing each
      // plane into per-thread scratch; the channel sums fold in batch order;
      // the second pass routes again and writes the conv-output gradient.
      std::vector<double> dy_totals(planes);
      std::vector<double> dy_xh_totals(planes);
      pool_threads.parallel_for(0, planes, [&](std::size_t p) {
        const std::int64_t plane = static_cast<std::int64_t>(p);
        const std::size_t ch = p % static_cast<std::size_t>(oc);
        const float mu = mean_[ch];
        const float is = inv_std_[ch];
        float* routed = plane_scratch(2 * spatial);
        float* xh = routed + spatial;
        const float* zp = z + plane * spatial;
        for (std::int64_t s = 0; s < spatial; ++s) xh[s] = (zp[s] - mu) * is;
        route_plane(dp + plane * pooled, win + plane * pooled, oh, ow, routed);
        dy_totals[p] = plane_sum(routed, spatial);
        dy_xh_totals[p] = plane_products(routed, xh, spatial);
      });
      const float count = static_cast<float>(n * spatial);
      std::vector<float> k(static_cast<std::size_t>(oc));
      std::vector<float> mean_dy(static_cast<std::size_t>(oc));
      std::vector<float> mean_dy_xh(static_cast<std::size_t>(oc));
      for (std::int64_t ch = 0; ch < oc; ++ch) {
        const std::size_t c = static_cast<std::size_t>(ch);
        double sum_dy = 0.0;
        double sum_dy_xh = 0.0;
        for (std::int64_t i = 0; i < n; ++i) {
          sum_dy += dy_totals[static_cast<std::size_t>(i * oc + ch)];
          sum_dy_xh += dy_xh_totals[static_cast<std::size_t>(i * oc + ch)];
        }
        gamma_.grad[ch] += static_cast<float>(sum_dy_xh);
        beta_.grad[ch] += static_cast<float>(sum_dy);
        k[c] = gamma_.value[ch] * inv_std_[c] / count;
        mean_dy[c] = static_cast<float>(sum_dy);
        mean_dy_xh[c] = static_cast<float>(sum_dy_xh);
      }
      pool_threads.parallel_for(0, planes, [&](std::size_t p) {
        const std::int64_t plane = static_cast<std::int64_t>(p);
        const std::size_t ch = p % static_cast<std::size_t>(oc);
        const float mu = mean_[ch];
        const float is = inv_std_[ch];
        const float kc = k[ch];
        const float md = mean_dy[ch];
        const float mdx = mean_dy_xh[ch];
        const float* zp = z + plane * spatial;
        float* routed = plane_scratch(spatial);
        route_plane(dp + plane * pooled, win + plane * pooled, oh, ow, routed);
        float* d = dz + plane * spatial;
        for (std::int64_t s = 0; s < spatial; ++s) {
          const float xh = (zp[s] - mu) * is;
          d[s] = kc * (count * routed[s] - md - xh * mdx);
        }
        bias_totals[p] = plane_sum(d, spatial);
      });
    }
  }
  {
    WM_TRACE_SCOPE("conv_stage.dw");
    sgemm_conv_dw(g, n, oc, dz, input_.data(), weight_.grad.data());
    add_row_totals(n, oc, bias_totals.data(), bias_.grad.data());
  }
  Tensor grad_input;
  if (input_grad) {
    WM_TRACE_SCOPE("conv_stage.dx");
    grad_input = Tensor(input_.shape());
    conv_input_grad(g, n, oc,
                    pack_input_grad_filters(g, oc, weight_.value.data()), dz,
                    grad_input.data(), nullptr);
  }
  grad_conv_ = std::move(grad);
  return grad_input;
}

void ConvStage::release_caches() {
  input_ = Tensor();
  conv_ = Tensor();
  grad_conv_ = Tensor();
  window_ = std::vector<std::uint8_t>();
  mean_ = std::vector<float>();
  inv_std_ = std::vector<float>();
}

std::vector<Parameter*> ConvStage::parameters() {
  if (!opts_.batchnorm) return {&weight_, &bias_};
  return {&weight_, &bias_, &gamma_, &beta_};
}

std::vector<Tensor*> ConvStage::buffers() {
  if (!opts_.batchnorm) return {};
  return {&running_mean_, &running_var_};
}

std::string ConvStage::name() const {
  std::ostringstream os;
  os << "ConvStage(" << opts_.in_channels << " -> " << opts_.out_channels
     << ", k=" << opts_.kernel << ", p=" << opts_.pad
     << (opts_.batchnorm ? ", bn" : "") << ")";
  return os.str();
}

}  // namespace wm::nn
