#include "nn/quant/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace wm::nn::quant {

namespace {

/// Round-half-away-from-zero, the deterministic rounding every quantizer
/// here uses (no dependence on the FP environment's rounding mode).
std::int32_t round_i32(float v) {
  return static_cast<std::int32_t>(std::lround(v));
}

}  // namespace

QuantizedWeights quantize_weights_per_channel(const Tensor& w) {
  WM_CHECK_SHAPE(w.rank() == 2, "quantize_weights_per_channel needs a rank-2 "
                 "(out_channels x k) matrix, got ", w.shape().to_string());
  QuantizedWeights qw;
  qw.rows = w.dim(0);
  qw.cols = w.dim(1);
  qw.q.resize(static_cast<std::size_t>(qw.rows * qw.cols));
  qw.scales.resize(static_cast<std::size_t>(qw.rows));
  for (std::int64_t r = 0; r < qw.rows; ++r) {
    const float* row = w.data() + r * qw.cols;
    float absmax = 0.0f;
    for (std::int64_t k = 0; k < qw.cols; ++k) {
      absmax = std::max(absmax, std::fabs(row[k]));
    }
    const float scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;
    qw.scales[static_cast<std::size_t>(r)] = scale;
    std::int8_t* qrow = qw.q.data() + r * qw.cols;
    for (std::int64_t k = 0; k < qw.cols; ++k) {
      const std::int32_t v =
          std::clamp(round_i32(row[k] / scale), -127, 127);
      qrow[k] = static_cast<std::int8_t>(v);
    }
  }
  refresh_row_sums(qw);
  return qw;
}

Tensor dequantize_weights(const QuantizedWeights& qw) {
  Tensor w(Shape{qw.rows, qw.cols});
  for (std::int64_t r = 0; r < qw.rows; ++r) {
    const float scale = qw.scales[static_cast<std::size_t>(r)];
    const std::int8_t* qrow = qw.q.data() + r * qw.cols;
    float* row = w.data() + r * qw.cols;
    for (std::int64_t k = 0; k < qw.cols; ++k) {
      row[k] = scale * static_cast<float>(qrow[k]);
    }
  }
  return w;
}

void refresh_row_sums(QuantizedWeights& qw) {
  qw.row_sums.assign(static_cast<std::size_t>(qw.rows), 0);
  for (std::int64_t r = 0; r < qw.rows; ++r) {
    const std::int8_t* qrow = qw.q.data() + r * qw.cols;
    std::int32_t acc = 0;
    for (std::int64_t k = 0; k < qw.cols; ++k) acc += qrow[k];
    qw.row_sums[static_cast<std::size_t>(r)] = acc;
  }
}

ActivationQuant choose_activation_quant(const float* x, std::int64_t n) {
  // Sixteen independent lanes in one vector (GCC vector extensions, as in
  // gemm.cpp), so the scan runs at SIMD width. Each lane makes std::min's
  // and std::max's choice (a NaN never replaces, and +0 is kept over -0),
  // and every lane starts at +0, so each lane holds +0 or a value of the one
  // serial answer, and combining them yields the serial scan's bits.
  typedef float Lanes __attribute__((vector_size(64), aligned(4)));
  constexpr std::int64_t kLanes = sizeof(Lanes) / sizeof(float);
  Lanes vlo = {};
  Lanes vhi = {};  // range always includes 0 (see header)
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Lanes v;
    std::memcpy(&v, x + i, sizeof(v));
    vlo = v < vlo ? v : vlo;
    vhi = vhi < v ? v : vhi;
  }
  float lanes_lo[kLanes];
  float lanes_hi[kLanes];
  std::memcpy(lanes_lo, &vlo, sizeof(vlo));
  std::memcpy(lanes_hi, &vhi, sizeof(vhi));
  for (std::int64_t l = 0; i < n; ++i, ++l) {
    lanes_lo[l] = std::min(lanes_lo[l], x[i]);
    lanes_hi[l] = std::max(lanes_hi[l], x[i]);
  }
  float lo = 0.0f;
  float hi = 0.0f;
  for (std::int64_t l = 0; l < kLanes; ++l) {
    lo = std::min(lo, lanes_lo[l]);
    hi = std::max(hi, lanes_hi[l]);
  }
  ActivationQuant aq;
  if (hi == lo) return aq;  // all-zero tensor: scale 1, zero point 0
  aq.scale = (hi - lo) / 127.0f;
  aq.zero_point = std::clamp(round_i32(-lo / aq.scale), 0, 127);
  return aq;
}

void quantize_activations(const float* x, std::int64_t n,
                          const ActivationQuant& aq, std::uint8_t* out) {
  // This runs per sample per layer on the inference fast path, so it must
  // auto-vectorize: round half away from zero via copysign + truncating
  // conversion instead of std::lround (a libm call per element). The
  // pre-clamp keeps the float→int conversion in range — out-of-range
  // cvttps2dq would yield INT_MIN and saturate to the wrong end.
  const float inv = 1.0f / aq.scale;
  for (std::int64_t i = 0; i < n; ++i) {
    const float v =
        std::min(256.0f, std::max(-256.0f, x[i] * inv));
    const std::int32_t q = static_cast<std::int32_t>(v + std::copysign(0.5f, v));
    out[i] = static_cast<std::uint8_t>(std::clamp(q + aq.zero_point, 0, 127));
  }
}

std::pair<Tensor, Tensor> fold_batchnorm(const Tensor& weight,
                                         const Tensor& bias,
                                         const Tensor& gamma,
                                         const Tensor& beta,
                                         const Tensor& running_mean,
                                         const Tensor& running_var,
                                         double eps) {
  WM_CHECK_SHAPE(weight.rank() == 2, "fold_batchnorm needs (OC x K) weights");
  const std::int64_t oc = weight.dim(0);
  WM_CHECK_SHAPE(bias.numel() == oc && gamma.numel() == oc &&
                     beta.numel() == oc && running_mean.numel() == oc &&
                     running_var.numel() == oc,
                 "fold_batchnorm per-channel size mismatch for ", oc,
                 " channels");
  Tensor w = weight;
  Tensor b = bias;
  const std::int64_t k = weight.dim(1);
  for (std::int64_t c = 0; c < oc; ++c) {
    // Eval-mode BN is the affine map y = g·(x − m)/√(v + eps) + β per
    // channel; compose it with the conv's own affine output.
    const float inv_std = 1.0f / std::sqrt(running_var[c] +
                                           static_cast<float>(eps));
    const float g = gamma[c] * inv_std;
    float* wrow = w.data() + c * k;
    for (std::int64_t i = 0; i < k; ++i) wrow[i] *= g;
    b[c] = (bias[c] - running_mean[c]) * g + beta[c];
  }
  return {std::move(w), std::move(b)};
}

}  // namespace wm::nn::quant
