#include "nn/quant/quantize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/layers/batchnorm2d.hpp"
#include "nn/layers/conv2d.hpp"
#include "nn/layers/linear.hpp"
#include "nn/quant/quant_layers.hpp"
#include "tensor/tensor_ops.hpp"

namespace wm::nn::quant {
namespace {

TEST(QuantizeTest, WeightRoundTripWithinHalfScale) {
  Rng rng(1);
  const Tensor w = Tensor::normal(Shape{12, 37}, rng);
  const QuantizedWeights qw = quantize_weights_per_channel(w);
  const Tensor back = dequantize_weights(qw);
  for (std::int64_t r = 0; r < qw.rows; ++r) {
    const float tol = qw.scales[static_cast<std::size_t>(r)] * 0.5f + 1e-6f;
    for (std::int64_t k = 0; k < qw.cols; ++k) {
      EXPECT_NEAR(back[r * qw.cols + k], w[r * qw.cols + k], tol)
          << "row " << r << " col " << k;
    }
  }
}

TEST(QuantizeTest, ZeroRowGetsUnitScale) {
  Tensor w(Shape{2, 4});
  w[4] = 3.0f;  // row 1 non-zero, row 0 all zero
  const QuantizedWeights qw = quantize_weights_per_channel(w);
  EXPECT_FLOAT_EQ(qw.scales[0], 1.0f);
  for (std::int64_t k = 0; k < 4; ++k) EXPECT_EQ(qw.q[k], 0);
  EXPECT_EQ(qw.row_sums[0], 0);
}

TEST(QuantizeTest, RowSumsMatchQuantizedValues) {
  Rng rng(2);
  const Tensor w = Tensor::normal(Shape{5, 9}, rng);
  const QuantizedWeights qw = quantize_weights_per_channel(w);
  for (std::int64_t r = 0; r < qw.rows; ++r) {
    std::int32_t sum = 0;
    for (std::int64_t k = 0; k < qw.cols; ++k) sum += qw.q[r * qw.cols + k];
    EXPECT_EQ(qw.row_sums[static_cast<std::size_t>(r)], sum);
  }
}

TEST(QuantizeTest, ActivationRoundTripWithinHalfScale) {
  Rng rng(3);
  std::vector<float> x(257);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-2.0, 5.0));
  const ActivationQuant aq =
      choose_activation_quant(x.data(), static_cast<std::int64_t>(x.size()));
  std::vector<std::uint8_t> q(x.size());
  quantize_activations(x.data(), static_cast<std::int64_t>(x.size()), aq,
                       q.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float back =
        aq.scale * static_cast<float>(static_cast<std::int32_t>(q[i]) -
                                      aq.zero_point);
    EXPECT_NEAR(back, x[i], aq.scale * 0.5f + 1e-6f) << "at " << i;
  }
}

TEST(QuantizeTest, ZeroPointRepresentsZeroExactly) {
  // The calibrated range always includes 0, so 0.0 must survive the round
  // trip exactly — conv padding taps and ReLU zeros depend on it.
  std::vector<float> x = {0.0f, 1.5f, 3.0f, 0.25f, -4.0f, 0.0f};
  const ActivationQuant aq = choose_activation_quant(x.data(), 6);
  std::vector<std::uint8_t> q(x.size());
  quantize_activations(x.data(), 6, aq, q.data());
  EXPECT_EQ(static_cast<std::int32_t>(q[0]), aq.zero_point);
  EXPECT_EQ(static_cast<std::int32_t>(q[5]), aq.zero_point);
  // All-zero input degenerates to the identity parameters.
  std::vector<float> zeros(8, 0.0f);
  const ActivationQuant z = choose_activation_quant(zeros.data(), 8);
  EXPECT_FLOAT_EQ(z.scale, 1.0f);
  EXPECT_EQ(z.zero_point, 0);
}

/// choose_activation_quant as one serial std::min / std::max scan.
ActivationQuant serial_activation_quant(const float* x, std::int64_t n) {
  float lo = 0.0f;
  float hi = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  ActivationQuant aq;
  if (hi == lo) return aq;
  aq.scale = (hi - lo) / 127.0f;
  aq.zero_point = std::clamp(
      static_cast<std::int32_t>(std::lround(-lo / aq.scale)), 0, 127);
  return aq;
}

TEST(QuantizeTest, ActivationRangeMatchesSerialScan) {
  Rng rng(11);
  // Each fills x[i] for one input family.
  const std::vector<std::pair<std::string, float (*)(Rng&, std::int64_t)>>
      families = {
          {"mixed", [](Rng& r, std::int64_t) {
             return static_cast<float>(r.uniform(-2.0, 5.0));
           }},
          {"mixed with NaN", [](Rng& r, std::int64_t i) {
             return i % 5 == 2 ? std::numeric_limits<float>::quiet_NaN()
                               : static_cast<float>(r.uniform(-3.0, 2.0));
           }},
          {"signed zeros", [](Rng& r, std::int64_t) {
             return r.bernoulli(0.5) ? -0.0f : 0.0f;
           }},
          {"signed zeros and one value", [](Rng& r, std::int64_t i) {
             return i == 3 ? 0.75f : (r.bernoulli(0.5) ? -0.0f : 0.0f);
           }},
          {"all negative", [](Rng& r, std::int64_t) {
             return static_cast<float>(r.uniform(-4.0, -0.1));
           }},
          {"all negative with -0", [](Rng& r, std::int64_t i) {
             return i % 3 == 0 ? -0.0f
                               : static_cast<float>(r.uniform(-4.0, -0.1));
           }},
          {"all zero", [](Rng&, std::int64_t) { return 0.0f; }},
          {"all NaN", [](Rng&, std::int64_t) {
             return std::numeric_limits<float>::quiet_NaN();
           }},
          {"NaN first", [](Rng& r, std::int64_t i) {
             return i == 0 ? std::numeric_limits<float>::quiet_NaN()
                           : static_cast<float>(r.uniform(-1.0, 1.0));
           }},
      };
  for (const auto& [name, fill] : families) {
    for (std::int64_t n = 1; n <= 70; ++n) {
      std::vector<float> x(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        x[static_cast<std::size_t>(i)] = fill(rng, i);
      }
      const ActivationQuant got = choose_activation_quant(x.data(), n);
      const ActivationQuant want = serial_activation_quant(x.data(), n);
      EXPECT_EQ(std::memcmp(&got.scale, &want.scale, sizeof(float)), 0)
          << name << ", n = " << n << ": " << got.scale << " vs " << want.scale;
      EXPECT_EQ(got.zero_point, want.zero_point) << name << ", n = " << n;
    }
  }
}

TEST(QuantizeTest, FoldedBatchnormMatchesConvBnEval) {
  Rng rng(4);
  Conv2d conv({.in_channels = 3, .out_channels = 6, .kernel = 3, .stride = 1,
               .pad = 1},
              rng);
  BatchNorm2d bn({.channels = 6});
  const Tensor x = Tensor::normal(Shape{2, 3, 8, 8}, rng);
  // A training pass gives the running stats something non-trivial.
  bn.forward(conv.forward(x, true), true);
  const Tensor want = bn.forward(conv.forward(x, false), false);

  const auto params = conv.parameters();
  const auto bn_params = bn.parameters();
  const auto [fw, fb] = fold_batchnorm(
      params[0]->value, params[1]->value, bn_params[0]->value,
      bn_params[1]->value, bn.running_mean(), bn.running_var(),
      BatchNorm2dOptions{}.eps);
  Conv2d folded({.in_channels = 3, .out_channels = 6, .kernel = 3,
                 .stride = 1, .pad = 1},
                rng);
  const auto fparams = folded.parameters();
  fparams[0]->value = fw;
  fparams[1]->value = fb;
  EXPECT_LT(max_abs_diff(folded.forward(x, false), want), 1e-4f);
}

TEST(QuantLayersTest, QuantConv2dTracksFloatConv) {
  Rng rng(5);
  Conv2d conv({.in_channels = 2, .out_channels = 8, .kernel = 3, .stride = 1,
               .pad = 1},
              rng);
  const auto params = conv.parameters();
  QuantConv2d qconv({.in_channels = 2, .out_channels = 8, .kernel = 3,
                     .stride = 1, .pad = 1},
                    params[0]->value, params[1]->value, /*fuse_relu=*/false);
  const Tensor x = Tensor::uniform(Shape{3, 2, 10, 10}, rng);
  const Tensor want = conv.forward(x, false);
  const Tensor got = qconv.forward(x);
  ASSERT_EQ(got.shape(), want.shape());
  // int8 weights + 7-bit activations: a few percent of the output scale.
  float absmax = 0.0f;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    absmax = std::max(absmax, std::fabs(want[i]));
  }
  EXPECT_LT(max_abs_diff(got, want), 0.05f * absmax + 0.05f);
}

TEST(QuantLayersTest, QuantLinearTracksFloatLinear) {
  Rng rng(6);
  Linear lin(64, 16, rng);
  const auto params = lin.parameters();
  QuantLinear qlin(params[0]->value, params[1]->value, /*fuse_relu=*/false);
  const Tensor x = Tensor::normal(Shape{5, 64}, rng);
  const Tensor want = lin.forward(x, false);
  const Tensor got = qlin.forward(x);
  ASSERT_EQ(got.shape(), want.shape());
  float absmax = 0.0f;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    absmax = std::max(absmax, std::fabs(want[i]));
  }
  EXPECT_LT(max_abs_diff(got, want), 0.05f * absmax + 0.05f);
}

TEST(QuantLayersTest, FusedReluClampsExactly) {
  Rng rng(7);
  Linear lin(32, 8, rng);
  const auto params = lin.parameters();
  QuantLinear plain(params[0]->value, params[1]->value, /*fuse_relu=*/false);
  QuantLinear fused(params[0]->value, params[1]->value, /*fuse_relu=*/true);
  const Tensor x = Tensor::normal(Shape{4, 32}, rng);
  const Tensor a = plain.forward(x);
  const Tensor b = fused.forward(x);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_FLOAT_EQ(b[i], a[i] < 0.0f ? 0.0f : a[i]);
  }
}

TEST(QuantLayersTest, OutputsIndependentOfBatchComposition) {
  // Per-sample dynamic quantization: a sample's result must not change when
  // it is batched with different neighbours (the Classifier contract).
  Rng rng(8);
  Conv2d conv({.in_channels = 1, .out_channels = 4, .kernel = 3, .stride = 1,
               .pad = 1},
              rng);
  const auto cp = conv.parameters();
  QuantConv2d qconv({.in_channels = 1, .out_channels = 4, .kernel = 3,
                     .stride = 1, .pad = 1},
                    cp[0]->value, cp[1]->value, false);
  Linear lin(16, 6, rng);
  const auto lp = lin.parameters();
  QuantLinear qlin(lp[0]->value, lp[1]->value, false);

  // Wildly different magnitudes per sample, so per-batch calibration would
  // visibly change the quantization grid.
  Tensor batch(Shape{3, 1, 4, 4});
  Rng rng2(9);
  for (std::int64_t s = 0; s < 3; ++s) {
    const float scale = std::pow(10.0f, static_cast<float>(s));
    for (std::int64_t i = 0; i < 16; ++i) {
      batch[s * 16 + i] = scale * static_cast<float>(rng2.uniform(-1.0, 1.0));
    }
  }
  const Tensor conv_all = qconv.forward(batch);
  const Tensor lin_all = qlin.forward(batch.reshape(Shape{3, 16}));
  for (std::int64_t s = 0; s < 3; ++s) {
    Tensor one(Shape{1, 1, 4, 4});
    for (std::int64_t i = 0; i < 16; ++i) one[i] = batch[s * 16 + i];
    const Tensor conv_one = qconv.forward(one);
    const Tensor lin_one = qlin.forward(one.reshape(Shape{1, 16}));
    for (std::int64_t i = 0; i < conv_one.numel(); ++i) {
      ASSERT_EQ(conv_one[i], conv_all[s * conv_one.numel() + i]) << "sample "
                                                                 << s;
    }
    for (std::int64_t i = 0; i < lin_one.numel(); ++i) {
      ASSERT_EQ(lin_one[i], lin_all[s * lin_one.numel() + i]) << "sample "
                                                              << s;
    }
  }
}

}  // namespace
}  // namespace wm::nn::quant
