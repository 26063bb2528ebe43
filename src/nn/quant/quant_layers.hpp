// Inference-only quantized siblings of Conv2d and Linear, built on the
// fused i8gemm kernels. Float tensors in, float tensors out: each forward
// dynamically quantizes its input per-sample, runs the integer product and
// dequantizes in the GEMM epilogue (optionally fusing the following ReLU),
// so these drop into a float network at layer boundaries. Per-sample (not
// per-batch) activation ranges keep every sample's output independent of
// what it was batched with — the wm::Classifier contract.
//
// There is no backward; training stays fp32. These forwards are the int8
// reference path: the serving plan (selective/inference_plan.hpp) packs the
// same weights once and reproduces their bits. Forwards are const and
// reentrant (scratch is local), matching the Classifier thread-safety
// contract.
#pragma once

#include "nn/layers/conv2d.hpp"
#include "nn/quant/quantize.hpp"

namespace wm::nn::quant {

/// Quantized convolution over (N, C, H, W), lowered to i8gemm via u8
/// im2col. Weights are per-output-channel symmetric int8; BatchNorm, when
/// present in the source net, is folded into weights and bias before
/// quantization (see fold_batchnorm).
class QuantConv2d {
 public:
  /// Quantizes float weights (OC x IC·K·K) and copies the float bias (OC).
  QuantConv2d(const Conv2dOptions& opts, const Tensor& weight,
              const Tensor& bias, bool fuse_relu);

  /// Adopts pre-quantized weights (model-file load path). row_sums may be
  /// empty; they are recomputed.
  QuantConv2d(const Conv2dOptions& opts, QuantizedWeights qw, Tensor bias,
              bool fuse_relu);

  Tensor forward(const Tensor& input) const;

  const Conv2dOptions& options() const { return opts_; }
  const QuantizedWeights& weights() const { return qw_; }
  const Tensor& bias() const { return bias_; }
  bool fused_relu() const { return relu_; }

 private:
  Conv2dOptions opts_;
  QuantizedWeights qw_;
  Tensor bias_;
  bool relu_;
};

/// Quantized fully-connected layer: Y = X Wᵀ + b over i8gemm_bt_bias_cols.
class QuantLinear {
 public:
  /// Quantizes float weights (out x in) and copies the float bias (out).
  QuantLinear(const Tensor& weight, const Tensor& bias, bool fuse_relu);

  /// Adopts pre-quantized weights (model-file load path).
  QuantLinear(QuantizedWeights qw, Tensor bias, bool fuse_relu);

  Tensor forward(const Tensor& input) const;

  std::int64_t in_features() const { return qw_.cols; }
  std::int64_t out_features() const { return qw_.rows; }
  const QuantizedWeights& weights() const { return qw_; }
  const Tensor& bias() const { return bias_; }
  bool fused_relu() const { return relu_; }

 private:
  QuantizedWeights qw_;  // (out x in), rows are output features
  Tensor bias_;
  bool relu_;
};

}  // namespace wm::nn::quant
