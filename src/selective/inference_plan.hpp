// A selective net compiled for serving: the f and g of Eq. 2 in eval mode,
// frozen at compile time, from an fp32 SelectiveNet or an int8
// QuantizedSelectiveNet.
//
// Compiling copies what inference needs out of the net, and each stage
// holds the packed panels of its own precision: each conv's filters packed
// once (fp32: the GEMM's A panels; int8: i8gemm_conv's B panels, K in
// (kh, kw, c) order), the FC and head weights packed once into B panels,
// and per-channel epilogue constants (fp32: conv bias and BatchNorm, with
// inv_std computed exactly as BatchNorm2d's eval forward computes it; int8:
// weight scales, weight row sums and the folded bias). The plan keeps no
// reference to the net, so later changes to the net (or its destruction)
// do not reach it.
//
// infer() runs each image through three conv stages with per-thread scratch,
// fanning images over ThreadPool::global() as Conv2d::forward does. An fp32
// stage reads its input zero-bordered by its pad, (C, H + 2p, W + 2p) — the
// first stage borders the wafer itself — and is
//
//   sgemm_conv + bias (the kernel reads im2col's rows in place from the
//   bordered input, or from shifted copies of it where OW is no multiple of
//   the vector width)
//     -> one pass per plane, ConvStage's eval pass (bn_relu_pool_plane):
//        (x - mean) * inv_std -> gamma * norm + beta -> ReLU -> 2x2 max
//        into the inside of the next stage's bordered input, whose ring
//        the stage zeroes
//
// and an int8 stage runs channels-last from end to end:
//
//   activation range -> quantize, one image row of W·C values at a time,
//   into a (H + 2p, W + 2p, C) u8 image bordered with the zero point ->
//   i8gemm_conv (the kernel broadcasts the taps straight from that image;
//   dequantize + bias [+ ReLU] in its epilogue) into (OH·OW, OC) -> 2x2 max
//   across channels into the next stage's channels-last input
//
// An fp32 stage reads and writes (C, H, W) planes (bordered), an int8
// stage (H, W, C) pixels; conv1's input (C = 1) is both. conv3's pooled
// output is the image's row of the FC input, so conv3's int8 stage pools
// into (C, H, W) planes, the order the layer path flattens in. FC (+ ReLU), both heads and
// the sigmoid then run once over the batch, fp32 or int8 with per-row
// activation parameters. Every float operation runs on the values of the
// layer path it replaces, in its order wherever order could change a bit
// (an activation range is a min/max over a set, which no order changes; int8
// sums are exact), so logits and g are bit-identical for any thread count
// and batch grouping to
// SelectiveNet::forward(images, false) (fp32), or to QuantConv2d::forward ->
// 2x2 MaxPool2d -> ... -> QuantLinear::forward -> 1 / (1 + e^-x) (int8).
// infer() is const and reentrant.
#pragma once

#include <array>
#include <cstdint>
#include <variant>
#include <vector>

#include "nn/layers/conv_stage.hpp"
#include "selective/quant_net.hpp"
#include "selective/selective_net.hpp"
#include "tensor/gemm.hpp"
#include "tensor/i8gemm.hpp"
#include "tensor/im2col.hpp"

namespace wm::selective {

class InferencePlan {
 public:
  /// Compiles the net's current parameters and BatchNorm statistics.
  explicit InferencePlan(const SelectiveNet& net);

  /// Compiles the quantized net's int8 weights. Throws wm::Error unless
  /// every conv is stride 1 with pad = kernel / 2 (odd kernel), the "same"
  /// convs the per-thread scratch is sized for.
  explicit InferencePlan(const QuantizedSelectiveNet& net);

  /// Eval-mode forward over (N, 1, map_size, map_size) images.
  SelectiveOutput infer(const Tensor& images) const;

  const SelectiveNetOptions& options() const { return opts_; }

  /// True when compiled from a QuantizedSelectiveNet.
  bool is_quantized() const { return quantized_; }

 private:
  /// Per-thread scratch of one image's pass: conv output floats, the
  /// bordered wafer of an fp32 first stage, and the bordered u8 image of an
  /// int8 stage, kI8ConvImageSlack bytes longer than the largest.
  struct Scratch {
    float* conv;
    float* frame;
    std::uint8_t* bordered;
  };

  /// One conv -> [BatchNorm] -> ReLU -> 2x2 max-pool block in fp32, reading
  /// its input zero-bordered by geom.pad, (C, H + 2p, W + 2p).
  struct Fp32Conv {
    ConvGeometry geom;
    PackedPanels weights;
    std::vector<float> bias;
    // Per-channel BatchNorm constants; empty when the net has no BatchNorm.
    std::vector<nn::BnAffine> bn;
    /// The first stage: its input is the wafer, which it borders itself.
    bool border_input;
    /// The ring the next stage reads around each pooled plane; 0 for the
    /// last stage, whose output is the image's row of the FC input.
    std::int64_t out_pad;

    /// Writes the image's pooled activations to `pooled`, bordered by
    /// out_pad with zeros.
    void run(const float* image, const Scratch& s, float* pooled) const;
  };
  /// An int8 layer's weights, packed at load as B panels, and epilogue
  /// constants.
  struct Int8Layer {
    I8PackedPanels weights;
    std::vector<float> scales;
    std::vector<std::int32_t> row_sums;
    std::vector<float> bias;
    bool relu;

    /// The epilogue, short of the activation parameters.
    I8Epilogue epilogue() const;
  };
  /// One quantized conv [+ fused ReLU] -> 2x2 max-pool block, channels-last.
  struct Int8Conv : Int8Layer {
    ConvGeometry geom;
    /// Pool into (OC, H / 2, W / 2) planes: the last stage's, whose output
    /// the FC reads in the layer path's flatten order.
    bool planar;

    /// Pools the (H, W, C) `image` into (H / 2, W / 2, OC) `pooled`, or
    /// into planes when `planar`.
    void run(const float* image, const Scratch& s, float* pooled) const;
  };
  using ConvStage = std::variant<Fp32Conv, Int8Conv>;

  /// One linear layer [+ ReLU] over the batch: y (n x out) from x (n x in).
  struct Fp32Dense {
    PackedPanels weights;
    std::vector<float> bias;
    bool relu;

    void run(std::int64_t n, const float* x, float* y) const;
  };
  struct Int8Dense : Int8Layer {
    void run(std::int64_t n, const float* x, float* y) const;
  };
  using DenseStage = std::variant<Fp32Dense, Int8Dense>;

  /// Sizes the per-thread scratch once the stages are built.
  void size_scratch();

  SelectiveNetOptions opts_;
  bool quantized_ = false;
  std::array<ConvStage, 3> convs_;
  DenseStage fc_;
  DenseStage head_f_;
  DenseStage head_g_;
  // Per-thread scratch: the largest conv output, an fp32 plan's bordered
  // wafer and the pooled inputs of conv2 and conv3 (bordered in fp32), in
  // floats; the largest bordered int8 input and its slack, in bytes.
  std::int64_t conv_scratch_ = 0;
  std::int64_t frame_ = 0;
  std::int64_t in2_ = 0;
  std::int64_t in3_ = 0;
  std::int64_t bordered_scratch_ = 0;
};

}  // namespace wm::selective
