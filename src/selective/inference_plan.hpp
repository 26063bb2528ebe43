// A SelectiveNet compiled for serving: the f and g of Eq. 2 in eval mode,
// frozen at compile time.
//
// Compiling copies what inference needs out of the net: each conv's filters
// packed once into the GEMM's A panels, the FC and head weights packed once
// into B panels, and per-channel conv bias and BatchNorm constants, with
// inv_std computed exactly as BatchNorm2d's eval forward computes it. The
// plan keeps no reference to the net, so later changes to the net (or its
// destruction) do not reach it.
//
// infer() runs each image through three stages with per-thread scratch,
// fanning images over ThreadPool::global() as Conv2d::forward does:
//
//   sgemm_conv (im2col packed straight into the GEMM panels)
//     -> one pass: + bias -> (x - mean) * inv_std -> gamma * norm + beta
//                  -> ReLU -> 2x2 max into the next stage's input
//
// conv3's pass writes the image's row of the FC input. FC + ReLU, both heads
// and the sigmoid then run once over the batch. BatchNorm is not folded into
// the weights (that changes bits), and every GEMM accumulates in the order of
// the layer it replaces, so logits and g are bit-identical to
// SelectiveNet::forward(images, false) for any thread count and batch
// grouping. infer() is const and reentrant.
#pragma once

#include <array>
#include <vector>

#include "selective/selective_net.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"

namespace wm::selective {

class InferencePlan {
 public:
  /// Compiles the net's current parameters and BatchNorm statistics.
  explicit InferencePlan(const SelectiveNet& net);

  /// Eval-mode forward over (N, 1, map_size, map_size) images.
  SelectiveOutput infer(const Tensor& images) const;

  const SelectiveNetOptions& options() const { return opts_; }

 private:
  /// One conv -> [BatchNorm] -> ReLU -> 2x2 max-pool block.
  struct ConvStage {
    ConvGeometry geom;
    PackedPanels weights;
    std::vector<float> bias;
    // Per-channel BatchNorm constants; empty when the net has no BatchNorm.
    std::vector<float> mean, inv_std, gamma, beta;

    std::int64_t out_size() const { return weights.rows * geom.col_cols(); }
    /// Convolves `image` into `conv` (out_size() floats of scratch, left
    /// clobbered), then writes the pooled activations to `pooled`.
    void run(const float* image, float* conv, float* pooled) const;
  };
  struct Dense {
    PackedPanels weights;
    std::vector<float> bias;
  };

  SelectiveNetOptions opts_;
  std::array<ConvStage, 3> convs_;
  Dense fc_;
  Dense head_f_;
  Dense head_g_;
};

}  // namespace wm::selective
