// Quantized inference sibling of SelectiveNet: the same trunk + two heads
// architecture with every conv and linear layer replaced by its int8
// counterpart (nn/quant). BatchNorm, when the source net has it, is folded
// into the preceding conv before quantization, and each ReLU is fused into
// the epilogue of the layer before it, so the quantized forward is just
//
//   [qconv+relu -> pool] x3 -> flatten -> qfc+relu -> {qhead_f, qhead_g+sigmoid}
//
// Inference only — there is no backward and no training path. Produced by
// quantize_selective_net() from a trained fp32 net, or reconstructed from a
// WSN2 model file (model_file.hpp).
#pragma once

#include "nn/quant/quant_layers.hpp"
#include "selective/selective_net.hpp"

namespace wm::selective {

class QuantizedSelectiveNet {
 public:
  /// Assembles the net from already-quantized layers (the model-file load
  /// path and the tail of quantize_selective_net). Layer shapes must match
  /// the options; checked.
  QuantizedSelectiveNet(const SelectiveNetOptions& opts,
                        nn::quant::QuantConv2d conv1,
                        nn::quant::QuantConv2d conv2,
                        nn::quant::QuantConv2d conv3,
                        nn::quant::QuantLinear fc,
                        nn::quant::QuantLinear head_f,
                        nn::quant::QuantLinear head_g);

  /// Eval-mode forward over (N, 1, map_size, map_size) images. Const and
  /// reentrant: all scratch is call-local, so one net may serve concurrent
  /// callers — the same contract as the fp32 InferencePlan::infer.
  SelectiveOutput infer(const Tensor& images) const;

  const SelectiveNetOptions& options() const { return opts_; }

  // Layer accessors for serialization (model_file.cpp).
  const nn::quant::QuantConv2d& conv1() const { return conv1_; }
  const nn::quant::QuantConv2d& conv2() const { return conv2_; }
  const nn::quant::QuantConv2d& conv3() const { return conv3_; }
  const nn::quant::QuantLinear& fc() const { return fc_; }
  const nn::quant::QuantLinear& head_f() const { return head_f_; }
  const nn::quant::QuantLinear& head_g() const { return head_g_; }

 private:
  SelectiveNetOptions opts_;
  nn::quant::QuantConv2d conv1_;
  nn::quant::QuantConv2d conv2_;
  nn::quant::QuantConv2d conv3_;
  nn::quant::QuantLinear fc_;
  nn::quant::QuantLinear head_f_;
  nn::quant::QuantLinear head_g_;
};

/// Quantizes a trained fp32 net: walks its parameters in construction order,
/// folds BatchNorm (when present) into the conv weights/biases, quantizes
/// every weight matrix per-output-channel and fuses the trunk ReLUs.
/// Non-const because SelectiveNet::parameters() is non-const; the net is not
/// modified.
QuantizedSelectiveNet quantize_selective_net(SelectiveNet& net);

}  // namespace wm::selective
