// The paper's selective CNN (Table I + Fig 2).
//
// Trunk (shared "main body blocks"):
//   Conv 5x5 x64 -> ReLU -> MaxPool 2x2
//   Conv 3x3 x32 -> ReLU -> MaxPool 2x2
//   Conv 3x3 x32 -> ReLU -> MaxPool 2x2
//   Flatten -> FC 256 -> ReLU
// Each conv block (with its optional BatchNorm) is one nn::ConvStage.
// Heads (departing after the main blocks):
//   prediction head f: FC(256 -> n_c) logits
//   selection head g:  FC(256 -> 1) -> sigmoid
#pragma once

#include <memory>
#include <vector>

#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace wm {
class Rng;
}

namespace wm::selective {

struct SelectiveNetOptions {
  int map_size = 32;
  int num_classes = 9;
  /// Table I values; exposed so tests can shrink the net.
  int conv1_filters = 64;
  int conv2_filters = 32;
  int conv3_filters = 32;
  int fc_units = 256;
  /// Adds BatchNorm after each conv. Not part of the paper's Table I; the
  /// experiment harness enables it to converge within the reduced epoch
  /// budget of this reproduction (see DESIGN.md §1).
  bool use_batchnorm = false;
};

/// Output of one forward pass.
struct SelectiveOutput {
  Tensor logits;  // (N, n_c)
  Tensor g;       // (N, 1) selection probabilities in (0, 1)
};

class SelectiveNet {
 public:
  SelectiveNet(const SelectiveNetOptions& opts, Rng& rng);

  /// Forward through trunk and both heads.
  SelectiveOutput forward(const Tensor& images, bool training);

  /// Backward given the loss gradients of both heads (from SelectiveLoss).
  /// Head gradients merge at the trunk output.
  void backward(const Tensor& grad_logits, const Tensor& grad_g);

  /// Zeroes all gradients.
  void zero_grad();

  /// Frees every layer's training caches (nn::Module::release_caches).
  void release_caches();

  std::vector<nn::Parameter*> parameters();

  /// Persistent non-parameter state (BatchNorm running statistics).
  std::vector<Tensor*> buffers();

  /// Deep copy: same architecture, parameter values, and buffer state
  /// (BatchNorm running statistics). The drift-adaptation path fine-tunes a
  /// clone so the incumbent keeps serving unchanged until the candidate
  /// passes canary verification.
  std::unique_ptr<SelectiveNet> clone() const;

  const SelectiveNetOptions& options() const { return opts_; }

  /// Number of learnable scalars (for reporting).
  std::int64_t parameter_count();

 private:
  SelectiveNetOptions opts_;
  nn::Sequential trunk_;
  nn::Sequential head_f_;
  nn::Sequential head_g_;
};

}  // namespace wm::selective
