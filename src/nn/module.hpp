// Base abstractions of the NN framework.
//
// The framework is a layer-graph with explicit forward/backward calls (no
// tape autograd): each Module caches what it needs during forward and
// returns the input gradient from backward. This is sufficient for the
// paper's feed-forward CNNs and keeps every gradient auditable in tests.
//
// Batch layouts: convolutional modules take (N, C, H, W); dense modules take
// (N, F). Flatten converts between the two.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace wm::nn {

/// A learnable tensor and its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}
};

/// A differentiable layer.
class Module {
 public:
  virtual ~Module() = default;

  /// Computes the output for a batch. `training` toggles train-only
  /// behaviour (batch statistics, backward caches). Implementations cache
  /// activations for backward.
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Propagates the loss gradient: accumulates into parameter grads and
  /// returns d(loss)/d(input). Must be called after a matching forward.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// backward() for a caller that discards d(loss)/d(input): a net's first
  /// layer, whose input is the image batch. Accumulates the parameter
  /// gradients only; layers whose input gradient costs work skip it.
  virtual void backward_params(const Tensor& grad_output) {
    backward(grad_output);
  }

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Non-learnable persistent state (e.g. BatchNorm running statistics)
  /// that checkpoints must carry alongside the parameters.
  virtual std::vector<Tensor*> buffers() { return {}; }

  /// Human-readable layer name for checkpoints and error messages.
  virtual std::string name() const = 0;

  /// Frees what the last training forward and backward kept for the next
  /// backward (inputs, outputs, indices, reused scratch). A trainer calls it
  /// when it returns, so a trained net holds its weights and little else;
  /// the next training forward keeps them again.
  virtual void release_caches() {}

  /// Zeroes all parameter gradients.
  void zero_grad() {
    for (Parameter* p : parameters()) p->grad.fill(0.0f);
  }

  /// Convenience inference-mode forward.
  Tensor infer(const Tensor& input) { return forward(input, /*training=*/false); }
};

using ModulePtr = std::unique_ptr<Module>;

/// Collects parameters from several modules into one flat list.
std::vector<Parameter*> collect_parameters(
    const std::vector<Module*>& modules);

/// Total number of learnable scalars across parameters.
std::int64_t parameter_count(const std::vector<Parameter*>& params);

}  // namespace wm::nn
