// Linear chain of modules.
#pragma once

#include <memory>
#include <vector>

#include "nn/module.hpp"

namespace wm::nn {

class Sequential final : public Module {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining.
  Sequential& add(ModulePtr layer);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Backward through every layer, the first one by its backward_params.
  void backward_params(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::vector<Tensor*> buffers() override;
  std::string name() const override;
  void release_caches() override;

  std::size_t size() const { return layers_.size(); }
  Module& layer(std::size_t i);

 private:
  std::vector<ModulePtr> layers_;
};

/// Convenience factory: make_layer<Conv2d>(opts, rng).
template <typename T, typename... Args>
ModulePtr make_layer(Args&&... args) {
  return std::make_unique<T>(std::forward<Args>(args)...);
}

}  // namespace wm::nn
