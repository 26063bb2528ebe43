#include "nn/sequential.hpp"

#include <sstream>

#include "common/error.hpp"

namespace wm::nn {

Sequential& Sequential::add(ModulePtr layer) {
  WM_CHECK(layer != nullptr, "null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& input, bool training) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->forward(x, training);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::backward_params(const Tensor& grad_output) {
  if (layers_.empty()) return;
  Tensor g = grad_output;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    g = layers_[i]->backward(g);
  }
  layers_.front()->backward_params(g);
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::buffers() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* b : layer->buffers()) out.push_back(b);
  }
  return out;
}

Module& Sequential::layer(std::size_t i) {
  WM_CHECK(i < layers_.size(), "layer index ", i, " out of range ",
           layers_.size());
  return *layers_[i];
}

std::string Sequential::name() const {
  std::ostringstream os;
  os << "Sequential[";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i) os << ", ";
    os << layers_[i]->name();
  }
  os << "]";
  return os.str();
}

void Sequential::release_caches() {
  for (auto& l : layers_) l->release_caches();
}

}  // namespace wm::nn
