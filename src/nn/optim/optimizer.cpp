#include "nn/optim/optimizer.hpp"

#include <cmath>

#include "common/error.hpp"

namespace wm::nn {

Optimizer::Optimizer(std::vector<Parameter*> params) : params_(std::move(params)) {
  for (const Parameter* p : params_) WM_CHECK(p != nullptr, "null parameter");
}

void Optimizer::zero_grad() {
  for (Parameter* p : params_) p->grad.fill(0.0f);
}

Adam::Adam(std::vector<Parameter*> params, const AdamOptions& opts)
    : Optimizer(std::move(params)), opts_(opts) {
  WM_CHECK(opts.lr > 0.0, "learning rate must be positive");
  WM_CHECK(opts.beta1 >= 0.0 && opts.beta1 < 1.0, "bad beta1");
  WM_CHECK(opts.beta2 >= 0.0 && opts.beta2 < 1.0, "bad beta2");
  WM_CHECK(opts.eps > 0.0, "bad eps");
  WM_CHECK(opts.weight_decay >= 0.0, "bad weight decay");
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Parameter* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++t_;
  const float lr = static_cast<float>(opts_.lr);
  const float b1 = static_cast<float>(opts_.beta1);
  const float b2 = static_cast<float>(opts_.beta2);
  const float eps = static_cast<float>(opts_.eps);
  const float wd = static_cast<float>(opts_.weight_decay);
  const float bc1 = 1.0f - std::pow(b1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(b2, static_cast<float>(t_));
  for (std::size_t pi = 0; pi < params_.size(); ++pi) {
    Parameter& p = *params_[pi];
    float* w = p.value.data();
    const float* g = p.grad.data();
    float* m = m_[pi].data();
    float* v = v_[pi].data();
    const std::int64_t n = p.value.numel();
    for (std::int64_t i = 0; i < n; ++i) {
      const float grad = g[i] + wd * w[i];
      m[i] = b1 * m[i] + (1.0f - b1) * grad;
      v[i] = b2 * v[i] + (1.0f - b2) * grad * grad;
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      w[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
}

}  // namespace wm::nn
