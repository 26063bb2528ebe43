#include "nn/layers/batchnorm2d.hpp"

#include <sstream>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "common/threadpool.hpp"

namespace wm::nn {

namespace {

constexpr int kLanes = 16;

/// Adds term(s) for s in [0, n) into lane s % kLanes and folds the lanes.
template <typename Term>
double lane_sum(std::int64_t n, const Term& term) {
  double lane[kLanes] = {};
  std::int64_t s = 0;
  for (; s + kLanes <= n; s += kLanes) {
    for (int l = 0; l < kLanes; ++l) lane[l] += term(s + l);
  }
  for (int l = 0; s + l < n; ++l) lane[l] += term(s + l);
  for (int width = kLanes / 2; width > 0; width /= 2) {
    for (int l = 0; l < width; ++l) lane[l] += lane[l + width];
  }
  return lane[0];
}

}  // namespace

double plane_sum(const float* x, std::int64_t n) {
  return lane_sum(n, [&](std::int64_t s) { return static_cast<double>(x[s]); });
}

double plane_squared_deviations(const float* x, std::int64_t n, float mean) {
  return lane_sum(n, [&](std::int64_t s) {
    const double d = x[s] - mean;
    return d * d;
  });
}

double plane_products(const float* x, const float* y, std::int64_t n) {
  return lane_sum(n, [&](std::int64_t s) {
    return static_cast<double>(x[s]) * static_cast<double>(y[s]);
  });
}

BatchNorm2d::BatchNorm2d(const BatchNorm2dOptions& opts)
    : opts_(opts),
      gamma_("bn.gamma", Tensor::ones(Shape{opts.channels})),
      beta_("bn.beta", Tensor(Shape{opts.channels})),
      running_mean_(Shape{opts.channels}),
      running_var_(Tensor::ones(Shape{opts.channels})) {
  WM_CHECK(opts.channels > 0, "BatchNorm2d needs positive channel count");
  WM_CHECK(opts.eps > 0.0, "BatchNorm2d eps must be positive");
  WM_CHECK(opts.momentum > 0.0 && opts.momentum <= 1.0, "bad momentum");
}

Tensor BatchNorm2d::forward(const Tensor& input, bool training) {
  WM_TRACE_SCOPE("batchnorm2d.fwd");
  WM_COUNTER_INC("wm_nn_batchnorm2d_forward_total", "BatchNorm2d forward passes");
  WM_CHECK_SHAPE(input.rank() == 4 && input.dim(1) == opts_.channels,
                 "BatchNorm2d expects (N,", opts_.channels, ",H,W), got ",
                 input.shape().to_string());
  const std::int64_t n = input.dim(0);
  const std::int64_t c = input.dim(1);
  const std::int64_t spatial = input.dim(2) * input.dim(3);
  const std::int64_t per_channel = n * spatial;
  WM_CHECK(per_channel > 0, "empty batch");

  Tensor out(input.shape());
  if (training) {
    normalized_ = Tensor(input.shape());
    inv_std_.assign(static_cast<std::size_t>(c), 0.0f);
    trained_forward_ = true;
  }

  // Channels are fully independent (stats, running buffers and output strides
  // are all per-channel), so fanning out across channels is bit-identical to
  // the serial loop for any thread count.
  ThreadPool::global().parallel_for(0, static_cast<std::size_t>(c),
                                    [&](std::size_t chv) {
    const std::int64_t ch = static_cast<std::int64_t>(chv);
    float mean;
    float var;
    if (training) {
      double sum = 0.0;
      for (std::int64_t i = 0; i < n; ++i) {
        sum += plane_sum(input.data() + (i * c + ch) * spatial, spatial);
      }
      mean = static_cast<float>(sum / static_cast<double>(per_channel));
      double squares = 0.0;
      for (std::int64_t i = 0; i < n; ++i) {
        squares += plane_squared_deviations(
            input.data() + (i * c + ch) * spatial, spatial, mean);
      }
      var = static_cast<float>(squares / static_cast<double>(per_channel));
      const float m = static_cast<float>(opts_.momentum);
      running_mean_[ch] = (1.0f - m) * running_mean_[ch] + m * mean;
      running_var_[ch] = (1.0f - m) * running_var_[ch] + m * var;
    } else {
      mean = running_mean_[ch];
      var = running_var_[ch];
    }
    const float inv_std = bn_inv_std(var, opts_.eps);
    if (training) inv_std_[static_cast<std::size_t>(ch)] = inv_std;
    const float g = gamma_.value[ch];
    const float b = beta_.value[ch];
    for (std::int64_t i = 0; i < n; ++i) {
      const float* p = input.data() + (i * c + ch) * spatial;
      float* o = out.data() + (i * c + ch) * spatial;
      float* xh = training ? normalized_.data() + (i * c + ch) * spatial : nullptr;
      for (std::int64_t s = 0; s < spatial; ++s) {
        const float norm = (p[s] - mean) * inv_std;
        if (xh != nullptr) xh[s] = norm;
        o[s] = g * norm + b;
      }
    }
  });
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  WM_TRACE_SCOPE("batchnorm2d.bwd");
  WM_COUNTER_INC("wm_nn_batchnorm2d_backward_total", "BatchNorm2d backward passes");
  WM_CHECK(trained_forward_, "BatchNorm2d backward without training forward");
  WM_CHECK_SHAPE(grad_output.same_shape(normalized_),
                 "BatchNorm2d backward shape mismatch");
  const std::int64_t n = grad_output.dim(0);
  const std::int64_t c = grad_output.dim(1);
  const std::int64_t spatial = grad_output.dim(2) * grad_output.dim(3);
  const std::int64_t per_channel = n * spatial;

  Tensor grad_input(grad_output.shape());
  // Same per-channel independence as forward: dgamma/dbeta/grad_input writes
  // touch only this channel's slots.
  ThreadPool::global().parallel_for(0, static_cast<std::size_t>(c),
                                    [&](std::size_t chv) {
    const std::int64_t ch = static_cast<std::int64_t>(chv);
    // Accumulate dgamma, dbeta and the two reduction terms of the
    // batch-norm backward formula.
    double sum_dy = 0.0;
    double sum_dy_xh = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const float* dy = grad_output.data() + (i * c + ch) * spatial;
      const float* xh = normalized_.data() + (i * c + ch) * spatial;
      sum_dy += plane_sum(dy, spatial);
      sum_dy_xh += plane_products(dy, xh, spatial);
    }
    gamma_.grad[ch] += static_cast<float>(sum_dy_xh);
    beta_.grad[ch] += static_cast<float>(sum_dy);

    const float g = gamma_.value[ch];
    const float inv_std = inv_std_[static_cast<std::size_t>(ch)];
    const float k = g * inv_std / static_cast<float>(per_channel);
    const float mean_dy = static_cast<float>(sum_dy);
    const float mean_dy_xh = static_cast<float>(sum_dy_xh);
    for (std::int64_t i = 0; i < n; ++i) {
      const float* dy = grad_output.data() + (i * c + ch) * spatial;
      const float* xh = normalized_.data() + (i * c + ch) * spatial;
      float* dx = grad_input.data() + (i * c + ch) * spatial;
      for (std::int64_t s = 0; s < spatial; ++s) {
        dx[s] = k * (static_cast<float>(per_channel) * dy[s] - mean_dy -
                     xh[s] * mean_dy_xh);
      }
    }
  });
  return grad_input;
}

std::string BatchNorm2d::name() const {
  std::ostringstream os;
  os << "BatchNorm2d(" << opts_.channels << ")";
  return os.str();
}

void BatchNorm2d::release_caches() {
  normalized_ = Tensor();
  inv_std_ = std::vector<float>();
  trained_forward_ = false;
}

}  // namespace wm::nn
