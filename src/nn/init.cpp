#include "nn/init.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace wm::nn {

void he_normal(Tensor& w, std::int64_t fan_in, Rng& rng) {
  WM_CHECK(fan_in > 0, "he_normal needs positive fan_in");
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  float* p = w.data();
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    p[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
}

}  // namespace wm::nn
