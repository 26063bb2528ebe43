// Weight initialization schemes.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace wm {
class Rng;
}

namespace wm::nn {

/// He (Kaiming) normal: N(0, sqrt(2 / fan_in)); suited to ReLU stacks.
void he_normal(Tensor& w, std::int64_t fan_in, Rng& rng);

}  // namespace wm::nn
