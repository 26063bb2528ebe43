// Convolutional auto-encoder (paper Fig 3).
//
// Encoder: stacked [Conv 5x5 -> ReLU -> MaxPool 2x2] blocks; the bottleneck
// activation is the latent representation z. Decoder mirrors the encoder
// with [Upsample 2x -> Deconv 5x5 -> ReLU] blocks and a final sigmoid so
// reconstructions live in [0, 1] like the normalised wafer pixels.
#pragma once

#include <memory>
#include <vector>

#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace wm {
class Rng;
}

namespace wm::augment {

struct CaeOptions {
  int map_size = 32;
  /// Output channels of each encoder stage (decoder mirrors this).
  std::vector<int> encoder_filters = {16, 8, 8};
  int kernel = 5;
};

class ConvAutoencoder {
 public:
  ConvAutoencoder(const CaeOptions& opts, Rng& rng);

  /// (N,1,S,S) images -> (N, C_z, S_z, S_z) latent activations.
  Tensor encode(const Tensor& images, bool training = false);

  /// Latent activations -> (N,1,S,S) reconstructions in [0,1].
  Tensor decode(const Tensor& latent, bool training = false);

  /// decode(encode(x)).
  Tensor reconstruct(const Tensor& images, bool training = false);

  /// One training step on a batch: forward, MSE against the input,
  /// backward through both halves. Returns the batch loss. The caller owns
  /// the optimizer (built over parameters()).
  float training_step(const Tensor& images);

  std::vector<nn::Parameter*> parameters();

  /// Frees both halves' training caches (nn::Module::release_caches).
  void release_caches();

  /// Shape of one latent sample (C_z, S_z, S_z).
  Shape latent_shape() const;

  const CaeOptions& options() const { return opts_; }

 private:
  CaeOptions opts_;
  nn::Sequential encoder_;
  nn::Sequential decoder_;
};

}  // namespace wm::augment
