#include "augment/cae.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/layers/activations.hpp"
#include "nn/layers/conv_stage.hpp"
#include "nn/layers/conv_transpose2d.hpp"
#include "nn/layers/upsample2d.hpp"
#include "nn/loss/mse.hpp"

namespace wm::augment {

ConvAutoencoder::ConvAutoencoder(const CaeOptions& opts, Rng& rng) : opts_(opts) {
  WM_CHECK(!opts.encoder_filters.empty(), "CAE needs at least one stage");
  WM_CHECK(opts.kernel % 2 == 1, "CAE kernel must be odd for 'same' padding");
  const int stages = static_cast<int>(opts.encoder_filters.size());
  int spatial = opts.map_size;
  for (int s = 0; s < stages; ++s) {
    WM_CHECK(spatial % 2 == 0, "map size ", opts.map_size,
             " not divisible by 2^stages");
    spatial /= 2;
  }
  WM_CHECK(spatial >= 2, "too many stages for map size ", opts.map_size);

  const std::int64_t pad = opts.kernel / 2;
  // Encoder: Conv -> ReLU -> Pool per stage, each one nn::ConvStage.
  int in_ch = 1;
  for (int s = 0; s < stages; ++s) {
    const int out_ch = opts.encoder_filters[static_cast<std::size_t>(s)];
    WM_CHECK(out_ch > 0, "bad encoder filter count");
    encoder_.add(nn::make_layer<nn::ConvStage>(
        nn::ConvStageOptions{.in_channels = in_ch, .out_channels = out_ch,
                             .kernel = opts.kernel, .pad = pad},
        rng));
    in_ch = out_ch;
  }
  // Decoder: Upsample -> Deconv -> activation per stage, mirrored filters.
  for (int s = stages - 1; s >= 0; --s) {
    const int out_ch =
        s > 0 ? opts.encoder_filters[static_cast<std::size_t>(s - 1)] : 1;
    decoder_.add(nn::make_layer<nn::Upsample2d>(2));
    decoder_.add(nn::make_layer<nn::ConvTranspose2d>(
        nn::ConvTranspose2dOptions{.in_channels = in_ch, .out_channels = out_ch,
                                   .kernel = opts.kernel, .stride = 1,
                                   .pad = pad},
        rng));
    if (s > 0) {
      decoder_.add(nn::make_layer<nn::ReLU>());
    } else {
      decoder_.add(nn::make_layer<nn::Sigmoid>());
    }
    in_ch = out_ch;
  }
}

Tensor ConvAutoencoder::encode(const Tensor& images, bool training) {
  WM_CHECK_SHAPE(images.rank() == 4 && images.dim(1) == 1 &&
                     images.dim(2) == opts_.map_size &&
                     images.dim(3) == opts_.map_size,
                 "CAE expects (N,1,", opts_.map_size, ",", opts_.map_size,
                 "), got ", images.shape().to_string());
  return encoder_.forward(images, training);
}

Tensor ConvAutoencoder::decode(const Tensor& latent, bool training) {
  return decoder_.forward(latent, training);
}

Tensor ConvAutoencoder::reconstruct(const Tensor& images, bool training) {
  return decode(encode(images, training), training);
}

float ConvAutoencoder::training_step(const Tensor& images) {
  const Tensor recon = reconstruct(images, /*training=*/true);
  const auto loss = nn::MseLoss::compute(recon, images);
  // The encoder's input is the image batch: its gradient is never used.
  encoder_.backward_params(decoder_.backward(loss.grad));
  return loss.value;
}

std::vector<nn::Parameter*> ConvAutoencoder::parameters() {
  return nn::collect_parameters({&encoder_, &decoder_});
}

void ConvAutoencoder::release_caches() {
  encoder_.release_caches();
  decoder_.release_caches();
}

Shape ConvAutoencoder::latent_shape() const {
  const int stages = static_cast<int>(opts_.encoder_filters.size());
  const std::int64_t spatial = opts_.map_size >> stages;
  return Shape{opts_.encoder_filters.back(), spatial, spatial};
}

}  // namespace wm::augment
