// Data augmentation for under-represented classes (paper Algorithm 1 and
// Section III-B).
//
// For each minority class: train a CAE on the class' samples, then for each
// original sample produce n_r = ceil(T / n_cl) - 1 synthetic wafers by
//   z' = encode(img) + N(0, sigma0^2)         (latent perturbation)
//   img' = quantize(decode(z'))               (3-level mapping)
//   img' = rotate(img', i * 360 / n_r)        (rotation sweep)
//   img' = salt_and_pepper(img')              (die-label flips)
// Synthetic samples carry weight w < 1 so original-sample mistakes cost 1/w
// times more during training.
#pragma once

#include "augment/cae.hpp"
#include "augment/cae_trainer.hpp"
#include "wafermap/dataset.hpp"

namespace wm::augment {

struct AugmentOptions {
  /// Target minimum sample count per class (paper: T = 8000).
  int target_per_class = 8000;
  /// Latent Gaussian noise as a fraction of the latent activations' std.
  double sigma0 = 0.2;
  /// Number of salt-and-pepper die flips per synthetic wafer.
  int sp_flips = 4;
  /// Loss weight of synthetic samples (paper: w < 1).
  float synthetic_weight = 0.5f;
  /// Safety cap on rotations per original sample (bounds run time when a
  /// class is extremely rare relative to T).
  int max_rotations_per_sample = 256;

  CaeOptions cae{};
  CaeTrainerOptions cae_training{};
};

class Augmentor {
 public:
  explicit Augmentor(const AugmentOptions& opts);

  /// Algorithm 1 for one class: trains a fresh CAE on `class_samples`
  /// (must all share one label) and returns the synthetic set Omega.
  Dataset augment_class(const Dataset& class_samples, Rng& rng) const;

  /// Applies augment_class to every *defect* class (None is left alone, as
  /// in the paper) whose count is below target_per_class and returns the
  /// merged training set (originals + synthetics).
  Dataset augment_dataset(const Dataset& training, Rng& rng) const;

  const AugmentOptions& options() const { return opts_; }

 private:
  AugmentOptions opts_;
};

}  // namespace wm::augment
