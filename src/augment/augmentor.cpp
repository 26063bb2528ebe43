#include "augment/augmentor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "wafermap/transforms.hpp"

namespace wm::augment {

namespace {

/// Standard deviation of all latent activations (noise scale reference).
float latent_std(const Tensor& z) {
  const std::int64_t n = z.numel();
  if (n == 0) return 0.0f;
  double mean = 0.0;
  for (std::int64_t i = 0; i < n; ++i) mean += z[i];
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (std::int64_t i = 0; i < n; ++i) var += (z[i] - mean) * (z[i] - mean);
  return static_cast<float>(std::sqrt(var / static_cast<double>(n)));
}

}  // namespace

Augmentor::Augmentor(const AugmentOptions& opts) : opts_(opts) {
  WM_CHECK(opts.target_per_class > 0, "target_per_class must be positive");
  WM_CHECK(opts.sigma0 >= 0.0, "sigma0 must be non-negative");
  WM_CHECK(opts.sp_flips >= 0, "sp_flips must be non-negative");
  WM_CHECK(opts.synthetic_weight > 0.0f && opts.synthetic_weight <= 1.0f,
           "synthetic weight must be in (0,1]");
  WM_CHECK(opts.max_rotations_per_sample > 0, "bad rotation cap");
}

Dataset Augmentor::augment_class(const Dataset& class_samples, Rng& rng) const {
  WM_CHECK(!class_samples.empty(), "augment_class on empty class");
  const DefectType label = class_samples[0].label;
  for (std::size_t i = 0; i < class_samples.size(); ++i) {
    WM_CHECK(class_samples[i].label == label,
             "augment_class expects a single-class dataset");
  }
  const int n_cl = static_cast<int>(class_samples.size());
  // Algorithm 1 line 1: n_r = ceil(T / n_cl) - 1.
  int n_r = (opts_.target_per_class + n_cl - 1) / n_cl - 1;
  n_r = std::min(n_r, opts_.max_rotations_per_sample);
  Dataset omega;
  if (n_r <= 0) return omega;  // class already meets the target

  // Line 1: train the class CAE.
  CaeOptions cae_opts = opts_.cae;
  cae_opts.map_size = class_samples.map_size();
  ConvAutoencoder cae(cae_opts, rng);
  train_cae(cae, class_samples, opts_.cae_training, rng);

  omega.reserve(static_cast<std::size_t>(n_cl) * static_cast<std::size_t>(n_r));
  for (int s = 0; s < n_cl; ++s) {
    // Line 3: latent representation of the original image.
    const WaferMap& original = class_samples[static_cast<std::size_t>(s)].map;
    const int original_fails = original.fail_count();
    const Tensor img = original.to_tensor().reshape(
        Shape{1, 1, cae_opts.map_size, cae_opts.map_size});
    const Tensor z = cae.encode(img);
    const float noise_std =
        static_cast<float>(opts_.sigma0) * std::max(latent_std(z), 1e-3f);
    for (int i = 0; i < n_r; ++i) {
      // Line 5: perturb the latent code.
      Tensor zp = z;
      for (std::int64_t k = 0; k < zp.numel(); ++k) {
        zp[k] += static_cast<float>(rng.normal(0.0, noise_std));
      }
      // Lines 6-7: decode and quantise to the 3 pixel levels. The threshold
      // is density-matched to the source wafer so imperfect decoders keep
      // the class' failure mass instead of collapsing to an all-pass map.
      const Tensor decoded = cae.decode(zp);
      WaferMap synth = quantize_matching_density(
          decoded.reshape(Shape{1, cae_opts.map_size, cae_opts.map_size}),
          original_fails);
      // Line 8: rotate by i * 360 / n_r.
      const double angle = 360.0 * static_cast<double>(i) / n_r;
      synth = rotate(synth, angle);
      // Line 9: salt-and-pepper die flips.
      synth = salt_and_pepper(synth, opts_.sp_flips, rng);
      omega.add(Sample{.map = std::move(synth),
                       .label = label,
                       .weight = opts_.synthetic_weight,
                       .synthetic = true});
    }
  }
  return omega;
}

Dataset Augmentor::augment_dataset(const Dataset& training, Rng& rng) const {
  Dataset merged = training;
  std::vector<Dataset> classes;
  for (DefectType type : all_defect_types()) {
    if (type == DefectType::kNone) continue;  // paper augments defects only
    Dataset cls = training.filter(type);
    if (cls.empty()) continue;
    if (static_cast<int>(cls.size()) >= opts_.target_per_class) continue;
    log_info("augmenting ", to_string(type), ": ", cls.size(), " -> target ",
             opts_.target_per_class);
    classes.push_back(std::move(cls));
  }
  if (classes.empty()) return merged;

  // Each class trains its own CAE and synthesises from its own rng, forked
  // in class order, and the results are appended in class order. So the
  // output depends on the seed only: the pool runs the classes concurrently,
  // or inline at one thread, and every class draws the same stream either
  // way.
  std::vector<Rng> rngs;
  rngs.reserve(classes.size());
  for (std::size_t i = 0; i < classes.size(); ++i) rngs.push_back(rng.fork());
  std::vector<Dataset> results(classes.size());
  ThreadPool::global().parallel_for(0, classes.size(), [&](std::size_t i) {
    results[i] = augment_class(classes[i], rngs[i]);
  });
  for (Dataset& r : results) merged.append(std::move(r));
  return merged;
}

}  // namespace wm::augment
