// Trains one convolutional auto-encoder on the samples of a single class.
#pragma once

#include <vector>

#include "augment/cae.hpp"
#include "wafermap/dataset.hpp"

namespace wm::obs {
class RunLog;
}

namespace wm::augment {

struct CaeTrainerOptions {
  int epochs = 30;
  int batch_size = 32;
  double learning_rate = 2e-3;
  /// JSONL sink for per-epoch MSE and phase boundaries; defaults to
  /// obs::run_log_global(). wm_augment_cae_* metrics are always published
  /// to obs::Registry::global().
  obs::RunLog* run_log = nullptr;
};

struct CaeTrainingLog {
  std::vector<float> epoch_losses;  // mean MSE per epoch

  float final_loss() const {
    return epoch_losses.empty() ? 0.0f : epoch_losses.back();
  }
};

/// Trains `cae` in place with Adam on all samples of `data` (the caller is
/// expected to pass a single-class dataset, per Algorithm 1 line 1), and
/// frees its training caches on return.
CaeTrainingLog train_cae(ConvAutoencoder& cae, const Dataset& data,
                         const CaeTrainerOptions& opts, Rng& rng);

}  // namespace wm::augment
