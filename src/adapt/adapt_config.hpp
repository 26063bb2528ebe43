// adapt::AdaptConfig — the settings of the closed-loop drift-adaptation
// controller in one plain struct. Each field carries its default and is set
// by code or by its `wm_tool serve --adapt-*` flag, which range-checks the
// value; nothing reads the environment. The rollback backoff ceiling
// (60 s) and the controller's RNG seed (17) are fixed.
#pragma once

#include <cstddef>
#include <cstdint>

namespace wm::adapt {

struct AdaptConfig {
  /// Sliding sample-buffer capacity (wafers kept for re-fit / fine-tune).
  std::size_t buffer_capacity = 1024;
  /// Buffered samples required before the controller acts on an alarm.
  std::size_t min_samples = 64;
  /// Number of most-recent buffered g-scores the stage-1 threshold re-fit
  /// uses (older scores predate the drift).
  std::size_t refit_window = 256;
  /// Rate limit: minimum gap between consecutive adaptation actions.
  std::int64_t cooldown_ms = 5000;
  /// How long the controller waits for the alarm to clear after an action
  /// before escalating (stage 1 -> stage 2) or rolling back (after a
  /// stage-2 swap).
  std::int64_t eval_ms = 2000;
  /// Stage-2 fine-tune epochs.
  int fine_tune_epochs = 4;
  /// Stage-2 fine-tune batch size.
  int fine_tune_batch = 32;
  /// Stage-2 fine-tune learning rate: a fraction of the usual training
  /// rate (nudge, don't re-learn).
  double fine_tune_lr = 5e-4;
  /// Per-class target for CAE augmentation of the fine-tune set (paper
  /// Algorithm 1); 0 disables augmentation.
  int augment_target = 0;
  /// Epochs for the CAEs the adaptation path trains (pseudo-labeler and
  /// augmentor).
  int cae_epochs = 8;
  /// Pseudo-label unlabeled buffered samples via CAE latent nearest-centroid
  /// (arXiv 2311.12840) instead of dropping them.
  bool use_pseudo_labels = true;
  /// Lifetime cap on stage-2 retrains (a runaway-drift fuse; recalibrations
  /// are not capped).
  std::uint32_t max_retrains = 8;
};

}  // namespace wm::adapt
