// Training loop for the selective CNN (Section IV-C setup).
//
// When options.target_coverage == 1 the model is trained with the plain
// cross-entropy loss only (the paper's full-coverage baseline); otherwise it
// optimises the SelectiveNet objective of Eqs. 8-9 on both heads.
#pragma once

#include <optional>
#include <vector>

#include "nn/loss/selective_loss.hpp"
#include "selective/selective_net.hpp"
#include "wafermap/dataset.hpp"

namespace wm::obs {
class RunLog;
}

namespace wm::selective {

struct TrainerOptions {
  int epochs = 20;
  int batch_size = 64;
  double learning_rate = 2e-3;  // Adam, as in the paper
  double target_coverage = 0.5; // c0; 1.0 => cross-entropy only
  /// Coverage-constraint weight. The paper quotes 0.5 (Section IV-C), but at
  /// this reproduction's reduced scale that leaves the constraint inert and
  /// coverage drifts to 0 or 1 on training noise; a stronger weight keeps
  /// the constraint active without fully saturating the sigmoid (the
  /// SelectiveNet paper uses 32). Default 4; WM_LAMBDA overrides in the
  /// experiment harness.
  double lambda = 4.0;
  double alpha = 0.5;           // paper Section IV-C
  /// Stop early when training loss improves less than this for `patience`
  /// consecutive epochs (0 disables).
  double min_improvement = 0.0;
  int patience = 0;
  /// Exponential learning-rate decay: the final epoch runs at
  /// learning_rate * final_lr_fraction (1.0 disables).
  double final_lr_fraction = 1.0;
  /// Restore the parameters of the best validation epoch after training
  /// (needs a validation set; ignored otherwise).
  bool keep_best = false;
  /// JSONL sink for per-epoch stats and learning-phase boundaries. Defaults
  /// to obs::run_log_global() (disabled unless WM_RUN_LOG is set). The same
  /// quantities are also published as wm_train_* metrics in
  /// obs::Registry::global() regardless of this setting.
  obs::RunLog* run_log = nullptr;
};

struct EpochStats {
  float loss = 0.0f;
  float coverage = 0.0f;        // training-batch mean coverage (1.0 for CE mode)
  float selective_risk = 0.0f;
  std::optional<float> val_accuracy;  // plain argmax accuracy on the val set
};

struct TrainingLog {
  std::vector<EpochStats> epochs;
  double wall_seconds = 0.0;

  const EpochStats& final_epoch() const;
};

class SelectiveTrainer {
 public:
  explicit SelectiveTrainer(const TrainerOptions& opts);

  /// Trains the net in place. `validation` (optional) is evaluated with
  /// full-coverage argmax accuracy after each epoch. Returns with the net's
  /// training caches freed (SelectiveNet::release_caches), so the trained
  /// net holds its weights and little else.
  TrainingLog train(SelectiveNet& net, const Dataset& training,
                    const Dataset* validation, Rng& rng) const;

  /// Incremental fit: continues training an already-trained net on a small
  /// recent-sample set — the drift-adaptation stage-2 path. Same loop as
  /// train() (use few epochs and a reduced learning rate in the options to
  /// nudge rather than re-learn), bracketed by fine_tune_begin/fine_tune_end
  /// run-log events so adaptation-driven updates are distinguishable from
  /// offline training in the run history.
  TrainingLog fine_tune(SelectiveNet& net, const Dataset& recent,
                        Rng& rng) const;

  const TrainerOptions& options() const { return opts_; }

 private:
  TrainerOptions opts_;
};

/// Full-coverage argmax accuracy of the prediction head on a dataset.
double argmax_accuracy(SelectiveNet& net, const Dataset& data,
                       int eval_batch = 256);

}  // namespace wm::selective
