// Shared experiment harness used by the bench/ binaries.
//
// Centralises the scaled Table II data pipeline (generate -> split ->
// augment) and the model training calls so every table/figure bench runs the
// same way. All sizes scale with WM_BENCH_SCALE (see DESIGN.md §1).
#pragma once

#include <cstdint>
#include <memory>

#include "augment/augmentor.hpp"
#include "selective/selective_net.hpp"
#include "selective/trainer.hpp"
#include "serve/classifier.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm::eval {

struct ExperimentConfig {
  int map_size = 24;
  /// Fraction of the paper's Table II counts to synthesise.
  double data_scale = 0.035;
  /// Augmentation target T, scaled from the paper's 8000 by the same factor.
  int augment_target = 200;
  float synthetic_weight = 0.5f;
  bool augment = true;
  std::uint64_t seed = 2020;

  selective::SelectiveNetOptions net;       // map_size/num_classes overwritten
  selective::TrainerOptions trainer;        // target_coverage set per run
  augment::AugmentOptions augmentation;     // cae/map_size overwritten

  /// Default configuration scaled by WM_BENCH_SCALE (and WM_MAP_SIZE /
  /// WM_EPOCHS / WM_DATA_SCALE overrides for experimentation).
  static ExperimentConfig from_env();
};

/// The three datasets every experiment consumes.
struct ExperimentData {
  Dataset train_raw;  // original (pre-augmentation) training wafers
  Dataset train_aug;  // train_raw + CAE synthetics (== train_raw when off)
  Dataset test;       // untouched originals
};

/// Synthesises the scaled Table II mix, splits, and runs Algorithm 1 on the
/// training half (when config.augment).
ExperimentData prepare_data(const ExperimentConfig& config);

/// Same, but using a caller-supplied class mix for train and test.
ExperimentData prepare_data(const ExperimentConfig& config,
                            const std::array<int, kNumDefectTypes>& train_counts,
                            const std::array<int, kNumDefectTypes>& test_counts);

/// Trains a SelectiveNet at the given target coverage (c0 == 1 -> plain CE).
/// Returns the trained net; `log_out` (optional) receives the training log.
std::unique_ptr<selective::SelectiveNet> train_selective_model(
    const ExperimentConfig& config, const Dataset& training, double c0,
    Rng& rng, selective::TrainingLog* log_out = nullptr);

/// Fresh nominal-distribution calibration set (never overlapping train/test
/// seeds) used to place the abstention threshold at a coverage budget —
/// the deployment workflow of Section IV-D.
Dataset make_calibration_set(const ExperimentConfig& config);

/// Threshold on g realising approximately `coverage` on the calibration set.
float calibrated_threshold(const ExperimentConfig& config,
                           const selective::SelectiveNet& net, double coverage);

/// Headline numbers of one classifier on one labelled test set.
struct ClassifierEval {
  double coverage = 0.0;       // fraction of wafers auto-labelled
  double selective_acc = 0.0;  // accuracy over the selected wafers
  double full_acc = 0.0;       // accuracy ignoring the reject option
  std::size_t abstained = 0;   // wafers routed to manual inspection
};

/// Runs any wm::Classifier — the selective CNN or the SVM baseline — over a
/// labelled test set through the common interface and scores it. This is how
/// experiment code compares the two without caring which model it holds.
ClassifierEval evaluate_classifier(const Classifier& classifier,
                                   const Dataset& test);

}  // namespace wm::eval
