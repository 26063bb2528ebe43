// Resource allocation with selective learning (paper Section IV-D (ii)).
//
// A fab has budget to manually inspect only a fraction of wafers. The
// selective model labels the confident majority automatically and routes
// exactly the risky remainder to engineers: we calibrate the abstention
// threshold so that the engineer queue matches the inspection budget.
#include <cstdio>

#include "common/rng.hpp"
#include "selective/calibrate.hpp"
#include "selective/load_classifier.hpp"
#include "selective/trainer.hpp"
#include "wafermap/synth/generator.hpp"

using namespace wm;

int main() {
  Rng rng(11);

  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts.fill(80);
  Dataset data = synth::generate_dataset(spec, rng);
  data.shuffle(rng);
  auto [rest, test] = data.stratified_split(0.7, rng);
  auto [train, calibration] = rest.stratified_split(0.8, rng);

  selective::SelectiveNet net({.map_size = 16, .num_classes = 9,
                               .conv1_filters = 16, .conv2_filters = 16,
                               .conv3_filters = 16, .fc_units = 64,
                               .use_batchnorm = true},
                              rng);
  selective::SelectiveTrainer trainer({.epochs = 25, .batch_size = 32,
                                       .learning_rate = 2e-3,
                                       .target_coverage = 0.8});
  trainer.train(net, train, nullptr, rng);

  std::vector<int> labels;
  for (std::size_t i = 0; i < test.size(); ++i) {
    labels.push_back(static_cast<int>(test[i].label));
  }

  std::printf("inspection budget sweep (threshold calibrated on held-out set):\n");
  std::printf("%-10s %-11s %-14s %-14s %s\n", "budget", "threshold",
              "auto-labeled", "to engineers", "auto accuracy");
  for (double budget : {0.05, 0.15, 0.30, 0.50}) {
    // The model must auto-label (1 - budget) of the stream.
    const double target_cov = 1.0 - budget;
    const float tau =
        selective::calibrate_threshold(net, calibration, target_cov);
    const auto predictor = load_classifier(net, {.threshold = tau});
    const auto preds = predict_dataset(*predictor, test);
    const double cov = coverage_of(preds);
    const double acc = selective_accuracy(preds, labels);
    std::printf("%5.0f%%     %-11.3f %6.1f%%        %6.1f%%        %.1f%%\n",
                100 * budget, tau, 100 * cov, 100 * (1 - cov), 100 * acc);
  }

  std::printf("\nThe engineer queue contains the wafers the model finds most\n"
              "ambiguous — exactly the ones worth expert time.\n");
  return 0;
}
