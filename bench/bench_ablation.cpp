// Ablation studies for the design choices DESIGN.md §5 calls out:
//   A1  CAE augmentation on vs off (minority-class recall)
//   A2  synthetic-sample weight w = 0.5 vs w = 1.0
//   A3  selective-loss alpha sensitivity (0.25 / 0.5 / 0.75)
// Runs on a reduced configuration so the whole sweep stays fast; scale with
// WM_BENCH_SCALE for tighter numbers.
#include <algorithm>
#include <cstdio>

#include "common/rng.hpp"
#include "eval/experiments.hpp"
#include "eval/metrics.hpp"
#include "eval/tables.hpp"
#include "selective/load_classifier.hpp"

using namespace wm;

namespace {

/// Mean recall over the defect (non-None) classes at full coverage.
double defect_macro_recall(selective::SelectiveNet& net, const Dataset& test) {
  const auto predictor = load_classifier(net, {.threshold = 0.0f});
  const auto preds = predict_dataset(*predictor, test);
  std::vector<int> labels;
  std::vector<int> predicted;
  for (std::size_t i = 0; i < test.size(); ++i) {
    labels.push_back(static_cast<int>(test[i].label));
    predicted.push_back(preds[i].label);
  }
  const auto cm = eval::confusion_from_labels(labels, predicted, kNumDefectTypes);
  double acc = 0.0;
  int n = 0;
  for (DefectType t : all_defect_types()) {
    if (t == DefectType::kNone) continue;
    if (cm.support(static_cast<int>(t)) == 0) continue;
    acc += cm.recall(static_cast<int>(t));
    ++n;
  }
  return n > 0 ? acc / n : 0.0;
}

eval::ExperimentConfig reduced_config() {
  eval::ExperimentConfig config = eval::ExperimentConfig::from_env();
  config.map_size = 16;
  config.data_scale *= 0.6;
  config.augment_target = std::max(20, config.augment_target / 2);
  config.net = {.map_size = 16, .num_classes = 9, .conv1_filters = 32,
                .conv2_filters = 16, .conv3_filters = 16, .fc_units = 128};
  config.augmentation.cae = {.map_size = 16, .encoder_filters = {16, 8},
                             .kernel = 5};
  return config;
}

}  // namespace

int main() {
  std::printf("=== Ablations (DESIGN.md §5) ===\n\n");

  // --- A1/A2: augmentation off / w=1 / w=0.5 (paper default). ---
  std::printf("A1/A2: augmentation and synthetic weight (defect macro-recall,\n"
              "full coverage — higher is better):\n");
  const struct {
    const char* tag;
    bool augment;
    float weight;
  } variants[] = {{"no augmentation", false, 0.5f},
                  {"augment, w = 1.0", true, 1.0f},
                  {"augment, w = 0.5 (paper)", true, 0.5f}};
  for (const auto& v : variants) {
    eval::ExperimentConfig config = reduced_config();
    config.augment = v.augment;
    config.synthetic_weight = v.weight;
    const eval::ExperimentData data = eval::prepare_data(config);
    Rng rng(config.seed + 11);
    auto net = eval::train_selective_model(config, data.train_aug, 1.0, rng);
    std::printf("  %-26s -> %.3f\n", v.tag, defect_macro_recall(*net, data.test));
  }

  // --- A3: alpha sensitivity at c0 = 0.5. ---
  std::printf("\nA3: selective-loss alpha at c0 = 0.5 (selective accuracy /\n"
              "achieved coverage):\n");
  {
    eval::ExperimentConfig config = reduced_config();
    const eval::ExperimentData data = eval::prepare_data(config);
    std::vector<int> labels;
    for (std::size_t i = 0; i < data.test.size(); ++i) {
      labels.push_back(static_cast<int>(data.test[i].label));
    }
    for (double alpha : {0.25, 0.5, 0.75}) {
      eval::ExperimentConfig variant = config;
      variant.trainer.alpha = alpha;
      Rng rng(config.seed + 13);
      auto net = eval::train_selective_model(variant, data.train_aug, 0.5, rng);
      const auto predictor = load_classifier(*net, {.threshold = 0.5f});
      const auto preds = predict_dataset(*predictor, data.test);
      std::printf("  alpha = %.2f -> accuracy %.3f, coverage %.3f\n", alpha,
                  selective_accuracy(preds, labels),
                  coverage_of(preds));
    }
  }
  // --- A4: learned selection head vs softmax-response rejection. ---
  // The classic alternative to a trained g head is thresholding the softmax
  // confidence of a plain CE model (Chow's rule / "softmax response"). We
  // match both at the same achieved coverage and compare selective accuracy.
  std::printf("\nA4: g-head selection vs softmax-response at equal coverage:\n");
  {
    eval::ExperimentConfig config = reduced_config();
    const eval::ExperimentData data = eval::prepare_data(config);
    std::vector<int> labels;
    for (std::size_t i = 0; i < data.test.size(); ++i) {
      labels.push_back(static_cast<int>(data.test[i].label));
    }
    Rng rng(config.seed + 17);
    auto sel_net = eval::train_selective_model(config, data.train_aug, 0.5, rng);
    const auto sel_pred = load_classifier(*sel_net, {.threshold = 0.5f});
    const auto sel_preds = predict_dataset(*sel_pred, data.test);
    const double sel_cov = coverage_of(sel_preds);
    const double sel_acc = selective_accuracy(sel_preds, labels);

    Rng rng2(config.seed + 17);
    auto ce_net = eval::train_selective_model(config, data.train_aug, 1.0, rng2);
    const auto ce_pred = load_classifier(*ce_net, {.threshold = 0.0f});
    auto ce_preds = predict_dataset(*ce_pred, data.test);
    // Select the top sel_cov fraction by softmax confidence.
    std::vector<float> confidences;
    for (const auto& p : ce_preds) confidences.push_back(p.confidence);
    std::vector<float> sorted = confidences;
    std::sort(sorted.begin(), sorted.end(), std::greater<float>());
    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(sel_cov * static_cast<double>(sorted.size())));
    const float cut = sorted[std::min(k, sorted.size()) - 1];
    for (auto& p : ce_preds) p.selected = p.confidence >= cut;
    std::printf("  g-head:           accuracy %.3f at coverage %.3f\n", sel_acc,
                sel_cov);
    std::printf("  softmax-response: accuracy %.3f at coverage %.3f\n",
                selective_accuracy(ce_preds, labels),
                coverage_of(ce_preds));
  }

  std::printf("\nexpected shape: augmentation lifts minority recall; w < 1\n"
              "beats w = 1; results are stable in alpha near 0.5; the learned\n"
              "g head is competitive with (or beats) softmax-response.\n");
  return 0;
}
