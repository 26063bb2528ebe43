// End-to-end training behaviour of the selective CNN on small synthetic
// wafer datasets.
#include "selective/trainer.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "selective/calibrate.hpp"
#include "selective/load_classifier.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm::selective {
namespace {

SelectiveNetOptions tiny_net() {
  return {.map_size = 16, .num_classes = 9, .conv1_filters = 8,
          .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32};
}

/// Easy 3-class dataset: Center vs Edge-Ring vs None are visually distinct.
Dataset easy_dataset(int per_class, std::uint64_t seed) {
  Rng rng(seed);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts[static_cast<std::size_t>(DefectType::kCenter)] = per_class;
  spec.class_counts[static_cast<std::size_t>(DefectType::kEdgeRing)] = per_class;
  spec.class_counts[static_cast<std::size_t>(DefectType::kNone)] = per_class;
  return synth::generate_dataset(spec, rng);
}

TEST(SelectiveTrainerTest, CrossEntropyModeLearnsEasyClasses) {
  Rng rng(1);
  SelectiveNet net(tiny_net(), rng);
  Dataset train = easy_dataset(30, 2);
  train.shuffle(rng);
  SelectiveTrainer trainer({.epochs = 12, .batch_size = 16,
                            .learning_rate = 2e-3, .target_coverage = 1.0});
  const TrainingLog log = trainer.train(net, train, nullptr, rng);
  ASSERT_EQ(log.epochs.size(), 12u);
  EXPECT_LT(log.final_epoch().loss, log.epochs.front().loss);
  EXPECT_GT(argmax_accuracy(net, train), 0.95);
  // CE mode reports full coverage.
  EXPECT_FLOAT_EQ(log.final_epoch().coverage, 1.0f);
}

TEST(SelectiveTrainerTest, SelectiveModeTrainsBothHeads) {
  Rng rng(3);
  SelectiveNet net(tiny_net(), rng);
  Dataset train = easy_dataset(30, 4);
  train.shuffle(rng);
  SelectiveTrainer trainer({.epochs = 12, .batch_size = 16,
                            .learning_rate = 2e-3, .target_coverage = 0.7});
  const TrainingLog log = trainer.train(net, train, nullptr, rng);
  EXPECT_LT(log.final_epoch().loss, log.epochs.front().loss);
  // Coverage should end up at or above the target on easy data.
  EXPECT_GT(log.final_epoch().coverage, 0.5f);
  EXPECT_GT(argmax_accuracy(net, train), 0.9);
}

TEST(SelectiveTrainerTest, ValidationAccuracyTracked) {
  Rng rng(5);
  SelectiveNet net(tiny_net(), rng);
  Dataset data = easy_dataset(25, 6);
  data.shuffle(rng);
  const auto [train, val] = data.stratified_split(0.8, rng);
  SelectiveTrainer trainer({.epochs = 8, .batch_size = 16,
                            .learning_rate = 2e-3, .target_coverage = 1.0});
  const TrainingLog log = trainer.train(net, train, &val, rng);
  ASSERT_TRUE(log.final_epoch().val_accuracy.has_value());
  EXPECT_GT(*log.final_epoch().val_accuracy, 0.8f);
}

TEST(SelectiveTrainerTest, EarlyStoppingCutsEpochs) {
  Rng rng(7);
  SelectiveNet net(tiny_net(), rng);
  Dataset train = easy_dataset(10, 8);
  SelectiveTrainer trainer({.epochs = 50, .batch_size = 16,
                            .learning_rate = 2e-3, .target_coverage = 1.0,
                            .min_improvement = 10.0,  // nothing counts as progress
                            .patience = 2});
  const TrainingLog log = trainer.train(net, train, nullptr, rng);
  EXPECT_LE(log.epochs.size(), 3u);
}

TEST(SelectiveTrainerTest, RejectsBadOptions) {
  EXPECT_THROW(SelectiveTrainer({.epochs = 0}), InvalidArgument);
  EXPECT_THROW(SelectiveTrainer({.batch_size = 0}), InvalidArgument);
  EXPECT_THROW(SelectiveTrainer({.learning_rate = 0.0}), InvalidArgument);
  EXPECT_THROW(SelectiveTrainer({.target_coverage = 0.0}), InvalidArgument);
  EXPECT_THROW(SelectiveTrainer({.target_coverage = 1.2}), InvalidArgument);
  Rng rng(9);
  SelectiveNet net(tiny_net(), rng);
  SelectiveTrainer trainer({});
  EXPECT_THROW(trainer.train(net, Dataset{}, nullptr, rng), InvalidArgument);
}

TEST(SelectiveIntegrationTest, RejectsIrreducibleRiskSamples) {
  // Train selectively on two clean classes plus samples with *irreducible*
  // label noise: the same wafer appears twice with conflicting labels, so
  // no amount of memorisation can drive its loss to zero. The g head should
  // learn to abstain on exactly those wafers.
  Rng rng(10);
  synth::DatasetSpec clean_spec;
  clean_spec.map_size = 16;
  clean_spec.class_counts[static_cast<std::size_t>(DefectType::kCenter)] = 40;
  clean_spec.class_counts[static_cast<std::size_t>(DefectType::kEdgeRing)] = 40;
  Dataset data = synth::generate_dataset(clean_spec, rng);
  Dataset ambiguous;  // keep a copy for evaluation
  for (int i = 0; i < 30; ++i) {
    const WaferMap map = synth::generate(DefectType::kRandom, 16, rng);
    data.add(Sample{.map = map, .label = DefectType::kCenter});
    data.add(Sample{.map = map, .label = DefectType::kEdgeRing});
    ambiguous.add(Sample{.map = map, .label = DefectType::kCenter});
  }
  data.shuffle(rng);

  SelectiveNet net(tiny_net(), rng);
  // Paper-value lambda: a strong coverage push saturates every g upward and
  // masks the ranking this test verifies.
  SelectiveTrainer trainer({.epochs = 40, .batch_size = 16,
                            .learning_rate = 2e-3, .target_coverage = 0.5,
                            .lambda = 0.5});
  trainer.train(net, data, nullptr, rng);

  const Dataset clean = synth::generate_dataset(clean_spec, rng);
  const auto predictor = load_classifier(net);
  double g_clean = 0.0;
  for (const auto& p : predict_dataset(*predictor, clean)) g_clean += p.g;
  g_clean /= static_cast<double>(clean.size());
  double g_amb = 0.0;
  for (const auto& p : predict_dataset(*predictor, ambiguous)) g_amb += p.g;
  g_amb /= static_cast<double>(ambiguous.size());
  EXPECT_GT(g_clean, g_amb + 0.05);
}

}  // namespace
}  // namespace wm::selective
