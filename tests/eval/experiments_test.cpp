#include "eval/experiments.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "selective/trainer.hpp"

namespace wm::eval {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig config;
  config.map_size = 16;
  config.augment = false;
  config.trainer.epochs = 2;
  config.trainer.batch_size = 16;
  config.net = {.map_size = 16, .num_classes = 9, .conv1_filters = 8,
                .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32};
  return config;
}

TEST(ExperimentsTest, PrepareDataWithExplicitCounts) {
  ExperimentConfig config = tiny_config();
  std::array<int, kNumDefectTypes> train{};
  std::array<int, kNumDefectTypes> test{};
  train.fill(4);
  test.fill(2);
  const ExperimentData data = prepare_data(config, train, test);
  EXPECT_EQ(data.train_raw.size(), 36u);
  EXPECT_EQ(data.test.size(), 18u);
  EXPECT_EQ(data.train_aug.size(), data.train_raw.size());  // augment off
  EXPECT_EQ(data.train_raw.map_size(), 16);
}

TEST(ExperimentsTest, AugmentationGrowsMinorities) {
  ExperimentConfig config = tiny_config();
  config.augment = true;
  config.augment_target = 8;
  config.augmentation.cae = {.map_size = 16, .encoder_filters = {8, 4},
                             .kernel = 5};
  config.augmentation.cae_training = {.epochs = 2, .batch_size = 8,
                                      .learning_rate = 2e-3};
  std::array<int, kNumDefectTypes> train{};
  std::array<int, kNumDefectTypes> test{};
  train.fill(3);
  test.fill(1);
  const ExperimentData data = prepare_data(config, train, test);
  EXPECT_GT(data.train_aug.size(), data.train_raw.size());
  // Every defect class reached the target; None untouched at 3.
  const auto counts = data.train_aug.class_counts();
  for (DefectType t : all_defect_types()) {
    const std::size_t st = static_cast<std::size_t>(t);
    if (t == DefectType::kNone) {
      EXPECT_EQ(counts[st], 3);
    } else {
      EXPECT_GE(counts[st], 8);
    }
  }
}

TEST(ExperimentsTest, DataIsDeterministicInSeed) {
  const ExperimentConfig config = tiny_config();
  std::array<int, kNumDefectTypes> counts{};
  counts.fill(2);
  const ExperimentData a = prepare_data(config, counts, counts);
  const ExperimentData b = prepare_data(config, counts, counts);
  ASSERT_EQ(a.test.size(), b.test.size());
  for (std::size_t i = 0; i < a.test.size(); ++i) {
    EXPECT_EQ(a.test[i].map, b.test[i].map);
  }
}

TEST(ExperimentsTest, TrainSelectiveModelRuns) {
  ExperimentConfig config = tiny_config();
  std::array<int, kNumDefectTypes> counts{};
  counts.fill(4);
  const ExperimentData data = prepare_data(config, counts, counts);
  Rng rng(1);
  selective::TrainingLog log;
  auto net = train_selective_model(config, data.train_aug, 0.5, rng, &log);
  ASSERT_NE(net, nullptr);
  EXPECT_EQ(log.epochs.size(), 2u);
  // Full-coverage CE mode.
  auto net_ce = train_selective_model(config, data.train_aug, 1.0, rng);
  ASSERT_NE(net_ce, nullptr);
  EXPECT_THROW(train_selective_model(config, data.train_aug, 0.0, rng),
               InvalidArgument);
}

TEST(ExperimentsTest, FromEnvRespectsOverrides) {
  ::setenv("WM_MAP_SIZE", "16", 1);
  ::setenv("WM_EPOCHS", "3", 1);
  const ExperimentConfig config = ExperimentConfig::from_env();
  EXPECT_EQ(config.map_size, 16);
  EXPECT_EQ(config.trainer.epochs, 3);
  ::unsetenv("WM_MAP_SIZE");
  ::unsetenv("WM_EPOCHS");
}

TEST(ExperimentsTest, FromEnvRejectsAScaleBeyondIntCounts) {
  // 1e300 is finite and > 0, so bench_scale() accepts it; the counts it
  // scales must then fail loudly instead of overflowing an int.
  ::setenv("WM_BENCH_SCALE", "1e300", 1);
  EXPECT_THROW(ExperimentConfig::from_env(), InvalidArgument);
  ::unsetenv("WM_BENCH_SCALE");
}

}  // namespace
}  // namespace wm::eval
