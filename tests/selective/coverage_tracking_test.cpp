// Property: with the default (strong) lambda, the achieved training
// coverage tracks the target c0 — the behaviour Table II relies on.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "selective/trainer.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm::selective {
namespace {

Dataset easy_data(std::uint64_t seed) {
  Rng rng(seed);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts[static_cast<std::size_t>(DefectType::kCenter)] = 40;
  spec.class_counts[static_cast<std::size_t>(DefectType::kEdgeRing)] = 40;
  spec.class_counts[static_cast<std::size_t>(DefectType::kNone)] = 40;
  Dataset data = synth::generate_dataset(spec, rng);
  data.shuffle(rng);
  return data;
}

class CoverageTrackingTest : public ::testing::TestWithParam<double> {};

TEST_P(CoverageTrackingTest, TrainingCoverageApproachesTarget) {
  const double c0 = GetParam();
  Rng rng(91);
  SelectiveNet net({.map_size = 16, .num_classes = 9, .conv1_filters = 8,
                    .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32,
                    .use_batchnorm = true},
                   rng);
  Dataset data = easy_data(92);
  SelectiveTrainer trainer({.epochs = 12, .batch_size = 16,
                            .learning_rate = 2e-3, .target_coverage = c0});
  const TrainingLog log = trainer.train(net, data, nullptr, rng);
  // Final-epoch mean coverage must not sit far below the target (the
  // lambda penalty) nor collapse to 1 when the target is small (the
  // selective risk term).
  const float cov = log.final_epoch().coverage;
  EXPECT_GT(cov, c0 - 0.15) << "coverage collapsed below target";
  if (c0 <= 0.5) {
    EXPECT_LT(cov, c0 + 0.4) << "coverage did not respond to a low target";
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, CoverageTrackingTest,
                         ::testing::Values(0.3, 0.5, 0.8),
                         [](const auto& info) {
                           return "c0_" + std::to_string(static_cast<int>(
                                              info.param * 100));
                         });

TEST(CoverageTrackingTest, HigherTargetGivesHigherCoverage) {
  auto train_at = [&](double c0) {
    Rng rng(93);
    SelectiveNet net({.map_size = 16, .num_classes = 9, .conv1_filters = 8,
                      .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32,
                      .use_batchnorm = true},
                     rng);
    Dataset data = easy_data(94);
    SelectiveTrainer trainer({.epochs = 12, .batch_size = 16,
                              .learning_rate = 2e-3, .target_coverage = c0});
    return trainer.train(net, data, nullptr, rng).final_epoch().coverage;
  };
  EXPECT_LT(train_at(0.25), train_at(0.9) + 0.05);
}

}  // namespace
}  // namespace wm::selective
