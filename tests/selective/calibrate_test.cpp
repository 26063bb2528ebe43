// Threshold calibration edge cases: the windows the drift-adaptation loop
// actually hands to refit_threshold are small, skewed, and sometimes
// degenerate — empty after a buffer clear, all-abstained under coverage
// drift, tied scores from a saturated selection head, single-class streams.
// These tests pin the documented semantics for every such window.
#include "selective/calibrate.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "selective/load_classifier.hpp"
#include "selective/selective_net.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm::selective {
namespace {

TEST(RefitThresholdTest, EmptyWindowThrows) {
  const std::vector<float> empty;
  EXPECT_THROW(refit_threshold(empty, 0.5), Error);
}

TEST(RefitThresholdTest, InvalidTargetCoverageThrows) {
  const std::vector<float> gs = {0.1f, 0.2f, 0.3f};
  EXPECT_THROW(refit_threshold(gs, 0.0), Error);
  EXPECT_THROW(refit_threshold(gs, -0.5), Error);
  EXPECT_THROW(refit_threshold(gs, 1.5), Error);
}

TEST(RefitThresholdTest, TopKCutHitsTheTargetExactly) {
  // Distinct scores, target reachable exactly: 7/10 selected.
  const std::vector<float> gs = {0.05f, 0.15f, 0.25f, 0.35f, 0.45f,
                                 0.55f, 0.65f, 0.75f, 0.85f, 0.95f};
  const float tau = refit_threshold(gs, 0.7);
  EXPECT_DOUBLE_EQ(coverage_at(gs, tau), 0.7);
  // The cut sits just below the 7th-highest score (0.35).
  EXPECT_LT(tau, 0.35f);
  EXPECT_GT(tau, 0.25f);
}

TEST(RefitThresholdTest, AllAbstainedWindowStillYieldsACut) {
  // Coverage drift's signature window: every g far below any previous
  // threshold. The re-fit ranks scores — it must restore the target on the
  // window regardless of how low the absolute values sit.
  std::vector<float> gs;
  for (int i = 0; i < 40; ++i) gs.push_back(0.001f + 0.002f * i);  // all < 0.1
  const float tau = refit_threshold(gs, 0.5);
  EXPECT_NEAR(coverage_at(gs, tau), 0.5, 1e-9);
  EXPECT_GE(tau, 0.0f);
  EXPECT_LT(tau, 0.1f);
}

TEST(RefitThresholdTest, UnreachableTargetSelectsSmallestCoverageAtLeastIt) {
  // Massive ties: 8 copies of 0.9 and 2 of 0.1. Reachable coverages are
  // only 0.8 and 1.0 — a 0.5 target must land on 0.8 (the smallest
  // reachable value >= target), never collapse to 0.
  std::vector<float> gs(8, 0.9f);
  gs.push_back(0.1f);
  gs.push_back(0.1f);
  const float tau = refit_threshold(gs, 0.5);
  EXPECT_DOUBLE_EQ(coverage_at(gs, tau), 0.8);
}

TEST(RefitThresholdTest, AllTiedScoresSelectEverything) {
  // A fully saturated selection head: one distinct value, every target
  // keeps the whole window selected (ties stay selected by contract).
  const std::vector<float> gs(16, 0.5f);
  for (const double target : {0.1, 0.5, 1.0}) {
    const float tau = refit_threshold(gs, target);
    EXPECT_DOUBLE_EQ(coverage_at(gs, tau), 1.0) << "target " << target;
  }
}

TEST(RefitThresholdTest, SingleSampleWindow) {
  // N=1: k clamps to 1; the lone sample stays selected at any target.
  const std::vector<float> gs = {0.42f};
  EXPECT_DOUBLE_EQ(coverage_at(gs, refit_threshold(gs, 0.01)), 1.0);
  EXPECT_DOUBLE_EQ(coverage_at(gs, refit_threshold(gs, 1.0)), 1.0);
}

TEST(RefitThresholdTest, FullCoverageSelectsEverything) {
  const std::vector<float> gs = {0.9f, 0.5f, 0.1f, 0.7f};
  const float tau = refit_threshold(gs, 1.0);
  EXPECT_DOUBLE_EQ(coverage_at(gs, tau), 1.0);
  EXPECT_GE(tau, 0.0f);  // clamped into [0, 1] even for g near 0
}

TEST(CoverageAtTest, EmptyWindowIsZero) {
  const std::vector<float> empty;
  EXPECT_DOUBLE_EQ(coverage_at(empty, 0.5f), 0.0);
}

TEST(CoverageAtTest, CountsTiesAsSelected) {
  const std::vector<float> gs = {0.5f, 0.5f, 0.4f, 0.6f};
  EXPECT_DOUBLE_EQ(coverage_at(gs, 0.5f), 0.75);  // g >= tau, ties in
  EXPECT_DOUBLE_EQ(coverage_at(gs, 0.0f), 1.0);
  EXPECT_DOUBLE_EQ(coverage_at(gs, 0.7f), 0.0);
}

TEST(CalibrateThresholdTest, EmptyDatasetThrows) {
  Rng rng(3);
  SelectiveNet net({.map_size = 16, .num_classes = 9, .conv1_filters = 4,
                    .conv2_filters = 4, .conv3_filters = 4, .fc_units = 16},
                   rng);
  const Dataset empty;
  EXPECT_THROW(calibrate_threshold(net, empty, 0.7), Error);
}

TEST(CalibrateThresholdTest, SingleClassWindowCalibrates) {
  // A drifted stream can be one class only (e.g. a tool suddenly producing
  // Donut wafers). Calibration must still hit the target coverage on it.
  Rng rng(5);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts.fill(0);
  spec.class_counts[static_cast<std::size_t>(DefectType::kDonut)] = 32;
  const Dataset donuts = synth::generate_dataset(spec, rng);
  ASSERT_EQ(donuts.size(), 32u);

  SelectiveNet net({.map_size = 16, .num_classes = 9, .conv1_filters = 4,
                    .conv2_filters = 4, .conv3_filters = 4, .fc_units = 16},
                   rng);
  const float tau = calibrate_threshold(net, donuts, 0.75);
  const auto preds =
      predict_dataset(*load_classifier(net, {.threshold = tau}), donuts);
  EXPECT_NEAR(coverage_of(preds), 0.75, 1.0 / 32.0 + 1e-9);
}

}  // namespace
}  // namespace wm::selective
