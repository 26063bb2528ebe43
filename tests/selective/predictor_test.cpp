// The selective classifier contract (Eq. 2) at both precisions: every
// PredictorTest case builds the fp32 net and its int8 quantization through
// wm::load_classifier and checks each.
#include "selective/load_classifier.hpp"

#include <array>
#include <limits>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "selective/calibrate.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm::selective {
namespace {

SelectiveNetOptions tiny_net() {
  return {.map_size = 16, .num_classes = 9, .conv1_filters = 8,
          .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32};
}

SelectiveNet random_net(std::uint64_t seed) {
  Rng rng(seed);
  return SelectiveNet(tiny_net(), rng);
}

/// One random net at both precisions.
struct Precisions {
  explicit Precisions(std::uint64_t seed)
      : fp32(random_net(seed)), int8(quantize_selective_net(fp32)) {}

  std::array<std::unique_ptr<LoadedClassifier>, 2> load(
      const ClassifierLoadOptions& opts = {}) const {
    return {load_classifier(fp32, opts), load_classifier(int8, opts)};
  }

  SelectiveNet fp32;
  QuantizedSelectiveNet int8;
};

const char* precision(const LoadedClassifier& clf) {
  return clf.is_quantized() ? "int8" : "fp32";
}

Dataset small_dataset(std::uint64_t seed, int per_class = 6) {
  Rng rng(seed);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts.fill(per_class);
  return synth::generate_dataset(spec, rng);
}

std::vector<WaferMap> maps_of(const Dataset& data) {
  std::vector<WaferMap> maps;
  for (std::size_t i = 0; i < data.size(); ++i) maps.push_back(data[i].map);
  return maps;
}

void expect_bit_equal(const SelectivePrediction& a,
                      const SelectivePrediction& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.g, b.g);
  EXPECT_EQ(a.confidence, b.confidence);
}

TEST(PredictorTest, PredictionFieldsPopulated) {
  const Precisions nets(1);
  const Dataset data = small_dataset(2);
  for (const auto& clf : nets.load()) {
    SCOPED_TRACE(precision(*clf));
    EXPECT_EQ(clf->num_classes(), 9);
    EXPECT_EQ(clf->map_size(), 16);
    const auto preds = predict_dataset(*clf, data);
    ASSERT_EQ(preds.size(), data.size());
    for (const auto& p : preds) {
      EXPECT_GE(p.label, 0);
      EXPECT_LT(p.label, 9);
      EXPECT_GE(p.g, 0.0f);
      EXPECT_LE(p.g, 1.0f);
      EXPECT_GT(p.confidence, 0.0f);
      EXPECT_LE(p.confidence, 1.0f);
      EXPECT_EQ(p.selected, p.g >= 0.5f);
    }
  }
}

TEST(PredictorTest, ThresholdZeroSelectsAll) {
  const Precisions nets(2);
  const Dataset data = small_dataset(3);
  for (const auto& clf : nets.load({.threshold = 0.0f})) {
    SCOPED_TRACE(precision(*clf));
    EXPECT_DOUBLE_EQ(coverage_of(predict_dataset(*clf, data)), 1.0);
  }
}

TEST(PredictorTest, ThresholdOneSelectsNone) {
  const Precisions nets(3);
  const Dataset data = small_dataset(4);
  for (const auto& clf : nets.load({.threshold = 1.0f})) {
    SCOPED_TRACE(precision(*clf));
    EXPECT_DOUBLE_EQ(coverage_of(predict_dataset(*clf, data)), 0.0);
  }
}

TEST(PredictorTest, BatchedAndWholeSetAgree) {
  // Eval batches of 7 split the 36 wafers unevenly and run concurrently on
  // the pool; one batch of 4096 holds them all.
  const Precisions nets(4);
  const auto maps = maps_of(small_dataset(5, 4));
  const auto small_batches = nets.load({.eval_batch = 7});
  const auto one_batch = nets.load({.eval_batch = 4096});
  for (std::size_t k = 0; k < small_batches.size(); ++k) {
    SCOPED_TRACE(precision(*small_batches[k]));
    const auto a = small_batches[k]->predict_batch(maps);
    const auto b = one_batch[k]->predict_batch(maps);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) expect_bit_equal(a[i], b[i]);
  }
}

TEST(PredictorTest, PredictOneMatchesBatch) {
  const Precisions nets(5);
  const Dataset data = small_dataset(6, 2);
  for (const auto& clf : nets.load()) {
    SCOPED_TRACE(precision(*clf));
    const auto preds = predict_dataset(*clf, data);
    for (std::size_t i = 0; i < data.size(); ++i) {
      expect_bit_equal(clf->predict_one(data[i].map), preds[i]);
    }
  }
}

TEST(PredictorTest, EmptySpanYieldsNoPredictions) {
  const Precisions nets(5);
  for (const auto& clf : nets.load()) {
    SCOPED_TRACE(precision(*clf));
    EXPECT_TRUE(clf->predict_batch({}).empty());
  }
}

TEST(PredictorTest, RejectsMismatchedMapSize) {
  const Precisions nets(5);  // 16x16 nets
  for (const auto& clf : nets.load()) {
    SCOPED_TRACE(precision(*clf));
    EXPECT_THROW(clf->predict_one(WaferMap(24)), ShapeError);
  }
}

TEST(PredictorTest, MetricsComputedCorrectly) {
  std::vector<SelectivePrediction> preds(4);
  preds[0] = {.label = 0, .selected = true};
  preds[1] = {.label = 1, .selected = true};
  preds[2] = {.label = 2, .selected = false};
  preds[3] = {.label = 3, .selected = true};
  const std::vector<int> labels = {0, 9, 2, 3};
  EXPECT_DOUBLE_EQ(coverage_of(preds), 0.75);
  EXPECT_DOUBLE_EQ(selective_accuracy(preds, labels), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(full_accuracy(preds, labels), 0.75);
}

TEST(PredictorTest, EmptySelectionConvention) {
  std::vector<SelectivePrediction> preds(2);
  preds[0].selected = false;
  preds[1].selected = false;
  EXPECT_DOUBLE_EQ(selective_accuracy(preds, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(coverage_of(preds), 0.0);
}

TEST(PredictorTest, RejectsBadArguments) {
  const Precisions nets(6);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const ClassifierLoadOptions bad :
       {ClassifierLoadOptions{.threshold = -0.1f},
        ClassifierLoadOptions{.threshold = 1.1f},
        ClassifierLoadOptions{.threshold = nan},
        ClassifierLoadOptions{.eval_batch = 0},
        ClassifierLoadOptions{.eval_batch = -3}}) {
    EXPECT_THROW(load_classifier(nets.fp32, bad), InvalidArgument);
    EXPECT_THROW(load_classifier(nets.int8, bad), InvalidArgument);
  }
  EXPECT_THROW(selective_accuracy({}, {0}), InvalidArgument);
}

TEST(CalibrateTest, HitsRequestedCoverage) {
  const SelectiveNet net = random_net(7);
  const Dataset data = small_dataset(8, 10);  // 90 samples
  for (double target : {0.2, 0.5, 0.9}) {
    const float tau = calibrate_threshold(net, data, target);
    const double cov = coverage_of(
        predict_dataset(*load_classifier(net, {.threshold = tau}), data));
    EXPECT_NEAR(cov, target, 0.06) << "target " << target;
    EXPECT_GE(cov, target - 1e-9) << "target " << target;
  }
}

TEST(CalibrateTest, FullCoverageThresholdSelectsEverything) {
  const SelectiveNet net = random_net(8);
  const Dataset data = small_dataset(9, 4);
  const float tau = calibrate_threshold(net, data, 1.0);
  EXPECT_DOUBLE_EQ(
      coverage_of(
          predict_dataset(*load_classifier(net, {.threshold = tau}), data)),
      1.0);
}

TEST(CalibrateTest, RejectsBadInputs) {
  const SelectiveNet net = random_net(9);
  const Dataset data = small_dataset(10, 2);
  EXPECT_THROW(calibrate_threshold(net, data, 0.0), InvalidArgument);
  EXPECT_THROW(calibrate_threshold(net, data, 1.5), InvalidArgument);
  EXPECT_THROW(calibrate_threshold(net, Dataset{}, 0.5), InvalidArgument);
}

}  // namespace
}  // namespace wm::selective
