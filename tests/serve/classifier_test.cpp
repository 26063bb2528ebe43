// The wm::Classifier contract: both concrete classifiers behave identically
// through the common interface.
#include "serve/classifier.hpp"

#include <gtest/gtest.h>

#include "baseline/wu_classifier.hpp"
#include "common/rng.hpp"
#include "selective/load_classifier.hpp"
#include "selective/selective_net.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm {
namespace {

Dataset two_class_dataset(std::uint64_t seed, int map_size, int per_class) {
  Rng rng(seed);
  synth::DatasetSpec spec;
  spec.map_size = map_size;
  spec.class_counts[static_cast<std::size_t>(DefectType::kCenter)] = per_class;
  spec.class_counts[static_cast<std::size_t>(DefectType::kEdgeRing)] =
      per_class;
  return synth::generate_dataset(spec, rng);
}

std::vector<WaferMap> maps_of(const Dataset& data) {
  std::vector<WaferMap> maps;
  for (std::size_t i = 0; i < data.size(); ++i) maps.push_back(data[i].map);
  return maps;
}

TEST(ClassifierTest, PredictOneDefaultMatchesBatch) {
  Rng rng(1);
  selective::SelectiveNet net({.map_size = 16, .num_classes = 9,
                               .conv1_filters = 8, .conv2_filters = 8,
                               .conv3_filters = 8, .fc_units = 32},
                              rng);
  const auto predictor = load_classifier(net);
  const Classifier& clf = *predictor;
  const auto maps = maps_of(two_class_dataset(2, 16, 3));
  const auto batch = clf.predict_batch(maps);
  for (std::size_t i = 0; i < maps.size(); ++i) {
    const SelectivePrediction one = clf.predict_one(maps[i]);
    EXPECT_EQ(one.label, batch[i].label);
    EXPECT_EQ(one.g, batch[i].g);
    EXPECT_EQ(one.confidence, batch[i].confidence);
    EXPECT_EQ(one.selected, batch[i].selected);
  }
  EXPECT_EQ(clf.num_classes(), 9);
}

TEST(ClassifierTest, WuBaselineThroughCommonInterface) {
  Rng rng(3);
  const Dataset data = two_class_dataset(4, 24, 10);
  baseline::WuClassifier wu;
  wu.fit(data, rng);

  const Classifier& clf = wu;
  const auto maps = maps_of(data);
  const auto preds = clf.predict_batch(maps);
  const auto labels = wu.predict(data);  // legacy int vocabulary
  ASSERT_EQ(preds.size(), labels.size());
  for (std::size_t i = 0; i < preds.size(); ++i) {
    EXPECT_EQ(preds[i].label, labels[i]);
    EXPECT_TRUE(preds[i].selected);  // the SVM has no reject option
    EXPECT_EQ(preds[i].g, 1.0f);
    EXPECT_EQ(preds[i].confidence, 0.0f);  // no probability calibration
  }
  EXPECT_EQ(clf.num_classes(), 2);
  EXPECT_EQ(clf.predict_one(data[0].map).label, labels[0]);
}

TEST(ClassifierTest, PredictDatasetPreservesOrder) {
  Rng rng(5);
  selective::SelectiveNet net({.map_size = 16, .num_classes = 9,
                               .conv1_filters = 8, .conv2_filters = 8,
                               .conv3_filters = 8, .fc_units = 32},
                              rng);
  const auto predictor = load_classifier(net);
  const Dataset data = two_class_dataset(6, 16, 4);
  const auto via_dataset = predict_dataset(*predictor, data);
  const auto via_span = predictor->predict_batch(maps_of(data));
  ASSERT_EQ(via_dataset.size(), via_span.size());
  for (std::size_t i = 0; i < via_dataset.size(); ++i) {
    EXPECT_EQ(via_dataset[i].label, via_span[i].label);
    EXPECT_EQ(via_dataset[i].g, via_span[i].g);
  }
}

}  // namespace
}  // namespace wm
