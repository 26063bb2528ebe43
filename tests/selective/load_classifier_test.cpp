// wm::load_classifier — the unified factory: format dispatch from the file
// header, the in-memory overloads, artifact metadata, bit-equality between a
// file load and the in-memory net it was saved from, the ownership contract
// of both precisions (the classifier copies what it needs at load), and
// clone_net(), the trainable copy of the fp32 weights that serve.
#include "selective/load_classifier.hpp"

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "selective/model_file.hpp"
#include "selective/quant_net.hpp"
#include "selective/trainer.hpp"
#include "serve/hot_swap.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm {
namespace {

selective::SelectiveNetOptions small_net_options() {
  return {.map_size = 16, .num_classes = 9, .conv1_filters = 8,
          .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32,
          .use_batchnorm = true};
}

std::vector<WaferMap> sample_maps(int n = 6, int size = 16) {
  Rng rng(11);
  synth::DatasetSpec spec;
  spec.map_size = size;
  spec.class_counts.fill(1);
  const Dataset data = synth::generate_dataset(spec, rng);
  std::vector<WaferMap> maps;
  for (int i = 0; i < n && i < static_cast<int>(data.size()); ++i) {
    maps.push_back(data[i].map);
  }
  return maps;
}

class LoadClassifierTest : public ::testing::Test {
 protected:
  std::string path_ = "/tmp/wm_load_classifier_test_" +
                      std::to_string(::getpid()) + ".wsn";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(LoadClassifierTest, Fp32FileRoundTripsThroughFactory) {
  Rng rng(1);
  selective::SelectiveNet net(small_net_options(), rng);
  selective::save_model(path_, net);

  const auto clf = load_classifier(path_, {.threshold = 0.7f});
  EXPECT_EQ(clf->map_size(), 16);
  EXPECT_FALSE(clf->is_quantized());
  EXPECT_FLOAT_EQ(clf->threshold(), 0.7f);
  EXPECT_EQ(clf->num_classes(), 9);

  // The loaded file must bit-match the in-memory net it was saved from.
  const auto maps = sample_maps();
  const auto expected =
      load_classifier(net, {.threshold = 0.7f})->predict_batch(maps);
  const auto got = clf->predict_batch(maps);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].label, expected[i].label) << i;
    EXPECT_EQ(got[i].selected, expected[i].selected) << i;
    EXPECT_FLOAT_EQ(got[i].g, expected[i].g) << i;
  }
}

TEST_F(LoadClassifierTest, QuantizedFileRoundTripsThroughFactory) {
  Rng rng(2);
  selective::SelectiveNet net(small_net_options(), rng);
  selective::QuantizedSelectiveNet qnet =
      selective::quantize_selective_net(net);
  selective::save_quantized_model(path_, qnet);

  const auto clf = load_classifier(path_);
  EXPECT_EQ(clf->map_size(), 16);
  EXPECT_TRUE(clf->is_quantized());
  EXPECT_FLOAT_EQ(clf->threshold(), 0.5f);

  const auto maps = sample_maps();
  const auto expected = load_classifier(qnet)->predict_batch(maps);
  const auto got = clf->predict_batch(maps);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].label, expected[i].label) << i;
    EXPECT_FLOAT_EQ(got[i].g, expected[i].g) << i;
  }
}

TEST_F(LoadClassifierTest, InMemoryOverloadsMatchFileLoads) {
  Rng rng(3);
  selective::SelectiveNet net(small_net_options(), rng);
  const auto borrowed = load_classifier(net, {.threshold = 0.5f});
  EXPECT_FALSE(borrowed->is_quantized());
  EXPECT_EQ(borrowed->map_size(), 16);

  selective::save_model(path_, net);
  const auto from_file = load_classifier(path_, {.threshold = 0.5f});
  const auto maps = sample_maps();
  const auto a = borrowed->predict_batch(maps);
  const auto b = from_file->predict_batch(maps);
  for (std::size_t i = 0; i < maps.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << i;
    EXPECT_FLOAT_EQ(a[i].g, b[i].g) << i;
  }

  const selective::QuantizedSelectiveNet qnet =
      selective::quantize_selective_net(net);
  const auto quant = load_classifier(qnet);
  EXPECT_TRUE(quant->is_quantized());
  EXPECT_EQ(quant->num_classes(), 9);
}

void expect_bit_equal(const std::vector<SelectivePrediction>& got,
                      const std::vector<SelectivePrediction>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(serve::bit_equal(got[i], want[i])) << i;
  }
}

TEST_F(LoadClassifierTest, Fp32ClassifierOutlivesItsNet) {
  Rng rng(4);
  auto net = std::make_unique<selective::SelectiveNet>(small_net_options(),
                                                       rng);
  const auto maps = sample_maps();
  const auto borrowed = load_classifier(*net);
  const auto before = borrowed->predict_batch(maps);
  const auto owned = load_classifier(net->clone());
  net.reset();
  expect_bit_equal(borrowed->predict_batch(maps), before);
  expect_bit_equal(owned->predict_batch(maps), before);
}

TEST_F(LoadClassifierTest, Int8ClassifierOutlivesItsNet) {
  Rng rng(7);
  selective::SelectiveNet net(small_net_options(), rng);
  auto qnet = std::make_unique<selective::QuantizedSelectiveNet>(
      selective::quantize_selective_net(net));
  const auto maps = sample_maps();
  const auto clf = load_classifier(*qnet);
  EXPECT_TRUE(clf->is_quantized());
  const auto before = clf->predict_batch(maps);
  qnet.reset();
  expect_bit_equal(clf->predict_batch(maps), before);
}

/// Trains `net` for one epoch on a small synthetic set and expects the
/// training to move its predictions on `maps` away from `before`.
void train_and_expect_moved(selective::SelectiveNet& net,
                            const std::vector<WaferMap>& maps,
                            const std::vector<SelectivePrediction>& before) {
  Rng rng(6);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts.fill(2);
  const Dataset data = synth::generate_dataset(spec, rng);
  selective::SelectiveTrainer({.epochs = 1, .batch_size = 6})
      .train(net, data, nullptr, rng);
  const auto after = load_classifier(net)->predict_batch(maps);
  bool moved = false;
  for (std::size_t i = 0; i < maps.size(); ++i) {
    moved = moved || !serve::bit_equal(after[i], before[i]);
  }
  EXPECT_TRUE(moved);
}

TEST_F(LoadClassifierTest, Fp32ClassifierIgnoresLaterTraining) {
  Rng rng(5);
  selective::SelectiveNet net(small_net_options(), rng);
  const auto clf = load_classifier(net);
  const auto maps = sample_maps();
  const auto before = clf->predict_batch(maps);
  train_and_expect_moved(net, maps, before);
  expect_bit_equal(clf->predict_batch(maps), before);
}

TEST_F(LoadClassifierTest, CloneNetCopiesTheWeightsThatServe) {
  Rng rng(8);
  selective::SelectiveNet net(small_net_options(), rng);
  selective::save_model(path_, net);
  const auto maps = sample_maps();
  // The re-cut outlives the classifier it was cut from.
  const std::unique_ptr<LoadedClassifier> fp32[] = {
      load_classifier(path_), load_classifier(net),
      load_classifier(net.clone()),
      load_classifier(net)->with_threshold(0.3f)};
  for (const auto& clf : fp32) {
    const auto before = clf->predict_batch(maps);
    const std::unique_ptr<selective::SelectiveNet> copy = clf->clone_net();
    ASSERT_NE(copy, nullptr);
    expect_bit_equal(
        load_classifier(*copy, {.threshold = clf->threshold()})
            ->predict_batch(maps),
        before);
    train_and_expect_moved(*copy, maps, before);
    expect_bit_equal(clf->predict_batch(maps), before);
  }
  EXPECT_EQ(load_classifier(selective::quantize_selective_net(net))
                ->clone_net(),
            nullptr);
}

TEST_F(LoadClassifierTest, MissingFileThrowsIoError) {
  EXPECT_THROW(load_classifier("/nonexistent/model.wsn"), IoError);
}

}  // namespace
}  // namespace wm
