#include "selective/quant_net.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "selective/calibrate.hpp"
#include "selective/load_classifier.hpp"
#include "selective/model_file.hpp"
#include "selective/trainer.hpp"
#include "tensor/tensor_ops.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm::selective {
namespace {

/// One trained small net + dataset shared across the fixture's tests;
/// training is the expensive part, so do it once.
class QuantPredictorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(7);
    synth::DatasetSpec spec;
    spec.map_size = 16;
    spec.class_counts.fill(10);
    data_ = new Dataset(synth::generate_dataset(spec, rng));
    // A larger held-out set for the accuracy-parity assertions: with 270
    // samples one flipped prediction moves accuracy by 0.37%, so the 1%
    // bound is meaningfully testable.
    synth::DatasetSpec eval_spec;
    eval_spec.map_size = 16;
    eval_spec.class_counts.fill(30);
    Rng eval_rng(99);
    eval_ = new Dataset(synth::generate_dataset(eval_spec, eval_rng));
    net_ = new SelectiveNet({.map_size = 16, .num_classes = 9,
                             .conv1_filters = 8, .conv2_filters = 8,
                             .conv3_filters = 8, .fc_units = 32,
                             .use_batchnorm = true},
                            rng);
    SelectiveTrainer trainer({.epochs = 6, .batch_size = 16,
                              .learning_rate = 2e-3, .target_coverage = 0.8});
    trainer.train(*net_, *data_, nullptr, rng);
    qnet_ = new QuantizedSelectiveNet(quantize_selective_net(*net_));
  }
  static void TearDownTestSuite() {
    delete qnet_; qnet_ = nullptr;
    delete net_; net_ = nullptr;
    delete eval_; eval_ = nullptr;
    delete data_; data_ = nullptr;
  }

  static std::vector<int> labels_of(const Dataset& data) {
    std::vector<int> out;
    for (std::size_t i = 0; i < data.size(); ++i) {
      out.push_back(static_cast<int>(data[i].label));
    }
    return out;
  }

  static Dataset* data_;
  static Dataset* eval_;
  static SelectiveNet* net_;
  static QuantizedSelectiveNet* qnet_;
};

Dataset* QuantPredictorTest::data_ = nullptr;
Dataset* QuantPredictorTest::eval_ = nullptr;
SelectiveNet* QuantPredictorTest::net_ = nullptr;
QuantizedSelectiveNet* QuantPredictorTest::qnet_ = nullptr;

TEST_F(QuantPredictorTest, AccuracyAndCoverageTrackFp32) {
  // The ISSUE acceptance bar: at the same calibrated threshold, quantized
  // top-1 accuracy within 1% absolute and coverage within 2% of fp32.
  const float tau = calibrate_threshold(*net_, *data_, 0.8);
  const auto pf =
      predict_dataset(*load_classifier(*net_, {.threshold = tau}), *eval_);
  const auto pq =
      predict_dataset(*load_classifier(*qnet_, {.threshold = tau}), *eval_);
  const auto y = labels_of(*eval_);
  EXPECT_NEAR(full_accuracy(pq, y), full_accuracy(pf, y), 0.01);
  EXPECT_NEAR(coverage_of(pq), coverage_of(pf), 0.02);
  EXPECT_NEAR(selective_accuracy(pq, y), selective_accuracy(pf, y), 0.02);
}

TEST_F(QuantPredictorTest, BitIdenticalAcrossThreadCounts) {
  const auto quant = load_classifier(*qnet_);
  std::vector<WaferMap> maps;
  for (std::size_t i = 0; i < data_->size(); ++i) {
    maps.push_back((*data_)[i].map);
  }
  ThreadPool::configure_global(1);
  const auto serial = quant->predict_batch(maps);
  ThreadPool::configure_global(4);
  const auto threaded = quant->predict_batch(maps);
  ThreadPool::configure_global(0);  // restore default
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].label, threaded[i].label);
    ASSERT_EQ(serial[i].g, threaded[i].g);
    ASSERT_EQ(serial[i].confidence, threaded[i].confidence);
  }
}

TEST_F(QuantPredictorTest, QuantizedModelFileRoundTripsBitwise) {
  // PID-unique: parallel ctest processes must not share the file.
  const std::string path = "/tmp/wm_quant_predictor_test_" +
                           std::to_string(::getpid()) + ".wsn";
  save_quantized_model(path, *qnet_);
  EXPECT_EQ(probe_model_file(path), ModelFileKind::kQuantized);
  auto loaded = load_quantized_model(path);
  std::remove(path.c_str());
  const Batch batch = data_->full_batch();
  const SelectiveOutput a = qnet_->infer(batch.images);
  const SelectiveOutput b = loaded->infer(batch.images);
  EXPECT_FLOAT_EQ(max_abs_diff(a.logits, b.logits), 0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(a.g, b.g), 0.0f);
}

}  // namespace
}  // namespace wm::selective
