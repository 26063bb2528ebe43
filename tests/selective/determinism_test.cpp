// Thread-count determinism: training must not depend on the pool size at
// all (every reduction runs in an order fixed by the data, never by the
// pool), and the serial path (WM_THREADS=1) must be exactly reproducible
// run-to-run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "selective/model_file.hpp"
#include "selective/trainer.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm::selective {
namespace {

Dataset tiny_dataset(std::uint64_t seed) {
  Rng rng(seed);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts[static_cast<std::size_t>(DefectType::kCenter)] = 12;
  spec.class_counts[static_cast<std::size_t>(DefectType::kEdgeRing)] = 12;
  spec.class_counts[static_cast<std::size_t>(DefectType::kNone)] = 12;
  return synth::generate_dataset(spec, rng);
}

std::vector<float> train_losses(std::size_t total_threads) {
  ThreadPool::configure_global(total_threads);
  Rng rng(42);
  SelectiveNet net({.map_size = 16, .num_classes = 9, .conv1_filters = 8,
                    .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32},
                   rng);
  Dataset train = tiny_dataset(7);
  train.shuffle(rng);
  SelectiveTrainer trainer({.epochs = 3, .batch_size = 12,
                            .learning_rate = 1e-3, .target_coverage = 0.8});
  const TrainingLog log = trainer.train(net, train, nullptr, rng);
  ThreadPool::configure_global(0);
  std::vector<float> losses;
  for (const auto& e : log.epochs) losses.push_back(e.loss);
  return losses;
}

TEST(DeterminismTest, SerialPathIsExactlyReproducible) {
  const auto a = train_losses(1);
  const auto b = train_losses(1);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(DeterminismTest, ThreadedTrainingMatchesSerialExactly) {
  const auto serial = train_losses(1);
  for (const std::size_t threads : {2u, 3u, 4u}) {
    const auto threaded = train_losses(threads);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], threaded[i])
          << "epoch " << i << " at pool size " << threads;
    }
  }
}

/// The bytes save_model writes for a small BatchNorm net trained on a pool
/// of `total_threads`.
std::string trained_model_bytes(std::size_t total_threads) {
  ThreadPool::configure_global(total_threads);
  Rng rng(43);
  SelectiveNet net({.map_size = 16, .num_classes = 9, .conv1_filters = 8,
                    .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32,
                    .use_batchnorm = true},
                   rng);
  Dataset train = tiny_dataset(9);
  train.shuffle(rng);
  SelectiveTrainer trainer({.epochs = 2, .batch_size = 12,
                            .learning_rate = 1e-3, .target_coverage = 0.8});
  trainer.train(net, train, nullptr, rng);
  ThreadPool::configure_global(0);
  const std::string path = "/tmp/wm_determinism_test_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(total_threads) + ".wsn";
  save_model(path, net);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

TEST(DeterminismTest, ModelFileBytesMatchAtEveryPoolSize) {
  const std::string serial = trained_model_bytes(1);
  ASSERT_FALSE(serial.empty());
  for (const std::size_t threads : {2u, 3u, 4u}) {
    EXPECT_TRUE(trained_model_bytes(threads) == serial)
        << "WSN1 bytes differ at pool size " << threads;
  }
}

}  // namespace
}  // namespace wm::selective
