#include "selective/model_file.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "selective/load_classifier.hpp"
#include "selective/trainer.hpp"
#include "tensor/tensor_ops.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm::selective {
namespace {

class ModelFileTest : public ::testing::Test {
 protected:
  // PID-unique path: ctest runs each test as its own process, possibly in
  // parallel, so a fixed /tmp name would race between test processes.
  std::string path_ = "/tmp/wm_model_file_test_" +
                      std::to_string(::getpid()) + ".wsn";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(ModelFileTest, RoundTripPreservesOptionsAndWeights) {
  Rng rng(1);
  SelectiveNet net({.map_size = 16, .num_classes = 9, .conv1_filters = 8,
                    .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32,
                    .use_batchnorm = true},
                   rng);
  save_model(path_, net);
  auto loaded = load_model(path_);
  EXPECT_EQ(loaded->options().map_size, 16);
  EXPECT_TRUE(loaded->options().use_batchnorm);
  EXPECT_EQ(loaded->parameter_count(), net.parameter_count());
}

TEST_F(ModelFileTest, LoadedModelInfersIdentically) {
  // Train briefly so BatchNorm running stats are non-trivial, then compare
  // inference-mode outputs of the original and the reloaded model.
  Rng rng(2);
  SelectiveNet net({.map_size = 16, .num_classes = 9, .conv1_filters = 8,
                    .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32,
                    .use_batchnorm = true},
                   rng);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts.fill(4);
  const Dataset data = synth::generate_dataset(spec, rng);
  SelectiveTrainer trainer({.epochs = 2, .batch_size = 8,
                            .learning_rate = 1e-3, .target_coverage = 0.5});
  trainer.train(net, data, nullptr, rng);

  save_model(path_, net);
  auto loaded = load_model(path_);
  const Batch batch = data.full_batch();
  const SelectiveOutput a = net.forward(batch.images, false);
  const SelectiveOutput b = loaded->forward(batch.images, false);
  EXPECT_FLOAT_EQ(max_abs_diff(a.logits, b.logits), 0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(a.g, b.g), 0.0f);
}

TEST_F(ModelFileTest, PlainNetWithoutBuffersRoundTrips) {
  Rng rng(3);
  SelectiveNet net({.map_size = 16, .num_classes = 9, .conv1_filters = 8,
                    .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32,
                    .use_batchnorm = false},
                   rng);
  save_model(path_, net);
  auto loaded = load_model(path_);
  EXPECT_FALSE(loaded->options().use_batchnorm);
  Rng rng2(4);
  const Tensor x = Tensor::uniform(Shape{2, 1, 16, 16}, rng2);
  EXPECT_FLOAT_EQ(max_abs_diff(net.forward(x, false).logits,
                               loaded->forward(x, false).logits),
                  0.0f);
}

TEST_F(ModelFileTest, BadFilesThrow) {
  EXPECT_THROW(load_model("/nonexistent/model.wsn"), IoError);
  std::ofstream out(path_, std::ios::binary);
  out << "garbage";
  out.close();
  EXPECT_THROW(load_model(path_), IoError);
}

TEST_F(ModelFileTest, UnknownFutureVersionRejectedWithClearError) {
  std::ofstream out(path_, std::ios::binary);
  out << "WSN9";
  for (int i = 0; i < 64; ++i) out.put('\0');
  out.close();
  for (const auto& attempt : {0, 1, 2}) {
    try {
      if (attempt == 0) load_model(path_);
      else if (attempt == 1) load_quantized_model(path_);
      else probe_model_file(path_);
      FAIL() << "WSN9 must be rejected (attempt " << attempt << ")";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported model file version"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("WSN9"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(ModelFileTest, LoadersRejectTheOtherFormatWithGuidance) {
  Rng rng(5);
  SelectiveNet net({.map_size = 16, .num_classes = 9, .conv1_filters = 8,
                    .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32,
                    .use_batchnorm = true},
                   rng);
  save_model(path_, net);
  EXPECT_EQ(probe_model_file(path_), ModelFileKind::kFloat);
  EXPECT_THROW(load_quantized_model(path_), IoError);

  const QuantizedSelectiveNet qnet = quantize_selective_net(net);
  save_quantized_model(path_, qnet);
  EXPECT_EQ(probe_model_file(path_), ModelFileKind::kQuantized);
  try {
    load_model(path_);
    FAIL() << "fp32 loader must reject a WSN2 file";
  } catch (const IoError& e) {
    // The error should steer the user to the right loader.
    EXPECT_NE(std::string(e.what()).find("quantized"), std::string::npos)
        << e.what();
  }
}

TEST_F(ModelFileTest, TruncatedQuantizedFileThrows) {
  Rng rng(6);
  SelectiveNet net({.map_size = 16, .num_classes = 9, .conv1_filters = 8,
                    .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32,
                    .use_batchnorm = false},
                   rng);
  const QuantizedSelectiveNet qnet = quantize_selective_net(net);
  save_quantized_model(path_, qnet);
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  const std::streamsize full = in.tellg();
  in.seekg(0);
  std::vector<char> bytes(static_cast<std::size_t>(full));
  in.read(bytes.data(), full);
  in.close();
  ASSERT_GT(full, 16);
  // Cut at several depths: mid-header, mid-weights, mid-final-layer.
  for (const std::streamsize cut : {std::streamsize{6}, full / 3, full - 7}) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), cut);
    out.close();
    EXPECT_THROW(load_quantized_model(path_), IoError) << "cut at " << cut;
  }
}

TEST_F(ModelFileTest, ZeroByteFileThrowsOnProbeAndAutoLoad) {
  { std::ofstream out(path_, std::ios::binary | std::ios::trunc); }
  EXPECT_THROW(probe_model_file(path_), IoError);
  EXPECT_THROW(load_classifier(path_), IoError);
}

TEST_F(ModelFileTest, DirectoryPathThrowsNotCrashes) {
  // A directory opens readably on POSIX but every read fails; both entry
  // points must surface that as IoError, not garbage or a crash.
  EXPECT_THROW(probe_model_file("/tmp"), IoError);
  EXPECT_THROW(load_classifier("/tmp"), IoError);
}

TEST_F(ModelFileTest, FileShorterThanHeaderThrows) {
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write("WS", 2);  // shorter than the magic+version header
  }
  EXPECT_THROW(probe_model_file(path_), IoError);
  EXPECT_THROW(load_classifier(path_), IoError);
}

/// Writes a WSN1 or WSN2 header (magic + seven i32 options) followed by
/// `tail`, a little-endian byte string.
void write_model(const std::string& path, char version,
                 std::initializer_list<std::int32_t> options,
                 const std::string& tail = "") {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "WSN" << version;
  for (const std::int32_t v : options) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  out << tail;
}

template <typename T>
std::string bytes_of(T v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}

// Hostile files: each declares a size far beyond its own length. Loading
// must fail with IoError before the size is allocated.
TEST_F(ModelFileTest, HugeMapSizeInHeaderThrowsBeforeBuildingTheNet) {
  // 32 bytes: map_size 2^20 would need ~2^49 bytes of fc weights.
  write_model(path_, '1', {1 << 20, 9, 64, 32, 32, 256, 0});
  EXPECT_THROW(load_classifier(path_), IoError);
  // map_size 1024 fits in memory (537 MB of weights) but not in the file.
  write_model(path_, '1', {1024, 9, 64, 32, 32, 256, 0});
  EXPECT_THROW(load_classifier(path_), IoError);
}

TEST_F(ModelFileTest, HugeTensorDimsThrowBeforeAllocating) {
  // 79 bytes: a tiny net whose first parameter tensor claims [2^40, 1].
  // The weight sizes its options imply already exceed the file; read_tensor
  // checks the tensor's own size too (SerializeTest).
  const std::string name = "conv.weight";
  write_model(path_, '1', {8, 2, 1, 1, 1, 1, 0},
              "WMM1" + bytes_of<std::uint32_t>(12) +
                  bytes_of<std::uint32_t>(name.size()) + name + "WMT1" +
                  bytes_of<std::uint32_t>(2) +
                  bytes_of<std::int64_t>(std::int64_t{1} << 40) +
                  bytes_of<std::int64_t>(1));
  EXPECT_THROW(load_classifier(path_), IoError);
}

TEST_F(ModelFileTest, HugeQuantizedLayerThrowsBeforeAllocating) {
  // 44 bytes: the first int8 layer claims 2^20 x 2^20 weights.
  write_model(path_, '2', {16, 9, 8, 8, 8, 32, 0},
              bytes_of<std::int32_t>(1 << 20) +
                  bytes_of<std::int32_t>(1 << 20) + bytes_of<std::int32_t>(1));
  EXPECT_THROW(load_classifier(path_), IoError);
}

}  // namespace
}  // namespace wm::selective
