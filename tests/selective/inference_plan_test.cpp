// InferencePlan, the compiled serving path of both precisions: its logits
// and g must be the bits of the layer path it replaces (fp32:
// SelectiveNet::forward(x, false); int8: QuantConv2d::forward -> 2x2
// MaxPool2d -> ... -> QuantLinear::forward -> sigmoid), and
// load_classifier's predictions the bits of predict_batched over that path,
// for every net shape, batch size, thread count and concurrent caller.
#include "selective/inference_plan.hpp"

#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "nn/layers/maxpool2d.hpp"
#include "selective/batched_inference.hpp"
#include "selective/load_classifier.hpp"
#include "serve/hot_swap.hpp"

namespace wm::selective {
namespace {

constexpr int kEvalBatch = 8;

SelectiveNetOptions table_one(int map_size, bool batchnorm) {
  return {.map_size = map_size, .use_batchnorm = batchnorm};
}

SelectiveNetOptions shrunken(int map_size, bool batchnorm) {
  return {.map_size = map_size, .num_classes = 9, .conv1_filters = 5,
          .conv2_filters = 7, .conv3_filters = 3, .fc_units = 33,
          .use_batchnorm = batchnorm};
}

/// A net with random biases and BatchNorm state (freshly built nets have
/// zero biases and the identity BatchNorm), so every epilogue term matters.
/// Some gammas are negative, which makes BatchNorm non-monotonic.
SelectiveNet random_net(const SelectiveNetOptions& opts, std::uint64_t seed) {
  Rng rng(seed);
  SelectiveNet net(opts, rng);
  for (nn::Parameter* p : net.parameters()) {
    if (p->name == "conv.bias" || p->name == "linear.bias" ||
        p->name == "bn.beta") {
      for (std::int64_t i = 0; i < p->value.numel(); ++i) {
        p->value[i] = static_cast<float>(rng.normal(0.0, 0.3));
      }
    } else if (p->name == "bn.gamma") {
      for (std::int64_t i = 0; i < p->value.numel(); ++i) {
        p->value[i] = static_cast<float>(rng.normal(0.8, 0.6));
      }
    }
  }
  const std::vector<Tensor*> buffers = net.buffers();
  for (std::size_t b = 0; b < buffers.size(); ++b) {
    Tensor& t = *buffers[b];
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      // Buffers alternate running mean, running variance.
      t[i] = b % 2 == 0 ? static_cast<float>(rng.normal(0.0, 0.5))
                        : static_cast<float>(rng.uniform(0.2, 3.0));
    }
  }
  return net;
}

std::vector<WaferMap> random_maps(int n, int size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<WaferMap> maps;
  for (int i = 0; i < n; ++i) {
    WaferMap m(size);
    for (int r = 0; r < size; ++r) {
      for (int c = 0; c < size; ++c) {
        if (rng.bernoulli(0.3)) m.mark_fail(r, c);
      }
    }
    maps.push_back(m);
  }
  return maps;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// The rows [0, n) of a (N, ...) tensor.
Tensor head_rows(const Tensor& t, std::int64_t n) {
  std::vector<std::int64_t> dims = t.shape().dims();
  const std::int64_t row = t.numel() / dims[0];
  dims[0] = n;
  Tensor out{Shape(dims)};
  std::memcpy(out.data(), t.data(),
              static_cast<std::size_t>(n * row) * sizeof(float));
  return out;
}

/// The int8 layer path: each quantized layer's own forward, MaxPool2d
/// between the convs and 1 / (1 + e^-x) after head_g.
SelectiveOutput int8_layer_path(const QuantizedSelectiveNet& q,
                                const Tensor& images) {
  nn::MaxPool2d pool(2);
  Tensor x = images;
  for (const nn::quant::QuantConv2d* conv : {&q.conv1(), &q.conv2(),
                                             &q.conv3()}) {
    x = pool.forward(conv->forward(x), /*training=*/false);
  }
  const std::int64_t n = x.dim(0);
  x = x.reshape(Shape{n, x.numel() / n});
  x = q.fc().forward(x);
  SelectiveOutput out;
  out.logits = q.head_f().forward(x);
  out.g = q.head_g().forward(x);
  for (std::int64_t i = 0; i < out.g.numel(); ++i) {
    out.g[i] = 1.0f / (1.0f + std::exp(-out.g[i]));
  }
  return out;
}

void expect_same_predictions(const std::vector<SelectivePrediction>& got,
                             const std::vector<SelectivePrediction>& want,
                             const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(serve::bit_equal(got[i], want[i])) << what << " wafer " << i;
  }
}

struct PlanCase {
  std::string name;
  SelectiveNetOptions opts;
};

// Without a printer gtest dumps the struct's bytes into the test's listed
// name: the string's heap pointer and padding, so ctest's discovered name
// changed with every build.
void PrintTo(const PlanCase& c, std::ostream* os) { *os << c.name; }

class InferencePlanTest : public ::testing::TestWithParam<PlanCase> {
 protected:
  void TearDown() override { ThreadPool::configure_global(0); }
};

/// Checks `plan` and `clf` against `reference` (the layer path) on batches
/// of 1, 7 and 25 images and on predict_batch calls, at pool sizes 1 and 4.
template <typename Reference>
void expect_bit_match(const InferencePlan& plan, const LoadedClassifier& clf,
                      const Reference& reference) {
  const int map = plan.options().map_size;
  Rng rng(8);
  const Tensor images = Tensor::normal(Shape{25, 1, map, map}, rng);
  const SelectiveOutput want = reference(images);
  // More wafers than one eval batch, so predict_batch splits them.
  const std::vector<WaferMap> maps = random_maps(kEvalBatch * 2 + 3, map, 9);
  // The pre-plan serving path: predict_batched over the layer path.
  const auto want_pred = detail::predict_batched(
      reference, map, /*threshold=*/0.5f, kEvalBatch, maps);

  for (const std::size_t threads : {1, 4}) {
    ThreadPool::configure_global(threads);
    for (const std::int64_t n : {1, 7, 25}) {
      const std::string what =
          "batch " + std::to_string(n) + ", " + std::to_string(threads) +
          " threads";
      const SelectiveOutput got = plan.infer(head_rows(images, n));
      EXPECT_TRUE(same_bits(got.logits, head_rows(want.logits, n))) << what;
      EXPECT_TRUE(same_bits(got.g, head_rows(want.g, n))) << what;
    }
    for (const std::size_t n : {std::size_t{1}, std::size_t{7}, maps.size()}) {
      const std::span<const WaferMap> some(maps.data(), n);
      expect_same_predictions(
          clf.predict_batch(some),
          std::vector<SelectivePrediction>(want_pred.begin(),
                                           want_pred.begin() + n),
          "predict_batch of " + std::to_string(n) + ", " +
              std::to_string(threads) + " threads");
    }
  }
}

TEST_P(InferencePlanTest, BitMatchesTheEvalForward) {
  SelectiveNet net = random_net(GetParam().opts, 7);
  const InferencePlan plan(net);
  EXPECT_FALSE(plan.is_quantized());
  const auto clf = load_classifier(net, {.threshold = 0.5f,
                                         .eval_batch = kEvalBatch});
  expect_bit_match(plan, *clf, [&](const Tensor& x) {
    return net.forward(x, /*training=*/false);
  });
}

TEST_P(InferencePlanTest, Int8BitMatchesTheLayerPath) {
  SelectiveNet net = random_net(GetParam().opts, 7);
  const QuantizedSelectiveNet qnet = quantize_selective_net(net);
  const InferencePlan plan(qnet);
  EXPECT_TRUE(plan.is_quantized());
  const auto clf = load_classifier(qnet, {.threshold = 0.5f,
                                          .eval_batch = kEvalBatch});
  expect_bit_match(plan, *clf, [&](const Tensor& x) {
    return int8_layer_path(qnet, x);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Nets, InferencePlanTest,
    ::testing::Values(PlanCase{"TableOneBn32", table_one(32, true)},
                      PlanCase{"TableOne32", table_one(32, false)},
                      PlanCase{"TableOneBn64", table_one(64, true)},
                      PlanCase{"TableOne64", table_one(64, false)},
                      PlanCase{"ShrunkenBn8", shrunken(8, true)},
                      PlanCase{"Shrunken8", shrunken(8, false)},
                      PlanCase{"ShrunkenBn16", shrunken(16, true)},
                      PlanCase{"Shrunken16", shrunken(16, false)}),
    [](const ::testing::TestParamInfo<PlanCase>& info) {
      return info.param.name;
    });

// Per-thread scratch and the image fan-out: four callers on one classifier
// at once, over a pool that also splits their batches, each get the answers
// of a serial run, for both precisions.
TEST(InferencePlanConcurrencyTest, ConcurrentCallersGetTheSerialAnswers) {
  SelectiveNet net = random_net(shrunken(16, true), 11);
  const ClassifierLoadOptions opts{.threshold = 0.5f, .eval_batch = kEvalBatch};
  const std::unique_ptr<LoadedClassifier> clfs[] = {
      load_classifier(net, opts),
      load_classifier(quantize_selective_net(net), opts)};
  const std::vector<WaferMap> maps = random_maps(25, 16, 12);
  for (const auto& clf : clfs) {
    const std::string precision = clf->is_quantized() ? "int8" : "fp32";
    ThreadPool::configure_global(1);
    const auto serial = clf->predict_batch(maps);
    ThreadPool::configure_global(4);
    constexpr int kRounds = 5;
    std::vector<std::vector<std::vector<SelectivePrediction>>> got(
        4, std::vector<std::vector<SelectivePrediction>>(kRounds));
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < got.size(); ++t) {
      callers.emplace_back([&, t] {
        for (int r = 0; r < kRounds; ++r) got[t][r] = clf->predict_batch(maps);
      });
    }
    for (std::thread& c : callers) c.join();
    ThreadPool::configure_global(0);
    for (std::size_t t = 0; t < got.size(); ++t) {
      for (int r = 0; r < kRounds; ++r) {
        expect_same_predictions(got[t][r], serial,
                                precision + " caller " + std::to_string(t) +
                                    " round " + std::to_string(r));
      }
    }
  }
}

TEST(InferencePlanShapeTest, RejectsImagesOfTheWrongSize) {
  SelectiveNet net = random_net(shrunken(16, false), 13);
  for (const InferencePlan& plan :
       {InferencePlan(net), InferencePlan(quantize_selective_net(net))}) {
    EXPECT_THROW(plan.infer(Tensor(Shape{2, 1, 8, 8})), ShapeError);
    EXPECT_THROW(plan.infer(Tensor(Shape{2, 2, 16, 16})), ShapeError);
  }
}

// The plan sizes its scratch for stride-1 convs that keep the image size, so
// an int8 net with any other conv is refused at compile time.
TEST(InferencePlanShapeTest, RejectsInt8ConvsThatChangeTheImageSize) {
  SelectiveNet net = random_net(shrunken(16, false), 14);
  const QuantizedSelectiveNet q = quantize_selective_net(net);
  const auto with_conv2 = [&](std::int64_t kernel, std::int64_t stride,
                              std::int64_t pad) {
    nn::Conv2dOptions o = q.conv2().options();
    o.kernel = kernel;
    o.stride = stride;
    o.pad = pad;
    Rng rng(15);
    const Tensor w = Tensor::normal(
        Shape{o.out_channels, o.in_channels * kernel * kernel}, rng);
    return QuantizedSelectiveNet(
        q.options(), q.conv1(),
        nn::quant::QuantConv2d(o, w, q.conv2().bias(), /*fuse_relu=*/true),
        q.conv3(), q.fc(), q.head_f(), q.head_g());
  };
  // Any odd kernel keeps the size, and the plan takes its geometry from
  // the layer.
  const QuantizedSelectiveNet k5 = with_conv2(5, 1, 2);
  Rng rng(16);
  const Tensor images = Tensor::normal(Shape{3, 1, 16, 16}, rng);
  const SelectiveOutput got = InferencePlan(k5).infer(images);
  const SelectiveOutput want = int8_layer_path(k5, images);
  EXPECT_TRUE(same_bits(got.logits, want.logits));
  EXPECT_TRUE(same_bits(got.g, want.g));
  EXPECT_THROW(InferencePlan(with_conv2(3, 2, 1)), Error);
  EXPECT_THROW(InferencePlan(with_conv2(3, 1, 0)), Error);
  EXPECT_THROW(InferencePlan(with_conv2(3, 1, 2)), Error);
  EXPECT_THROW(InferencePlan(with_conv2(4, 1, 2)), Error);
}

}  // namespace
}  // namespace wm::selective
