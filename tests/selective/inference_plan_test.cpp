// InferencePlan, the compiled fp32 serving path: its logits and g must be
// the bits of SelectiveNet::forward(x, false), and load_classifier's
// predictions the bits of predict_batched over that forward, for every net
// shape, batch size, thread count and concurrent caller.
#include "selective/inference_plan.hpp"

#include <cstring>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
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

/// The pre-plan serving path: predict_batched over the net's eval forward.
std::vector<SelectivePrediction> reference_predictions(
    SelectiveNet& net, std::span<const WaferMap> maps) {
  return detail::predict_batched(
      [&](const Tensor& x) { return net.forward(x, /*training=*/false); },
      net.options().map_size, /*threshold=*/0.5f, kEvalBatch, maps);
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

TEST_P(InferencePlanTest, BitMatchesTheEvalForward) {
  const SelectiveNetOptions& opts = GetParam().opts;
  SelectiveNet net = random_net(opts, 7);
  const InferencePlan plan(net);
  const auto clf = load_classifier(net, {.threshold = 0.5f,
                                         .eval_batch = kEvalBatch});

  Rng rng(8);
  const Tensor images =
      Tensor::normal(Shape{25, 1, opts.map_size, opts.map_size}, rng);
  const SelectiveOutput want = net.forward(images, /*training=*/false);
  // More wafers than one eval batch, so predict_batch splits them.
  const std::vector<WaferMap> maps =
      random_maps(kEvalBatch * 2 + 3, opts.map_size, 9);
  const auto want_pred = reference_predictions(net, maps);

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
          clf->predict_batch(some),
          std::vector<SelectivePrediction>(want_pred.begin(),
                                           want_pred.begin() + n),
          "predict_batch of " + std::to_string(n) + ", " +
              std::to_string(threads) + " threads");
    }
  }
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
// of a serial run.
TEST(InferencePlanConcurrencyTest, ConcurrentCallersGetTheSerialAnswers) {
  SelectiveNet net = random_net(shrunken(16, true), 11);
  const auto clf = load_classifier(net, {.threshold = 0.5f,
                                         .eval_batch = kEvalBatch});
  const std::vector<WaferMap> maps = random_maps(25, 16, 12);
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
                              "caller " + std::to_string(t) + " round " +
                                  std::to_string(r));
    }
  }
}

TEST(InferencePlanShapeTest, RejectsImagesOfTheWrongSize) {
  SelectiveNet net = random_net(shrunken(16, false), 13);
  const InferencePlan plan(net);
  EXPECT_THROW(plan.infer(Tensor(Shape{2, 1, 8, 8})), ShapeError);
  EXPECT_THROW(plan.infer(Tensor(Shape{2, 2, 16, 16})), ShapeError);
}

}  // namespace
}  // namespace wm::selective
