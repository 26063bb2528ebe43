// SwappableClassifier: canary-verified promotion, version pinning for
// in-flight batches, typed failure paths that keep the incumbent serving,
// and the wm_serve_model_version gauge.
#include "serve/hot_swap.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "serve/inference_engine.hpp"

namespace wm::serve {
namespace {

using namespace std::chrono_literals;

/// Deterministic classifier whose g value marks which version answered.
class MarkerClassifier : public Classifier {
 public:
  explicit MarkerClassifier(float marker, int classes = 9)
      : marker_(marker), classes_(classes) {}

  std::vector<SelectivePrediction> predict_batch(
      std::span<const WaferMap> maps) const override {
    std::vector<SelectivePrediction> out(maps.size());
    for (std::size_t i = 0; i < maps.size(); ++i) {
      out[i].label = maps[i].fail_count();
      out[i].selected = true;
      out[i].g = marker_;
      out[i].confidence = 0.25f;
    }
    return out;
  }

  int num_classes() const override { return classes_; }

 private:
  float marker_;
  int classes_;
};

/// Marker classifier that can block inside predict_batch (gate semantics as
/// in the engine tests) to hold a batch in flight across a swap.
class GatedMarkerClassifier final : public MarkerClassifier {
 public:
  explicit GatedMarkerClassifier(float marker) : MarkerClassifier(marker) {}

  std::vector<SelectivePrediction> predict_batch(
      std::span<const WaferMap> maps) const override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      entered_cv_.notify_all();
      gate_cv_.wait(lock, [&] { return !gated_; });
    }
    return MarkerClassifier::predict_batch(maps);
  }

  void gate() {
    std::lock_guard<std::mutex> lock(mutex_);
    gated_ = true;
  }

  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    gated_ = false;
    gate_cv_.notify_all();
  }

  void wait_entered(int n) const {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ >= n; });
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable gate_cv_;
  mutable std::condition_variable entered_cv_;
  mutable int entered_ = 0;
  bool gated_ = false;
};

/// A broken candidate: disagrees with itself between canary passes.
class FlappingClassifier final : public Classifier {
 public:
  std::vector<SelectivePrediction> predict_batch(
      std::span<const WaferMap> maps) const override {
    const float g = (calls_++ % 2 == 0) ? 0.1f : 0.9f;
    std::vector<SelectivePrediction> out(maps.size());
    for (auto& p : out) p.g = g;
    return out;
  }
  int num_classes() const override { return 9; }

 private:
  mutable std::atomic<int> calls_{0};
};

std::vector<WaferMap> canary_maps(int n = 4, int size = 10) {
  std::vector<WaferMap> maps;
  for (int i = 0; i < n; ++i) {
    WaferMap map(size);
    int fails = i + 1;
    for (int r = 0; r < size && fails > 0; ++r) {
      for (int c = 0; c < size && fails > 0; ++c) {
        if (!map.on_wafer(r, c)) continue;
        map.mark_fail(r, c);
        --fails;
      }
    }
    maps.push_back(map);
  }
  return maps;
}

TEST(HotSwapTest, ServesInitialAsVersionOne) {
  SwappableClassifier swap(std::make_shared<MarkerClassifier>(1.0f));
  EXPECT_EQ(swap.version(), 1u);
  EXPECT_EQ(swap.num_classes(), 9);
  EXPECT_EQ(swap.swaps(), 0u);
  const auto maps = canary_maps(2);
  const auto preds = swap.predict_batch(maps);
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_FLOAT_EQ(preds[0].g, 1.0f);
}

TEST(HotSwapTest, SwapPromotesCandidateAndBumpsVersion) {
  obs::Registry registry;
  SwappableClassifier swap(std::make_shared<MarkerClassifier>(1.0f),
                           {.registry = &registry, .name = "test-model"});
  auto candidate = std::make_shared<MarkerClassifier>(2.0f);
  const auto canaries = canary_maps();

  const auto expected = swap.swap_to(candidate, canaries, "v2-weights");
  EXPECT_EQ(swap.version(), 2u);
  EXPECT_EQ(swap.swaps(), 1u);
  EXPECT_EQ(swap.current().get(), candidate.get());

  // The returned canary bits are exactly what the serving path now emits.
  const auto served = swap.predict_batch(canaries);
  ASSERT_EQ(expected.size(), served.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_TRUE(bit_equal(expected[i], served[i])) << "canary " << i;
    EXPECT_FLOAT_EQ(served[i].g, 2.0f);
  }

  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("wm_serve_model_version 2"), std::string::npos);
  EXPECT_NE(text.find("wm_serve_model_swaps_total 1"), std::string::npos);
}

TEST(HotSwapTest, NonDeterministicCanaryKeepsIncumbent) {
  auto incumbent = std::make_shared<MarkerClassifier>(1.0f);
  SwappableClassifier swap(incumbent);
  EXPECT_THROW(
      swap.swap_to(std::make_shared<FlappingClassifier>(), canary_maps()),
      Error);
  EXPECT_EQ(swap.version(), 1u);
  EXPECT_EQ(swap.swaps(), 0u);
  EXPECT_EQ(swap.current().get(), incumbent.get());
  EXPECT_FLOAT_EQ(swap.predict_batch(canary_maps(1))[0].g, 1.0f);
}

TEST(HotSwapTest, ClassCountMismatchKeepsIncumbent) {
  SwappableClassifier swap(std::make_shared<MarkerClassifier>(1.0f, 9));
  EXPECT_THROW(swap.swap_to(std::make_shared<MarkerClassifier>(2.0f, 5),
                            canary_maps()),
               Error);
  EXPECT_EQ(swap.version(), 1u);
}

TEST(HotSwapTest, NullCandidateThrows) {
  SwappableClassifier swap(std::make_shared<MarkerClassifier>(1.0f));
  EXPECT_THROW(swap.swap_to(nullptr, canary_maps()), Error);
}

TEST(HotSwapTest, InFlightBatchKeepsItsPinnedVersion) {
  auto old_model = std::make_shared<GatedMarkerClassifier>(1.0f);
  SwappableClassifier swap(old_model);

  // Hold a batch inside the old version's predict_batch, swap under it,
  // then release: the in-flight batch must be answered by the version it
  // pinned, not dropped and not re-run on the new one.
  old_model->gate();
  const auto maps = canary_maps(2);
  auto inflight = std::async(std::launch::async,
                             [&] { return swap.predict_batch(maps); });
  old_model->wait_entered(1);

  const auto expected =
      swap.swap_to(std::make_shared<MarkerClassifier>(2.0f), canary_maps());
  EXPECT_EQ(swap.version(), 2u);

  old_model->release();
  const auto pinned = inflight.get();
  ASSERT_EQ(pinned.size(), 2u);
  EXPECT_FLOAT_EQ(pinned[0].g, 1.0f);  // old version answered its batch
  EXPECT_FLOAT_EQ(swap.predict_batch(maps)[0].g, 2.0f);  // new traffic: new
  (void)expected;
}

TEST(HotSwapTest, MidTrafficSwapThroughEngineLosesNothing) {
  SwappableClassifier swap(std::make_shared<MarkerClassifier>(1.0f));
  InferenceEngine engine(swap, {.max_batch = 4, .queue_capacity = 512});
  const auto maps = canary_maps(1);

  std::vector<std::future<SelectivePrediction>> futures;
  for (int i = 0; i < 60; ++i) futures.push_back(engine.submit(maps[0]));
  // Let the pre-swap burst drain so v1 demonstrably answered traffic, then
  // promote v2 and push a second burst through the same engine.
  futures[59].wait();
  (void)swap.swap_to(std::make_shared<MarkerClassifier>(2.0f), canary_maps());
  const std::uint64_t swapped_at = swap.version();
  for (int i = 0; i < 60; ++i) futures.push_back(engine.submit(maps[0]));
  int old_version = 0, new_version = 0;
  for (auto& f : futures) {
    const SelectivePrediction p = f.get();  // throws if a request was lost
    if (p.g == 1.0f) {
      ++old_version;
    } else if (p.g == 2.0f) {
      ++new_version;
    } else {
      FAIL() << "mixed/corrupt prediction g=" << p.g;
    }
  }
  EXPECT_EQ(old_version + new_version, 120);
  EXPECT_GT(old_version, 0);   // pre-swap traffic answered by v1
  EXPECT_GT(new_version, 0);   // post-swap traffic answered by v2
  EXPECT_EQ(swapped_at, 2u);
}

TEST(HotSwapTest, BitEqualComparesRawBits) {
  SelectivePrediction a{.label = 3, .selected = true, .g = 0.5f,
                        .confidence = 0.25f};
  SelectivePrediction b = a;
  EXPECT_TRUE(bit_equal(a, b));
  b.g = std::nextafter(0.5f, 1.0f);
  EXPECT_FALSE(bit_equal(a, b));
  b = a;
  b.label = 4;
  EXPECT_FALSE(bit_equal(a, b));
}

}  // namespace
}  // namespace wm::serve
