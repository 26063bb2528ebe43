// Micro-batcher behaviour: flush triggers, backpressure, drain-then-stop,
// stats, and bit-identical results vs. a direct predict_batch call.
#include "serve/inference_engine.hpp"

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "selective/load_classifier.hpp"
#include "selective/selective_net.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm::serve {
namespace {

using namespace std::chrono_literals;

/// Deterministic stand-in classifier: label = fail_count of the wafer, never
/// selects. An optional gate blocks inside predict_batch until release(),
/// letting tests hold a batch in flight.
class FakeClassifier final : public Classifier {
 public:
  explicit FakeClassifier(bool gated = false) : gated_(gated) {}

  std::vector<SelectivePrediction> predict_batch(
      std::span<const WaferMap> maps) const override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      entered_cv_.notify_all();
      gate_cv_.wait(lock, [&] { return !gated_; });
      batch_sizes_.push_back(maps.size());
    }
    std::vector<SelectivePrediction> out(maps.size());
    for (std::size_t i = 0; i < maps.size(); ++i) {
      out[i].label = maps[i].fail_count();
      out[i].selected = false;
      out[i].g = 0.25f;
    }
    return out;
  }

  int num_classes() const override { return 1 << 16; }

  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    gated_ = false;
    gate_cv_.notify_all();
  }

  /// Blocks until predict_batch has been entered at least n times.
  void wait_entered(int n) const {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ >= n; });
  }

  std::vector<std::size_t> batch_sizes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return batch_sizes_;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable gate_cv_;
  mutable std::condition_variable entered_cv_;
  mutable std::vector<std::size_t> batch_sizes_;
  mutable int entered_ = 0;
  bool gated_;
};

class ThrowingClassifier final : public Classifier {
 public:
  std::vector<SelectivePrediction> predict_batch(
      std::span<const WaferMap>) const override {
    throw InvalidArgument("deliberate failure");
  }
  int num_classes() const override { return 0; }
};

/// Wafers with distinct, deterministic fail counts.
std::vector<WaferMap> test_maps(int n, int size = 12) {
  std::vector<WaferMap> maps;
  for (int i = 0; i < n; ++i) {
    WaferMap map(size);
    int to_fail = i + 1;
    for (int r = 0; r < size && to_fail > 0; ++r) {
      for (int c = 0; c < size && to_fail > 0; ++c) {
        if (!map.on_wafer(r, c)) continue;
        map.mark_fail(r, c);
        --to_fail;
      }
    }
    maps.push_back(map);
  }
  return maps;
}

TEST(InferenceEngineTest, FlushesWhenBatchFills) {
  FakeClassifier clf(/*gated=*/true);
  InferenceEngine engine(clf, {.max_batch = 4, .queue_capacity = 64});
  const auto maps = test_maps(9);
  std::vector<std::future<SelectivePrediction>> futures;
  futures.push_back(engine.submit(maps[0]));
  clf.wait_entered(1);  // the batcher holds a batch of one in the gate
  for (std::size_t i = 1; i < maps.size(); ++i) {
    futures.push_back(engine.submit(maps[i]));
  }
  clf.release();  // eight wait behind it: two full batches
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().label, maps[i].fail_count());
  }
  EXPECT_EQ(clf.batch_sizes(), (std::vector<std::size_t>{1, 4, 4}));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 9u);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.full_flushes, 2u);
  EXPECT_EQ(stats.timer_flushes, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size(), 3.0);
}

TEST(InferenceEngineTest, ShutdownDrainsQueuedRequests) {
  FakeClassifier clf(/*gated=*/true);
  InferenceEngine engine(clf, {.max_batch = 100, .queue_capacity = 100});
  const auto maps = test_maps(6);
  std::vector<std::future<SelectivePrediction>> futures;
  futures.push_back(engine.submit(maps[0]));
  clf.wait_entered(1);  // the batcher holds maps[0] in the gate
  for (std::size_t i = 1; i < maps.size(); ++i) {
    futures.push_back(engine.submit(maps[i]));
  }
  // Shutdown begins with five requests queued: it must flush them all
  // before it stops.
  std::thread stopper([&] { engine.shutdown(); });
  while (engine.accepting()) std::this_thread::sleep_for(1ms);
  EXPECT_EQ(engine.queue_depth(), 5u);
  clf.release();
  stopper.join();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(0s), std::future_status::ready);
    EXPECT_EQ(futures[i].get().label, maps[i].fail_count());
  }
  EXPECT_EQ(engine.stats().requests, 6u);
  EXPECT_THROW(engine.submit(maps[0]), Error);
  engine.shutdown();  // idempotent
}

TEST(InferenceEngineTest, SubmitBlocksWhenQueueFull) {
  FakeClassifier clf(/*gated=*/true);
  InferenceEngine engine(clf, {.max_batch = 1, .queue_capacity = 2});
  const auto maps = test_maps(4);
  std::vector<std::future<SelectivePrediction>> futures;
  futures.push_back(engine.submit(maps[0]));
  clf.wait_entered(1);  // first request is now held inside the classifier
  futures.push_back(engine.submit(maps[1]));
  futures.push_back(engine.submit(maps[2]));
  EXPECT_EQ(engine.queue_depth(), 2u);  // at capacity

  std::atomic<bool> fourth_submitted{false};
  std::promise<std::future<SelectivePrediction>> fourth;
  std::thread producer([&] {
    fourth.set_value(engine.submit(maps[3]));  // must block on backpressure
    fourth_submitted = true;
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(fourth_submitted);  // still blocked while the queue is full

  clf.release();
  producer.join();
  EXPECT_TRUE(fourth_submitted);
  futures.push_back(fourth.get_future().get());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().label, maps[i].fail_count());
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.batches, 4u);  // max_batch = 1: one forward per request
  EXPECT_EQ(stats.abstained, 4u);  // the fake never selects
}

TEST(InferenceEngineTest, ResultsBitMatchDirectPredictBatch) {
  Rng rng(11);
  selective::SelectiveNet net({.map_size = 16, .num_classes = 9,
                               .conv1_filters = 8, .conv2_filters = 8,
                               .conv3_filters = 8, .fc_units = 32},
                              rng);
  const auto predictor = load_classifier(net);

  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts.fill(3);
  Rng data_rng(12);
  const Dataset data = synth::generate_dataset(spec, data_rng);
  std::vector<WaferMap> maps;
  for (std::size_t i = 0; i < data.size(); ++i) maps.push_back(data[i].map);

  const auto direct = predictor->predict_batch(maps);

  InferenceEngine engine(*predictor, {.max_batch = 4, .queue_capacity = 8});
  std::vector<std::future<SelectivePrediction>> futures;
  for (const auto& m : maps) futures.push_back(engine.submit(m));
  for (std::size_t i = 0; i < maps.size(); ++i) {
    const SelectivePrediction p = futures[i].get();
    // Bit-identical, not approximately equal: micro-batch composition must
    // not change per-sample results (the Classifier contract).
    EXPECT_EQ(p.label, direct[i].label);
    EXPECT_EQ(p.g, direct[i].g);
    EXPECT_EQ(p.confidence, direct[i].confidence);
    EXPECT_EQ(p.selected, direct[i].selected);
  }
}

TEST(InferenceEngineTest, ManyProducersAllGetTheirOwnAnswer) {
  FakeClassifier clf;
  InferenceEngine engine(clf, {.max_batch = 8, .queue_capacity = 16});
  const auto maps = test_maps(48);
  constexpr int kProducers = 6;
  std::vector<std::thread> producers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = t; i < static_cast<int>(maps.size()); i += kProducers) {
        const SelectivePrediction p =
            engine.predict(maps[static_cast<std::size_t>(i)]);
        if (p.label != maps[static_cast<std::size_t>(i)].fail_count()) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  EXPECT_EQ(mismatches, 0);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, maps.size());
  EXPECT_GE(stats.mean_batch_size(), 1.0);
  EXPECT_LE(stats.mean_batch_size(), 8.0);
}

TEST(InferenceEngineTest, ClassifierExceptionPropagatesToFutures) {
  ThrowingClassifier clf;
  InferenceEngine engine(clf, {.max_batch = 2, .queue_capacity = 8});
  auto f1 = engine.submit(test_maps(1)[0]);
  EXPECT_THROW(f1.get(), InvalidArgument);
  // The engine survives a failing batch and keeps serving.
  auto f2 = engine.submit(test_maps(1)[0]);
  EXPECT_THROW(f2.get(), InvalidArgument);
  EXPECT_TRUE(engine.accepting());
  EXPECT_EQ(engine.stats().requests, 2u);
}

TEST(InferenceEngineTest, StatsSnapshotAndTextDump) {
  FakeClassifier clf;
  InferenceEngine engine(clf, {.max_batch = 4, .queue_capacity = 8});
  for (const auto& m : test_maps(9)) engine.predict(m);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 9u);
  EXPECT_EQ(stats.abstained, 9u);
  EXPECT_EQ(stats.latency.count, 9u);
  EXPECT_LE(stats.latency.quantile(0.50), stats.latency.quantile(0.95));
  EXPECT_LE(stats.latency.quantile(0.95), stats.latency.quantile(0.99));
  const std::string dump = stats.to_string();
  EXPECT_NE(dump.find("requests:"), std::string::npos);
  EXPECT_NE(dump.find("batches:"), std::string::npos);
  EXPECT_NE(dump.find("latency:"), std::string::npos);
}

TEST(InferenceEngineTest, RejectsBadOptions) {
  FakeClassifier clf;
  EXPECT_THROW(InferenceEngine(clf, {.max_batch = 0}), InvalidArgument);
  EXPECT_THROW(InferenceEngine(clf, {.max_batch = -2}), InvalidArgument);
  EXPECT_THROW(InferenceEngine(clf, {.queue_capacity = 0}), InvalidArgument);
}

TEST(InferenceEngineTest, StatsTextExposesPrometheusMetrics) {
  FakeClassifier clf;
  InferenceEngine engine(clf, {.max_batch = 4});
  const WaferMap map = test_maps(1)[0];
  for (int i = 0; i < 8; ++i) (void)engine.predict(map);
  engine.shutdown();

  const std::string text = engine.stats_text();
  EXPECT_NE(text.find("# TYPE wm_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("wm_serve_requests_total 8"), std::string::npos);
  EXPECT_NE(text.find("wm_serve_batch_size_count"), std::string::npos);
  EXPECT_NE(text.find("wm_serve_request_latency_us_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("wm_serve_queue_depth"), std::string::npos);
}

TEST(InferenceEngineTest, StatsMatchRegistryInstruments) {
  FakeClassifier clf;
  InferenceEngine engine(clf, {.max_batch = 2});
  const WaferMap map = test_maps(1)[0];
  for (int i = 0; i < 6; ++i) (void)engine.predict(map);
  engine.shutdown();

  const EngineStats s = engine.stats();
  obs::Registry& reg = engine.metrics_registry();
  EXPECT_EQ(s.requests, reg.counter("wm_serve_requests_total", "").value());
  EXPECT_EQ(s.batches, reg.counter("wm_serve_batches_total", "").value());
  EXPECT_EQ(s.abstained, reg.counter("wm_serve_abstained_total", "").value());
  EXPECT_EQ(s.full_flushes + s.timer_flushes, s.batches);
  EXPECT_EQ(s.latency.count, s.requests);
}

TEST(InferenceEngineTest, SharedRegistryAggregatesAcrossEngines) {
  obs::Registry shared;
  FakeClassifier clf;
  const WaferMap map = test_maps(1)[0];
  {
    InferenceEngine a(clf, {.max_batch = 1, .registry = &shared});
    InferenceEngine b(clf, {.max_batch = 1, .registry = &shared});
    (void)a.predict(map);
    (void)a.predict(map);
    (void)b.predict(map);
  }
  EXPECT_EQ(shared.counter("wm_serve_requests_total", "").value(), 3u);
}

TEST(InferenceEngineTest, TrySubmitShedsInsteadOfBlocking) {
  FakeClassifier clf(/*gated=*/true);
  InferenceEngine engine(clf, {.max_batch = 1, .queue_capacity = 2});
  const auto maps = test_maps(4);
  std::vector<std::future<SelectivePrediction>> futures;
  futures.push_back(engine.submit(maps[0]));
  clf.wait_entered(1);  // first request is now held inside the classifier
  // Fill the queue through the non-blocking path.
  auto f1 = engine.try_submit(maps[1]);
  auto f2 = engine.try_submit(maps[2]);
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(engine.queue_depth(), 2u);  // at capacity

  // The next try_submit must return immediately with nullopt, not block.
  const auto start = std::chrono::steady_clock::now();
  auto rejected = engine.try_submit(maps[3]);
  EXPECT_FALSE(rejected.has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
  EXPECT_EQ(engine.stats().shed, 1u);
  EXPECT_EQ(engine.metrics_registry().counter("wm_serve_shed_total", "")
                .value(),
            1u);

  clf.release();
  futures.push_back(std::move(*f1));
  futures.push_back(std::move(*f2));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().label, maps[i].fail_count());
  }
  // Accepted try_submit requests completed; the shed one never counted.
  EXPECT_EQ(engine.stats().requests, 3u);
}

TEST(InferenceEngineTest, TrySubmitHookRunsOnceItsFutureIsReady) {
  FakeClassifier clf(/*gated=*/true);
  InferenceEngine engine(clf, {.max_batch = 2});
  const auto maps = test_maps(5);
  std::vector<std::shared_future<SelectivePrediction>> futures;
  futures.reserve(maps.size());
  std::vector<int> runs(maps.size(), 0);  // written by the batcher only
  int ready_at_run = 0;
  for (std::size_t i = 0; i < maps.size(); ++i) {
    futures.push_back(engine
                          .try_submit(maps[i], {}, nullptr,
                                      [&, i] {
                                        ++runs[i];
                                        ready_at_run +=
                                            futures[i].wait_for(0s) ==
                                            std::future_status::ready;
                                      })
                          ->share());
  }
  clf.release();      // no batch completes before every future is stored
  engine.shutdown();  // drains and joins: every hook has run
  EXPECT_EQ(ready_at_run, 5);
  EXPECT_EQ(runs, std::vector<int>(maps.size(), 1));

  // A failed batch runs its hooks too, after setting the exception.
  ThrowingClassifier bad;
  InferenceEngine failing(bad, {.max_batch = 2});
  std::atomic<int> failed_runs{0};
  auto f = failing.try_submit(maps[0], {}, nullptr, [&] { ++failed_runs; });
  ASSERT_TRUE(f.has_value());
  EXPECT_THROW(f->get(), InvalidArgument);
  failing.shutdown();
  EXPECT_EQ(failed_runs.load(), 1);
}

TEST(InferenceEngineTest, TrySubmitThrowsAfterShutdown) {
  FakeClassifier clf;
  InferenceEngine engine(clf, {.max_batch = 1});
  engine.shutdown();
  EXPECT_THROW(engine.try_submit(test_maps(1)[0]), Error);
}

TEST(InferenceEngineTest, RequestTimingStampsAreMonotonic) {
  FakeClassifier clf;
  InferenceEngine engine(clf, {.max_batch = 2});
  const auto maps = test_maps(2);
  auto t0 = std::make_shared<RequestTiming>();
  auto t1 = std::make_shared<RequestTiming>();
  auto f0 = engine.submit(maps[0], {}, t0);
  auto f1 = engine.submit(maps[1], {}, t1);
  f0.get();
  f1.get();
  // The future's readiness publishes the batcher's stores: every stamp set,
  // in pipeline order (queue -> picked into a batch -> formed -> done).
  for (const auto& t : {t0, t1}) {
    EXPECT_GT(t->enqueue_ns, 0);
    EXPECT_GE(t->wake_ns, 0);
    EXPECT_GE(t->formed_ns, t->enqueue_ns);
    EXPECT_GE(t->done_ns, t->formed_ns);
  }
}

TEST(InferenceEngineTest, StageHistogramsRecordPerRequest) {
  obs::Registry registry;
  FakeClassifier clf;
  InferenceEngine engine(clf, {.max_batch = 4, .registry = &registry});
  const auto maps = test_maps(6);
  std::vector<std::future<SelectivePrediction>> futs;
  for (const auto& map : maps) futs.push_back(engine.submit(map));
  for (auto& f : futs) f.get();

  // One sample per completed request in each wm_stage_* histogram.
  for (const char* name :
       {"wm_stage_queue_wait_us", "wm_stage_batch_wait_us",
        "wm_stage_compute_us"}) {
    const auto snap =
        registry.histogram(name, obs::Histogram::latency_bounds_us())
            .snapshot();
    EXPECT_EQ(snap.count, maps.size()) << name;
  }
}

}  // namespace
}  // namespace wm::serve
