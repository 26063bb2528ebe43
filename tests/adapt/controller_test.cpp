// AdaptationController state machine: alarm -> recalibrate -> (escalate ->
// retrain -> swap) -> resolve / rollback, with cooldown gating and counters.
// The monitor is driven directly (no engine) so every transition is
// deterministic; timing knobs are shrunk to keep the tests fast.
#include "adapt/controller.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/run_log.hpp"
#include "selective/calibrate.hpp"
#include "selective/load_classifier.hpp"
#include "serve/hot_swap.hpp"
#include "serve/monitor.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm::adapt {
namespace {

SelectivePrediction pred(int label, bool selected, float g) {
  SelectivePrediction p;
  p.label = label;
  p.selected = selected;
  p.g = g;
  p.confidence = g;
  return p;
}

WaferMap small_map(int variant) {
  WaferMap map(12);
  map.mark_fail(6, 1 + variant % 10);
  map.mark_fail(1 + variant % 10, 6);
  return map;
}

/// Deterministic stand-in for the serving model, with no fp32 weights to
/// fine-tune. Its re-cuts call `on_recut` (which may throw) with the
/// threshold the controller asked for, and carry the hook on.
class FakeClassifier final : public LoadedClassifier {
 public:
  using RecutHook = std::function<void(float tau)>;
  explicit FakeClassifier(float threshold = 0.5f, RecutHook on_recut = {})
      : threshold_(threshold), on_recut_(std::move(on_recut)) {}
  std::vector<SelectivePrediction> predict_batch(
      std::span<const WaferMap> maps) const override {
    return std::vector<SelectivePrediction>(maps.size(), pred(0, true, 0.9f));
  }
  int num_classes() const override { return 9; }
  int map_size() const override { return 12; }
  bool is_quantized() const override { return false; }
  float threshold() const override { return threshold_; }
  std::unique_ptr<LoadedClassifier> with_threshold(float tau) const override {
    if (on_recut_) on_recut_(tau);
    return std::make_unique<FakeClassifier>(tau, on_recut_);
  }
  std::unique_ptr<selective::SelectiveNet> clone_net() const override {
    return nullptr;
  }

 private:
  float threshold_;
  RecutHook on_recut_;
};

/// Polls `done` every few ms until it holds or `ms` elapse.
template <typename Done>
bool wait_for(Done done, int ms = 10000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

/// Monitor tuned for fast, deterministic fire/clear in tests: target 1.0,
/// fire below windowed coverage 0.75, clear at 7/8 or better.
serve::MonitorOptions test_monitor_options() {
  static obs::RunLog null_log;
  serve::MonitorOptions opts;
  opts.window = 8;
  opts.target_coverage = 1.0;
  opts.coverage_tolerance = 0.25;
  opts.clear_fraction = 0.5;
  opts.min_observations = 8;
  opts.run_log = &null_log;
  return opts;
}

void drive_alarm(serve::SelectiveMonitor& monitor) {
  for (int i = 0; i < 12; ++i) monitor.observe(pred(0, false, 0.1f));
}

void drive_clear(serve::SelectiveMonitor& monitor) {
  for (int i = 0; i < 16; ++i) monitor.observe(pred(0, true, 0.9f));
}

AdaptConfig fast_config() {
  AdaptConfig cfg;
  cfg.buffer_capacity = 128;
  cfg.min_samples = 8;
  cfg.refit_window = 16;
  cfg.cooldown_ms = 10;
  cfg.eval_ms = 400;
  cfg.fine_tune_epochs = 1;
  cfg.fine_tune_batch = 8;
  cfg.cae_epochs = 1;
  cfg.use_pseudo_labels = false;
  cfg.augment_target = 0;
  return cfg;
}

TEST(AdaptationControllerTest, RecalibratesOnAlarmAndResolves) {
  serve::SelectiveMonitor monitor(test_monitor_options());
  std::atomic<float> requested_tau{-1.0f};  // written on the worker thread
  serve::SwappableClassifier swappable(std::make_shared<FakeClassifier>(
      0.5f, [&](float t) { requested_tau = t; }));
  obs::Registry registry;

  AdaptationController controller(
      fast_config(),
      {.monitor = &monitor, .swappable = &swappable, .registry = &registry});

  // Buffer the drifted traffic the re-fit will rank: 16 g-scores, half
  // above 0.4, half below.
  for (int i = 0; i < 16; ++i) {
    controller.buffer().on_sample(
        small_map(i), pred(0, i % 2 == 0, i % 2 == 0 ? 0.8f : 0.2f));
  }

  drive_alarm(monitor);
  ASSERT_TRUE(wait_for([&] { return controller.status().recalibrations >= 1; }))
      << "stage 1 never acted on the alarm";
  EXPECT_GE(swappable.version(), 2u);
  EXPECT_GE(requested_tau.load(), 0.0f);
  // target_coverage 1.0 over the window keeps every score selected: the
  // re-fit cut must sit at/below the smallest buffered g.
  EXPECT_LE(requested_tau.load(), 0.2f);

  drive_clear(monitor);
  ASSERT_TRUE(wait_for([&] {
    const AdaptStatus s = controller.status();
    return s.state == AdaptState::kObserve && !s.alarm_active;
  })) << "episode never resolved after the alarm cleared";
  const AdaptStatus s = controller.status();
  EXPECT_EQ(s.retrains, 0u);
  EXPECT_EQ(s.rollbacks, 0u);
  EXPECT_GE(s.swaps, 1u);
  EXPECT_FLOAT_EQ(s.threshold, requested_tau.load());
  // The registry mirrors the counters.
  EXPECT_GE(registry.counter("wm_adapt_recalibrations_total").value(), 1u);
  EXPECT_DOUBLE_EQ(registry.gauge("wm_adapt_state").value(), 0.0);
}

TEST(AdaptationControllerTest, WaitsForMinSamplesThenActs) {
  serve::SelectiveMonitor monitor(test_monitor_options());
  serve::SwappableClassifier swappable(std::make_shared<FakeClassifier>());

  AdaptationController controller(
      fast_config(), {.monitor = &monitor, .swappable = &swappable});

  // Alarm with an empty buffer: the controller must skip, not swap.
  drive_alarm(monitor);
  ASSERT_TRUE(wait_for([&] { return controller.status().skips >= 1; }));
  EXPECT_EQ(swappable.version(), 1u);
  EXPECT_EQ(controller.status().recalibrations, 0u);

  // Once the buffer crosses min_samples the pending alarm is acted on
  // without needing a new transition.
  for (int i = 0; i < 12; ++i) {
    controller.buffer().on_sample(small_map(i), pred(0, false, 0.3f));
  }
  ASSERT_TRUE(wait_for([&] { return controller.status().recalibrations >= 1; }))
      << "controller never retried after samples arrived";
  EXPECT_EQ(swappable.version(), 2u);
}

TEST(AdaptationControllerTest, PreexistingAlarmStartsAnEpisode) {
  serve::SelectiveMonitor monitor(test_monitor_options());
  drive_alarm(monitor);  // alarming BEFORE the controller exists
  ASSERT_TRUE(monitor.snapshot().alarm);

  serve::SwappableClassifier swappable(std::make_shared<FakeClassifier>());
  AdaptationController controller(
      fast_config(), {.monitor = &monitor, .swappable = &swappable});
  for (int i = 0; i < 12; ++i) {
    controller.buffer().on_sample(small_map(i), pred(0, false, 0.3f));
  }
  ASSERT_TRUE(wait_for([&] { return controller.status().recalibrations >= 1; }))
      << "controller ignored the alarm it was born into";
}

TEST(AdaptationControllerTest, RecordOutcomeFansOutToMonitorAndBuffer) {
  serve::MonitorOptions mopts = test_monitor_options();
  mopts.min_observations = 1000;  // keep alarms out of this test
  serve::SelectiveMonitor monitor(mopts);
  serve::SwappableClassifier swappable(std::make_shared<FakeClassifier>());
  AdaptationController controller(
      fast_config(), {.monitor = &monitor, .swappable = &swappable});

  controller.record_outcome(small_map(1), pred(2, true, 0.9f), 2);
  EXPECT_EQ(controller.buffer().labeled_count(), 1u);
  EXPECT_EQ(monitor.snapshot().outcomes, 1u);
}

/// Fixture for the stage-2 paths: the served classifier is compiled from a
/// real (tiny) SelectiveNet, whose weights are cloned and fine-tuned on
/// labeled buffered wafers.
struct RetrainRig {
  serve::SelectiveMonitor monitor;
  Rng rng;
  Dataset data;
  std::unique_ptr<selective::SelectiveNet> net;
  std::unique_ptr<serve::SwappableClassifier> swappable;

  RetrainRig() : monitor(test_monitor_options()), rng(21) {
    synth::DatasetSpec spec;
    spec.map_size = 16;
    spec.class_counts.fill(3);
    data = synth::generate_dataset(spec, rng);
    net = std::make_unique<selective::SelectiveNet>(
        selective::SelectiveNetOptions{.map_size = 16, .num_classes = 9,
                                       .conv1_filters = 4, .conv2_filters = 4,
                                       .conv3_filters = 4, .fc_units = 16},
        rng);
    swappable = std::make_unique<serve::SwappableClassifier>(
        load_classifier(*net, {.threshold = 0.5f}));
  }

  AdaptHooks hooks() {
    return {.monitor = &monitor, .swappable = swappable.get()};
  }

  /// The rig's wafers, as probes of what serves.
  std::vector<WaferMap> probes() const {
    std::vector<WaferMap> maps;
    for (std::size_t i = 0; i < data.size(); ++i) maps.push_back(data[i].map);
    return maps;
  }

  /// Ground-truth-labeled buffer entries (what stage 2 fine-tunes on).
  void fill_buffer(AdaptationController& controller) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      controller.buffer().record_outcome(
          data[i].map, pred(static_cast<int>(data[i].label), true, 0.6f),
          static_cast<int>(data[i].label));
    }
  }
};

TEST(AdaptationControllerTest, EscalatesToRetrainWhenRecalibrationFails) {
  RetrainRig rig;
  AdaptationController controller(fast_config(), rig.hooks());
  rig.fill_buffer(controller);

  // The alarm is held active through stage 1's evaluation window (no
  // clearing traffic arrives), so the controller must escalate.
  drive_alarm(rig.monitor);
  ASSERT_TRUE(wait_for([&] { return controller.status().recalibrations >= 1; }))
      << "stage 1 never ran";
  ASSERT_TRUE(wait_for([&] { return controller.status().retrains >= 1; }))
      << "controller never escalated to stage 2";
  EXPECT_GE(rig.swappable->version(), 3u);  // re-fit swap + retrain swap
  const AdaptStatus mid = controller.status();
  EXPECT_GT(mid.last_retrain.samples, 0u);
  EXPECT_EQ(mid.last_retrain.labeled, rig.data.size());
  EXPECT_EQ(mid.last_retrain.pseudo_labeled, 0u);  // disabled in fast_config
  // The stage-2 swap clears the buffer: retired-model g-scores are poison.
  EXPECT_EQ(controller.buffer().size(), 0u);

  // Clear the alarm inside the post-swap window: the candidate sticks.
  drive_clear(rig.monitor);
  ASSERT_TRUE(wait_for([&] {
    return controller.status().state == AdaptState::kObserve;
  }));
  EXPECT_EQ(controller.status().rollbacks, 0u);
}

TEST(AdaptationControllerTest, RollsBackWhenTheCandidateDoesNotClear) {
  RetrainRig rig;
  AdaptConfig cfg = fast_config();
  cfg.eval_ms = 150;  // fail the trial fast
  AdaptationController controller(cfg, rig.hooks());
  rig.fill_buffer(controller);

  // Never send clearing traffic: recalibrate fails its window, the retrain
  // candidate fails its window too -> rollback to the pre-swap incumbent
  // with exponential backoff armed.
  drive_alarm(rig.monitor);
  ASSERT_TRUE(wait_for([&] { return controller.status().rollbacks >= 1; }))
      << "failed candidate was never rolled back";
  const AdaptStatus s = controller.status();
  EXPECT_GE(s.retrains, 1u);
  EXPECT_GT(s.backoff_ms, 0);
  // Rollback is itself a promotion: version moved past the retrain swap.
  EXPECT_GE(rig.swappable->version(), 4u);
}

TEST(AdaptationControllerTest, RetrainRespectsTheLifetimeCap) {
  RetrainRig rig;
  AdaptConfig cfg = fast_config();
  cfg.eval_ms = 100;
  cfg.max_retrains = 0;  // stage 2 administratively off
  AdaptationController controller(cfg, rig.hooks());
  rig.fill_buffer(controller);

  drive_alarm(rig.monitor);
  ASSERT_TRUE(wait_for([&] { return controller.status().recalibrations >= 2; }))
      << "capped controller should keep recalibrating instead";
  EXPECT_EQ(controller.status().retrains, 0u);
}

TEST(AdaptationControllerTest,
     RecalibrationAfterRetrainKeepsTheRetrainedWeights) {
  // Stage 1 re-cuts the model that serves. After a promoted retrain that is
  // the fine-tuned net, so a later recalibration must not bring back the
  // weights the controller started with.
  RetrainRig rig;
  AdaptConfig cfg = fast_config();
  cfg.eval_ms = 1000;    // room to clear the candidate's alarm in time
  cfg.max_retrains = 1;  // the second episode can only recalibrate
  AdaptationController controller(cfg, rig.hooks());
  rig.fill_buffer(controller);

  drive_alarm(rig.monitor);
  ASSERT_TRUE(wait_for([&] { return controller.status().retrains >= 1; }));
  drive_clear(rig.monitor);
  ASSERT_TRUE(wait_for([&] {
    return controller.status().state == AdaptState::kObserve;
  }));
  const std::shared_ptr<const Classifier> retrained = rig.swappable->current();

  rig.fill_buffer(controller);
  drive_alarm(rig.monitor);
  ASSERT_TRUE(
      wait_for([&] { return controller.status().recalibrations >= 2; }));
  EXPECT_EQ(controller.status().rollbacks, 0u);

  const std::vector<WaferMap> probes = rig.probes();
  const auto original = load_classifier(*rig.net)->predict_batch(probes);
  const auto expected = retrained->predict_batch(probes);
  const auto served = rig.swappable->current()->predict_batch(probes);
  int moved = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(served[i].g, expected[i].g) << "probe " << i;
    moved += original[i].g != expected[i].g ? 1 : 0;
  }
  EXPECT_GT(moved, 0) << "the retrain moved no probe's g; the test is moot";
}

TEST(AdaptationControllerTest, RetrainFineTunesTheWeightsThatServe) {
  // A reload (as `wm_tool serve --model-watch` makes) replaced the net the
  // rig started with. Stage 2 must fine-tune the reloaded weights: at a
  // learning rate too small to move them, the promoted candidate predicts
  // as the reloaded net does, not as the original.
  RetrainRig rig;
  Rng reload_rng(99);
  const selective::SelectiveNet reloaded(rig.net->options(), reload_rng);
  rig.swappable->swap_to(load_classifier(reloaded, {.threshold = 0.5f}), {},
                         "reload");
  AdaptConfig cfg = fast_config();
  cfg.eval_ms = 1000;  // room to clear the candidate's alarm in time
  cfg.fine_tune_lr = 1e-9;
  AdaptationController controller(cfg, rig.hooks());
  rig.fill_buffer(controller);

  drive_alarm(rig.monitor);
  ASSERT_TRUE(wait_for([&] { return controller.status().retrains >= 1; }))
      << "controller never escalated to stage 2";
  drive_clear(rig.monitor);
  ASSERT_TRUE(wait_for([&] {
    return controller.status().state == AdaptState::kObserve;
  }));
  ASSERT_EQ(controller.status().rollbacks, 0u);

  const std::vector<WaferMap> probes = rig.probes();
  const auto served = rig.swappable->current()->predict_batch(probes);
  const auto want = load_classifier(reloaded)->predict_batch(probes);
  const auto original = load_classifier(*rig.net)->predict_batch(probes);
  int off_original = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_NEAR(served[i].g, want[i].g, 1e-4) << "probe " << i;
    EXPECT_EQ(served[i].label, want[i].label) << "probe " << i;
    off_original += std::abs(served[i].g - original[i].g) > 1e-4f ? 1 : 0;
  }
  EXPECT_GT(off_original, 0) << "the served g matches the original net's";
}

TEST(AdaptationControllerTest, SkipsRecalibrationWhenTheModelCannotBeReCut) {
  /// A classifier with no threshold to move.
  class Plain final : public Classifier {
   public:
    std::vector<SelectivePrediction> predict_batch(
        std::span<const WaferMap> maps) const override {
      return std::vector<SelectivePrediction>(maps.size(), pred(0, true, 0.9f));
    }
    int num_classes() const override { return 9; }
  };
  serve::SelectiveMonitor monitor(test_monitor_options());
  serve::SwappableClassifier swappable(std::make_shared<Plain>());
  AdaptationController controller(
      fast_config(), {.monitor = &monitor, .swappable = &swappable});
  for (int i = 0; i < 12; ++i) {
    controller.buffer().on_sample(small_map(i), pred(0, false, 0.3f));
  }

  drive_alarm(monitor);
  ASSERT_TRUE(wait_for([&] { return controller.status().skips >= 2; }));
  EXPECT_EQ(controller.status().recalibrations, 0u);
  EXPECT_EQ(swappable.version(), 1u);
}

TEST(AdaptationControllerTest, NoNetMeansRecalibrateOnlyLoop) {
  serve::SelectiveMonitor monitor(test_monitor_options());
  serve::SwappableClassifier swappable(std::make_shared<FakeClassifier>());
  AdaptConfig cfg = fast_config();
  cfg.eval_ms = 100;
  AdaptationController controller(
      cfg, {.monitor = &monitor, .swappable = &swappable});
  for (int i = 0; i < 12; ++i) {
    controller.buffer().on_sample(small_map(i), pred(0, false, 0.3f));
  }

  // The served model has no fp32 weights, so escalation degrades to
  // repeated re-fits; the loop must neither retrain nor crash.
  drive_alarm(monitor);
  ASSERT_TRUE(wait_for([&] { return controller.status().recalibrations >= 2; }));
  EXPECT_EQ(controller.status().retrains, 0u);
  EXPECT_EQ(controller.status().rollbacks, 0u);
}

TEST(AdaptationControllerTest, ThrowingStageNeverKillsTheWorker) {
  // Any step of a stage can throw on the worker thread (here the served
  // classifier refuses its re-cut); an exception escaping the worker would
  // std::terminate the whole serving process. The loop must log
  // adapt_error, survive, and succeed on a later pass once the re-cut
  // recovers.
  serve::SelectiveMonitor monitor(test_monitor_options());
  std::atomic<int> calls{0};
  serve::SwappableClassifier swappable(
      std::make_shared<FakeClassifier>(0.5f, [&](float) {
        if (calls.fetch_add(1) < 2) throw Error("re-cut refused");
      }));
  const std::string log_path =
      ::testing::TempDir() + "wm_adapt_error_test.jsonl";
  std::remove(log_path.c_str());
  obs::RunLog log(log_path);

  {
    AdaptationController controller(
        fast_config(),
        {.monitor = &monitor, .swappable = &swappable, .run_log = &log});
    for (int i = 0; i < 12; ++i) {
      controller.buffer().on_sample(small_map(i), pred(0, false, 0.3f));
    }

    drive_alarm(monitor);
    ASSERT_TRUE(
        wait_for([&] { return controller.status().recalibrations >= 1; }))
        << "worker never recovered from the throwing re-cut";
    EXPECT_GE(calls.load(), 3);
    EXPECT_GE(controller.status().skips, 2u);  // the throws count as skips
    EXPECT_GE(swappable.version(), 2u);  // the recovered pass really swapped
  }

  std::ifstream in(log_path);
  std::string line;
  int errors = 0;
  while (std::getline(in, line)) {
    if (line.find("\"event\":\"adapt_error\"") != std::string::npos) {
      ++errors;
      EXPECT_NE(line.find("re-cut refused"), std::string::npos);
    }
  }
  std::remove(log_path.c_str());
  EXPECT_EQ(errors, 2);
}

TEST(AdaptationControllerTest, RecordOutcomeUpgradesTheTapEntry) {
  serve::MonitorOptions mopts = test_monitor_options();
  mopts.min_observations = 1000;  // keep alarms out of this test
  serve::SelectiveMonitor monitor(mopts);
  serve::SwappableClassifier swappable(std::make_shared<FakeClassifier>());
  AdaptationController controller(
      fast_config(), {.monitor = &monitor, .swappable = &swappable});

  // The serving path taps the wafer; the later ground-truth feedback must
  // upgrade that entry, not add a second copy of the same wafer.
  const WaferMap map = small_map(1);
  const SelectivePrediction served = pred(2, true, 0.9f);
  controller.buffer().on_sample(map, served);
  controller.record_outcome(map, served, 2);
  EXPECT_EQ(controller.buffer().size(), 1u);
  EXPECT_EQ(controller.buffer().labeled_count(), 1u);
  // Out-of-range labels are rejected on the caller's thread, before they
  // can reach the worker mid-fine-tune.
  EXPECT_THROW(controller.record_outcome(map, served, 9), Error);
}

TEST(AdaptationControllerTest, DestructionUnderActiveAlarmIsClean) {
  serve::SelectiveMonitor monitor(test_monitor_options());
  serve::SwappableClassifier swappable(std::make_shared<FakeClassifier>());
  {
    AdaptationController controller(
        fast_config(), {.monitor = &monitor, .swappable = &swappable});
    drive_alarm(monitor);
    // Destroy mid-episode: the destructor must unhook and join promptly.
  }
  // The monitor must not invoke a dangling callback afterwards.
  drive_clear(monitor);
  drive_alarm(monitor);
  SUCCEED();
}

}  // namespace
}  // namespace wm::adapt
