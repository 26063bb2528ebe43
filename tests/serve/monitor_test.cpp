// SelectiveMonitor: exact window roll-off, EWMA convergence, alarm
// fire/clear semantics (gauges + run-log events), agreement of the windowed
// selective risk with the eval-layer metrics, and the engine hookup.
#include "serve/monitor.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "eval/risk_coverage.hpp"
#include "obs/run_log.hpp"
#include "serve/inference_engine.hpp"
#include "wafermap/wafer_map.hpp"

namespace wm::serve {
namespace {

SelectivePrediction pred(int label, bool selected, float g) {
  SelectivePrediction p;
  p.label = label;
  p.selected = selected;
  p.g = g;
  p.confidence = g;
  return p;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// A monitor with a disabled (default-constructed) run log, so tests that
/// don't care about events never touch the process-wide log.
MonitorOptions quiet_options() {
  static obs::RunLog null_log;
  MonitorOptions opts;
  opts.run_log = &null_log;
  return opts;
}

TEST(SelectiveMonitorTest, WindowRollOffIsExact) {
  MonitorOptions opts = quiet_options();
  opts.window = 4;
  opts.min_observations = 1000;  // keep alarms out of this test
  SelectiveMonitor monitor(opts);

  // Fill with 4 selected, then push 4 abstentions through: the windowed
  // coverage must track exactly the last 4 observations at every step.
  for (int i = 0; i < 4; ++i) monitor.observe(pred(0, true, 0.9f));
  EXPECT_DOUBLE_EQ(monitor.snapshot().coverage, 1.0);

  const double expected[] = {0.75, 0.5, 0.25, 0.0};
  for (int i = 0; i < 4; ++i) {
    monitor.observe(pred(1, false, 0.1f));
    const MonitorSnapshot s = monitor.snapshot();
    EXPECT_DOUBLE_EQ(s.coverage, expected[i]) << "after abstention " << i;
    EXPECT_DOUBLE_EQ(s.abstention_rate, 1.0 - expected[i]);
    EXPECT_EQ(s.window_fill, 4u);
  }
  EXPECT_EQ(monitor.snapshot().observations, 8u);

  // Mean g also rolls: the window now holds only the g = 0.1 entries.
  EXPECT_NEAR(monitor.snapshot().mean_g, 0.1, 1e-6);  // g is float-precision
}

TEST(SelectiveMonitorTest, ClassMixRolls) {
  MonitorOptions opts = quiet_options();
  opts.window = 4;
  opts.num_classes = 3;
  opts.min_observations = 1000;
  SelectiveMonitor monitor(opts);

  monitor.observe(pred(0, true, 0.9f));
  monitor.observe(pred(0, true, 0.9f));
  monitor.observe(pred(1, true, 0.9f));
  monitor.observe(pred(2, true, 0.9f));
  MonitorSnapshot s = monitor.snapshot();
  ASSERT_EQ(s.class_mix.size(), 3u);
  EXPECT_DOUBLE_EQ(s.class_mix[0], 0.5);
  EXPECT_DOUBLE_EQ(s.class_mix[1], 0.25);
  EXPECT_DOUBLE_EQ(s.class_mix[2], 0.25);

  // The oldest class-0 falls out; a class-1 arrives.
  monitor.observe(pred(1, true, 0.9f));
  s = monitor.snapshot();
  EXPECT_DOUBLE_EQ(s.class_mix[0], 0.25);
  EXPECT_DOUBLE_EQ(s.class_mix[1], 0.5);
  EXPECT_DOUBLE_EQ(s.class_mix[2], 0.25);
}

TEST(SelectiveMonitorTest, EwmaConvergesToTheStreamRate) {
  MonitorOptions opts = quiet_options();
  opts.ewma_alpha = 0.1;
  opts.min_observations = 100000;
  SelectiveMonitor monitor(opts);

  // All-selected stream: the abstention EWMA decays toward 0 from the seed.
  monitor.observe(pred(0, false, 0.0f));  // seeds the EWMA at 1.0
  for (int i = 0; i < 200; ++i) monitor.observe(pred(0, true, 1.0f));
  EXPECT_LT(monitor.snapshot().abstention_ewma, 1e-8);
  EXPECT_GT(monitor.snapshot().g_ewma, 1.0 - 1e-8);

  // Exact recurrence check for a short prefix: ewma_{t+1} = (1-a) ewma_t.
  SelectiveMonitor fresh(opts);
  fresh.observe(pred(0, false, 0.0f));
  double expected = 1.0;
  for (int i = 0; i < 5; ++i) {
    fresh.observe(pred(0, true, 1.0f));
    expected *= 1.0 - opts.ewma_alpha;
    EXPECT_NEAR(fresh.snapshot().abstention_ewma, expected, 1e-12);
  }
}

TEST(SelectiveMonitorTest, AlarmFiresAtToleranceAndClearsWithHysteresis) {
  const std::string log_path = ::testing::TempDir() + "wm_monitor_alarm.jsonl";
  std::remove(log_path.c_str());
  obs::RunLog log(log_path);

  obs::Registry registry;
  MonitorOptions opts;
  opts.window = 8;
  opts.target_coverage = 1.0;
  opts.coverage_tolerance = 0.25;  // fire once windowed coverage < 0.75
  opts.clear_fraction = 0.5;       // clear once |dev| <= 0.125
  opts.min_observations = 8;
  opts.registry = &registry;
  opts.run_log = &log;
  SelectiveMonitor monitor(opts);
  obs::Gauge& alarm_gauge = registry.gauge("wm_monitor_alarm");

  // 6 selected + 2 abstentions: coverage 0.75, deviation exactly at the
  // tolerance — documented semantics are "fire on exceed", so no alarm.
  for (int i = 0; i < 6; ++i) monitor.observe(pred(0, true, 0.9f));
  for (int i = 0; i < 2; ++i) monitor.observe(pred(0, false, 0.1f));
  EXPECT_FALSE(monitor.snapshot().alarm);
  EXPECT_DOUBLE_EQ(alarm_gauge.value(), 0.0);

  // One more abstention rolls a selected out: coverage 0.625 < 0.75 — fire.
  monitor.observe(pred(0, false, 0.1f));
  EXPECT_TRUE(monitor.snapshot().alarm);
  EXPECT_DOUBLE_EQ(alarm_gauge.value(), 1.0);
  EXPECT_EQ(monitor.snapshot().alarms_total, 1u);

  // Recovering to deviation 0.25 > 0.125 keeps the alarm latched
  // (hysteresis); only 7/8 coverage (dev 0.125 <= 0.125) clears it.
  for (int i = 0; i < 6; ++i) monitor.observe(pred(0, true, 0.9f));
  EXPECT_DOUBLE_EQ(monitor.snapshot().coverage, 0.75);
  EXPECT_TRUE(monitor.snapshot().alarm);
  monitor.observe(pred(0, true, 0.9f));
  EXPECT_DOUBLE_EQ(monitor.snapshot().coverage, 0.875);
  EXPECT_FALSE(monitor.snapshot().alarm);
  EXPECT_DOUBLE_EQ(alarm_gauge.value(), 0.0);
  EXPECT_EQ(monitor.snapshot().alarms_total, 1u);  // clear is not a new fire

  // The run log recorded exactly one drift_alarm and one drift_clear.
  const std::vector<std::string> lines = read_lines(log_path);
  std::remove(log_path.c_str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"event\":\"drift_alarm\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"cause\":\"coverage\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"event\":\"drift_clear\""), std::string::npos);
}

TEST(SelectiveMonitorTest, AlarmWaitsForMinObservations) {
  MonitorOptions opts = quiet_options();
  opts.window = 64;
  opts.target_coverage = 1.0;
  opts.coverage_tolerance = 0.1;
  opts.min_observations = 10;
  SelectiveMonitor monitor(opts);

  // 9 straight abstentions violate the tolerance wildly, but the window has
  // not yet earned statistical trust.
  for (int i = 0; i < 9; ++i) monitor.observe(pred(0, false, 0.0f));
  EXPECT_FALSE(monitor.snapshot().alarm);
  monitor.observe(pred(0, false, 0.0f));  // 10th: gate opens, alarm fires
  EXPECT_TRUE(monitor.snapshot().alarm);
}

TEST(SelectiveMonitorTest, RiskAlarmFiresOnBadOutcomes) {
  MonitorOptions opts = quiet_options();
  opts.window = 32;
  opts.target_coverage = 0.5;
  opts.coverage_tolerance = 10.0;  // coverage can never alarm here
  opts.risk_threshold = 0.2;
  opts.min_outcomes = 4;
  SelectiveMonitor monitor(opts);

  // Selected-and-correct outcomes: risk 0, no alarm.
  for (int i = 0; i < 4; ++i) monitor.record_outcome(pred(1, true, 0.9f), 1);
  EXPECT_FALSE(monitor.snapshot().alarm);
  EXPECT_DOUBLE_EQ(monitor.snapshot().selective_risk, 0.0);

  // Two wrong selected predictions: risk 2/6 = 0.33 > 0.2 — fire.
  monitor.record_outcome(pred(1, true, 0.9f), 2);
  monitor.record_outcome(pred(0, true, 0.9f), 2);
  const MonitorSnapshot s = monitor.snapshot();
  EXPECT_NEAR(s.selective_risk, 2.0 / 6.0, 1e-12);
  EXPECT_TRUE(s.alarm);

  // Abstained outcomes never count toward selective risk.
  SelectiveMonitor abstainer(opts);
  for (int i = 0; i < 8; ++i) abstainer.record_outcome(pred(1, false, 0.1f), 2);
  EXPECT_DOUBLE_EQ(abstainer.snapshot().selective_risk, 0.0);
  EXPECT_FALSE(abstainer.snapshot().alarm);
}

TEST(SelectiveMonitorTest, WindowedRiskAgreesWithEvalMetrics) {
  // Replay a synthetic prediction set (distinct g values; selected iff
  // g >= 0.5, i.e. a realisable threshold) through the monitor and compare
  // against the offline eval-layer metrics on the same data.
  std::vector<SelectivePrediction> preds;
  std::vector<int> labels;
  const int n = 40;
  for (int i = 0; i < n; ++i) {
    const float g = static_cast<float>(i + 1) / static_cast<float>(n + 1);
    const int label = i % 9;
    // Wrong on every 5th selected sample; abstentions are wrong often, which
    // must NOT leak into selective risk.
    const bool selected = g >= 0.5f;
    const int truth = (selected ? (i % 5 == 0 ? label + 1 : label)
                                : (i % 2 == 0 ? label + 1 : label));
    preds.push_back(pred(label, selected, g));
    labels.push_back(truth);
  }

  MonitorOptions opts = quiet_options();
  opts.window = static_cast<std::size_t>(n);  // whole replay fits
  opts.min_observations = 1000000;
  SelectiveMonitor monitor(opts);
  for (int i = 0; i < n; ++i) {
    monitor.observe(preds[static_cast<std::size_t>(i)]);
    monitor.record_outcome(preds[static_cast<std::size_t>(i)],
                           labels[static_cast<std::size_t>(i)]);
  }
  const MonitorSnapshot s = monitor.snapshot();

  // Coverage and risk agree with the serve-layer aggregate helpers...
  EXPECT_DOUBLE_EQ(s.coverage, coverage_of(preds));
  EXPECT_DOUBLE_EQ(s.selective_risk, 1.0 - selective_accuracy(preds, labels));

  // ...and with the eval-layer risk-coverage curve at the achieved coverage
  // (valid because `selected` is exactly a g-threshold rule and every g is
  // distinct, so the curve prefix is the selected set).
  const auto curve = eval::risk_coverage_curve(preds, labels);
  EXPECT_NEAR(s.selective_risk, eval::risk_at_coverage(curve, s.coverage),
              1e-12);
}

TEST(SelectiveMonitorTest, ConcurrentObserversStayConsistent) {
  MonitorOptions opts = quiet_options();
  opts.window = 128;
  opts.min_observations = 1;
  opts.target_coverage = 0.5;
  opts.coverage_tolerance = 0.45;
  SelectiveMonitor monitor(opts);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const bool selected = (t + i) % 2 == 0;
        monitor.observe(pred(i % 9, selected, selected ? 0.9f : 0.1f));
        if (i % 3 == 0) {
          monitor.record_outcome(pred(i % 9, selected, 0.5f), i % 9);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const MonitorSnapshot s = monitor.snapshot();
  EXPECT_EQ(s.observations, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.window_fill, 128u);
  // The interleaved stream is exactly half selected.
  EXPECT_NEAR(s.coverage, 0.5, 0.25);
  EXPECT_DOUBLE_EQ(s.selective_risk, 0.0);  // outcomes above are all correct
}

/// Always-selecting classifier for the engine hookup test.
class SelectAllClassifier final : public Classifier {
 public:
  std::vector<SelectivePrediction> predict_batch(
      std::span<const WaferMap> maps) const override {
    std::vector<SelectivePrediction> out(maps.size());
    for (std::size_t i = 0; i < maps.size(); ++i) {
      out[i] = pred(maps[i].fail_count() % 9, true, 0.9f);
    }
    return out;
  }
  int num_classes() const override { return 9; }
};

TEST(SelectiveMonitorTest, EngineFeedsEveryFulfilledPrediction) {
  SelectAllClassifier clf;
  MonitorOptions mopts = quiet_options();
  mopts.window = 64;
  mopts.target_coverage = 1.0;
  mopts.min_observations = 1000;
  SelectiveMonitor monitor(mopts);

  {
    InferenceEngine engine(clf, {.max_batch = 4,
                                 .queue_capacity = 64,
                                 .monitor = &monitor});
    WaferMap map(12);
    map.mark_fail(6, 6);
    for (int i = 0; i < 20; ++i) {
      const SelectivePrediction p = engine.predict(map);
      EXPECT_TRUE(p.selected);
    }
    // predict() returns after the monitor saw the batch, so the count is
    // already exact — no drain needed.
    EXPECT_EQ(monitor.snapshot().observations, 20u);
  }
  const MonitorSnapshot s = monitor.snapshot();
  EXPECT_EQ(s.observations, 20u);
  EXPECT_DOUBLE_EQ(s.coverage, 1.0);
  EXPECT_EQ(s.window_fill, 20u);
}

TEST(SelectiveMonitorTest, CallbacksFireExactlyOncePerTransition) {
  MonitorOptions opts = quiet_options();
  opts.window = 8;
  opts.target_coverage = 1.0;
  opts.coverage_tolerance = 0.25;  // fire below 0.75
  opts.clear_fraction = 0.5;       // clear at deviation <= 0.125
  opts.min_observations = 8;
  SelectiveMonitor monitor(opts);

  int fires = 0;
  int clears = 0;
  std::vector<double> fire_coverages;
  (void)monitor.on_alarm([&](const MonitorSnapshot& s) {
    ++fires;
    fire_coverages.push_back(s.coverage);
    EXPECT_TRUE(s.alarm);  // the snapshot is taken AT the transition
  });
  (void)monitor.on_clear([&](const MonitorSnapshot& s) {
    ++clears;
    EXPECT_FALSE(s.alarm);
  });

  // Drive into alarm: the fire callback runs once at the crossing, then
  // never again while the alarm stays latched — no matter how many more
  // violating observations arrive.
  for (int i = 0; i < 6; ++i) monitor.observe(pred(0, true, 0.9f));
  for (int i = 0; i < 3; ++i) monitor.observe(pred(0, false, 0.1f));
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(clears, 0);
  for (int i = 0; i < 16; ++i) monitor.observe(pred(0, false, 0.1f));
  EXPECT_EQ(fires, 1) << "latched alarm must not re-fire the callback";

  // Recover past the hysteresis bound: exactly one clear.
  for (int i = 0; i < 16; ++i) monitor.observe(pred(0, true, 0.9f));
  EXPECT_EQ(clears, 1);
  EXPECT_EQ(fires, 1);

  // A second full cycle fires and clears exactly once more.
  for (int i = 0; i < 16; ++i) monitor.observe(pred(0, false, 0.1f));
  for (int i = 0; i < 16; ++i) monitor.observe(pred(0, true, 0.9f));
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(clears, 2);
  ASSERT_EQ(fire_coverages.size(), 2u);
  EXPECT_LT(fire_coverages[0], 0.75);
}

TEST(SelectiveMonitorTest, RemovedCallbackNeverRuns) {
  MonitorOptions opts = quiet_options();
  opts.window = 8;
  opts.target_coverage = 1.0;
  opts.coverage_tolerance = 0.25;
  opts.min_observations = 8;
  SelectiveMonitor monitor(opts);

  int kept = 0;
  int removed = 0;
  (void)monitor.on_alarm([&](const MonitorSnapshot&) { ++kept; });
  const std::uint64_t id =
      monitor.on_alarm([&](const MonitorSnapshot&) { ++removed; });
  monitor.remove_callback(id);

  for (int i = 0; i < 16; ++i) monitor.observe(pred(0, false, 0.1f));
  EXPECT_EQ(kept, 1);
  EXPECT_EQ(removed, 0);
  // Removing an unknown id is a harmless no-op.
  monitor.remove_callback(999999);
}

TEST(SelectiveMonitorTest, RemoveCallbackWaitsForInFlightDispatch) {
  // The removal contract: after remove_callback() returns, the callback can
  // never be running (or run again), so its captures may be destroyed. A
  // removal racing an in-flight dispatch must block until the callback
  // returns — otherwise ~AdaptationController could free state a
  // batcher-thread alarm callback is still touching.
  MonitorOptions opts = quiet_options();
  opts.window = 8;
  opts.target_coverage = 1.0;
  opts.coverage_tolerance = 0.25;
  opts.min_observations = 8;
  SelectiveMonitor monitor(opts);

  std::atomic<bool> in_callback{false};
  std::atomic<bool> callback_done{false};
  const std::uint64_t id = monitor.on_alarm([&](const MonitorSnapshot&) {
    in_callback = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    callback_done = true;
  });

  std::thread driver([&] {
    for (int i = 0; i < 16; ++i) monitor.observe(pred(0, false, 0.1f));
  });
  while (!in_callback) std::this_thread::yield();
  monitor.remove_callback(id);
  EXPECT_TRUE(callback_done)
      << "remove_callback returned while the callback was still running";
  driver.join();
}

TEST(SelectiveMonitorTest, CallbackMayRemoveItself) {
  MonitorOptions opts = quiet_options();
  opts.window = 8;
  opts.target_coverage = 1.0;
  opts.coverage_tolerance = 0.25;
  opts.clear_fraction = 0.5;
  opts.min_observations = 8;
  SelectiveMonitor monitor(opts);

  int fires = 0;
  std::uint64_t id = 0;
  id = monitor.on_alarm([&](const MonitorSnapshot&) {
    ++fires;
    monitor.remove_callback(id);  // same-thread re-entry must not deadlock
  });

  // Two full fire cycles: the self-removed callback sees only the first.
  for (int i = 0; i < 16; ++i) monitor.observe(pred(0, false, 0.1f));
  for (int i = 0; i < 16; ++i) monitor.observe(pred(0, true, 0.9f));
  for (int i = 0; i < 16; ++i) monitor.observe(pred(0, false, 0.1f));
  EXPECT_EQ(fires, 1);
}

TEST(SelectiveMonitorTest, CallbackMayReenterTheMonitor) {
  // The dispatch contract: callbacks run OUTSIDE the data lock, so a
  // callback is allowed to call snapshot() (or even observe()) without
  // deadlocking — the adaptation controller's on_alarm does exactly that.
  MonitorOptions opts = quiet_options();
  opts.window = 8;
  opts.target_coverage = 1.0;
  opts.coverage_tolerance = 0.25;
  opts.min_observations = 8;
  SelectiveMonitor monitor(opts);

  bool reentered = false;
  (void)monitor.on_alarm([&](const MonitorSnapshot& s) {
    const MonitorSnapshot again = monitor.snapshot();
    EXPECT_EQ(again.observations, s.observations);
    // observe() re-enters the dispatch path itself (recursive lock).
    monitor.observe(pred(0, true, 0.9f));
    reentered = true;
  });
  for (int i = 0; i < 16; ++i) monitor.observe(pred(0, false, 0.1f));
  EXPECT_TRUE(reentered);
}

TEST(SelectiveMonitorTest, RiskTransitionAlsoDrivesCallbacks) {
  MonitorOptions opts = quiet_options();
  opts.window = 16;
  opts.target_coverage = 0.5;
  opts.coverage_tolerance = 1.0;  // coverage alarm effectively off
  opts.risk_threshold = 0.5;
  opts.min_observations = 1;
  opts.min_outcomes = 4;
  SelectiveMonitor monitor(opts);

  int fires = 0;
  (void)monitor.on_alarm([&](const MonitorSnapshot& s) {
    ++fires;
    EXPECT_GT(s.selective_risk, 0.5);
  });
  // record_outcome drives the same refresh path as observe().
  for (int i = 0; i < 4; ++i) monitor.record_outcome(pred(0, true, 0.9f), 1);
  EXPECT_EQ(fires, 1);
  for (int i = 0; i < 4; ++i) monitor.record_outcome(pred(0, true, 0.9f), 1);
  EXPECT_EQ(fires, 1) << "latched risk alarm must not re-fire";
}

}  // namespace
}  // namespace wm::serve
