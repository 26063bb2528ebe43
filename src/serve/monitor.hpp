// Streaming drift monitor for the selective risk/coverage operating point.
//
// The paper's deployment story calibrates an abstention threshold so the
// model selects a target fraction c0 of traffic (DESIGN.md §8); the one
// quantity an operator must watch in production is whether the live
// abstention rate and empirical selective risk drift away from that
// calibrated point — distribution shift shows up first in the rejector.
// SelectiveMonitor is the consumer of every SelectivePrediction flowing
// through the serving layer:
//
//   * a sliding window (default 512 results) of coverage / abstention rate,
//     per-class prediction mix, and mean selection score g(x);
//   * EWMA twins of abstention and g for a smoothed long-horizon view;
//   * empirical selective risk over a second window of ground-truth
//     outcomes supplied later through record_outcome() (labels usually
//     arrive minutes-to-days after the prediction, so risk has its own
//     feedback hook and window);
//   * threshold alarms: when the windowed coverage deviates from the
//     calibrated target by more than `coverage_tolerance` (either
//     direction), or the windowed selective risk exceeds `risk_threshold`,
//     the monitor raises an alarm — wm_monitor_alarm flips to 1, a
//     `drift_alarm` run-log event is emitted, and wm_monitor_alarms_total
//     increments. The alarm clears (with hysteresis: deviation must fall
//     back below clear_fraction x the firing bound) via a `drift_clear`
//     event.
//
// Every update also samples Perfetto counter tracks (monitor.coverage,
// monitor.abstention_ewma, monitor.selective_risk) so drift renders as
// value graphs next to the serve.flush spans — see obs/trace.hpp.
//
// Attach to an engine with EngineOptions::monitor (the batcher observes
// every prediction it fulfils) or call observe()/observe_batch() directly.
// All methods are thread-safe; observe() is one short critical section.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/run_log.hpp"
#include "serve/classifier.hpp"

namespace wm::serve {

struct MonitorOptions {
  /// Sliding-window length (results) for coverage, class mix, and mean g;
  /// also the window for labeled outcomes (selective risk).
  std::size_t window = 512;
  /// EWMA smoothing factor in (0, 1]: ewma += alpha * (x - ewma).
  double ewma_alpha = 0.05;
  /// The calibrated operating point: target coverage c0 in (0, 1].
  double target_coverage = 0.5;
  /// Alarm when |windowed coverage - target_coverage| exceeds this.
  double coverage_tolerance = 0.15;
  /// Alarm when the windowed selective risk exceeds this (1.0 disables the
  /// risk alarm; risk is only checked once min_outcomes labels arrived).
  double risk_threshold = 1.0;
  /// Observations required in the window before coverage alarms may fire.
  std::size_t min_observations = 64;
  /// Labeled outcomes required before risk alarms may fire.
  std::size_t min_outcomes = 32;
  /// Hysteresis: an active alarm clears only when every deviation falls
  /// below clear_fraction x its firing bound. In (0, 1].
  double clear_fraction = 0.5;
  /// Label-index range for the per-class prediction mix gauges.
  int num_classes = 9;
  /// Where the wm_monitor_* instruments live. nullptr = a monitor-private
  /// registry (mirrors EngineOptions::registry); pass
  /// &obs::Registry::global() to merge with engine/trainer metrics.
  obs::Registry* registry = nullptr;
  /// Sink for drift_alarm / drift_clear events. nullptr = the process-wide
  /// obs::run_log_global().
  obs::RunLog* run_log = nullptr;
};

/// Point-in-time copy of everything the monitor tracks.
struct MonitorSnapshot {
  std::uint64_t observations = 0;  // lifetime observe() count
  std::uint64_t outcomes = 0;      // lifetime record_outcome() count
  std::size_t window_fill = 0;     // results currently in the window
  std::size_t outcome_fill = 0;    // labeled outcomes currently windowed
  double coverage = 0.0;           // windowed selected fraction
  double abstention_rate = 0.0;    // 1 - coverage
  double abstention_ewma = 0.0;
  double mean_g = 0.0;             // windowed mean selection score
  double g_ewma = 0.0;
  double selective_risk = 0.0;     // windowed error rate among selected
  std::vector<double> class_mix;   // windowed predicted-label fractions
  bool alarm = false;
  std::uint64_t alarms_total = 0;
  double target_coverage = 0.0;

  /// Multi-line human-readable dump.
  std::string to_string() const;
};

class SelectiveMonitor {
 public:
  explicit SelectiveMonitor(const MonitorOptions& opts = {});

  SelectiveMonitor(const SelectiveMonitor&) = delete;
  SelectiveMonitor& operator=(const SelectiveMonitor&) = delete;

  /// Feeds one prediction into the windows, updates the gauges and counter
  /// tracks, and re-evaluates the alarm. The trace-id overload additionally
  /// remembers the ids of recently abstained traced requests (a small ring)
  /// so a drift_alarm event names concrete exemplar requests an operator
  /// can pull out of the merged trace; trace_id 0 behaves like the plain
  /// overload.
  void observe(const SelectivePrediction& p);
  void observe(const SelectivePrediction& p, std::uint64_t trace_id);
  void observe_batch(std::span<const SelectivePrediction> preds);

  /// Trace ids of recently observed abstained requests, oldest first.
  std::vector<std::uint64_t> recent_abstained_traces() const;

  /// Ground-truth feedback: the prediction as served plus the later-arriving
  /// true label. Drives the windowed empirical selective risk.
  void record_outcome(const SelectivePrediction& p, int true_label);

  /// Push-style alarm hooks: the registered callback runs exactly once per
  /// hysteresis transition (fire for on_alarm, clear for on_clear), with a
  /// snapshot taken at the transition. Callbacks are invoked on the thread
  /// that drove the transition (usually the engine batcher) but OUTSIDE the
  /// monitor's data lock, so a callback may call snapshot()/observe() or do
  /// real work — though serving-path callers should stay cheap and hand off
  /// (the adaptation controller just flips a flag and notifies its worker).
  /// Delivery is serialized IN TRANSITION ORDER across threads: a fire and
  /// the clear that follows it (e.g. observe() on the batcher thread vs.
  /// record_outcome() on a feedback thread) can never reach the callbacks
  /// reordered, so a subscriber mirroring the alarm state stays consistent.
  /// Returns a registration id for remove_callback(); the callback must stay
  /// valid until removed or the monitor is destroyed. remove_callback()
  /// blocks until any in-flight invocation returns, so after it returns the
  /// callback will never run again and its captures may be destroyed (a
  /// callback may still remove itself — same-thread re-entry is allowed).
  using AlarmCallback = std::function<void(const MonitorSnapshot&)>;
  std::uint64_t on_alarm(AlarmCallback cb);
  std::uint64_t on_clear(AlarmCallback cb);
  void remove_callback(std::uint64_t id);

  MonitorSnapshot snapshot() const;

  const MonitorOptions& options() const { return opts_; }

  /// The registry holding this monitor's instruments.
  obs::Registry& metrics_registry() const { return metrics_; }

 private:
  struct Outcome {
    bool selected;
    bool correct;
  };

  /// What refresh_locked() did to the alarm state this update.
  enum class Transition { kNone, kFired, kCleared };

  /// Recomputes windowed stats, publishes gauges/counters, fires or clears
  /// the alarm. Caller holds mutex_. Returns the alarm transition so the
  /// caller can dispatch registered callbacks after releasing the lock.
  Transition refresh_locked();

  /// snapshot() body. Caller holds mutex_.
  MonitorSnapshot snapshot_locked() const;

  /// Copies the matching callbacks (under callback_mutex_) and invokes them.
  /// Must be called WITHOUT mutex_ held and WITH dispatch_mutex_ held.
  void dispatch(Transition t, const MonitorSnapshot& snap);

  const MonitorOptions opts_;

  mutable obs::Registry own_metrics_;  // used when opts_.registry == nullptr
  obs::Registry& metrics_;
  obs::RunLog& run_log_;
  obs::Counter& observations_total_;
  obs::Counter& outcomes_total_;
  obs::Counter& alarms_total_;
  obs::Gauge& coverage_gauge_;
  obs::Gauge& abstention_gauge_;
  obs::Gauge& abstention_ewma_gauge_;
  obs::Gauge& mean_g_gauge_;
  obs::Gauge& risk_gauge_;
  obs::Gauge& alarm_gauge_;
  obs::Gauge& window_fill_gauge_;
  std::vector<obs::Gauge*> class_mix_gauges_;

  mutable std::mutex mutex_;
  std::deque<SelectivePrediction> window_;
  std::deque<std::uint64_t> recent_abstained_traces_;  // bounded exemplars
  std::deque<Outcome> outcomes_;
  std::size_t selected_in_window_ = 0;
  double g_sum_in_window_ = 0.0;
  std::vector<std::size_t> class_counts_;
  std::size_t outcome_selected_ = 0;
  std::size_t outcome_errors_ = 0;
  double abstention_ewma_ = 0.0;
  double g_ewma_ = 0.0;
  bool ewma_seeded_ = false;
  bool alarm_ = false;

  // Dispatch serialization. Held (recursively, so callbacks may re-enter
  // observe()/record_outcome() or remove themselves) around every
  // update + callback delivery: without it, refresh_locked() could compute
  // kFired on one thread and kCleared on another, then deliver them in the
  // opposite order once mutex_ is released — leaving a state-mirroring
  // subscriber permanently wrong. remove_callback() also takes it, which is
  // what makes removal a barrier against in-flight invocations. Ordering:
  // dispatch_mutex_ -> mutex_ / callback_mutex_, never the reverse.
  mutable std::recursive_mutex dispatch_mutex_;

  // Callback registry. A separate mutex so a callback body may re-enter the
  // monitor (snapshot(), observe()) without deadlocking, and registration
  // never contends with the observe() hot path.
  struct Registration {
    std::uint64_t id;
    bool on_fire;  // true: runs on kFired; false: runs on kCleared
    AlarmCallback cb;
  };
  mutable std::mutex callback_mutex_;
  std::vector<Registration> callbacks_;
  std::uint64_t next_callback_id_ = 1;
};

}  // namespace wm::serve
