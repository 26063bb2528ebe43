// adapt::AdaptationController — the closed loop from drift alarm to
// recovered operating point.
//
// The serving stack already had every actuator: SelectiveMonitor detects
// coverage/risk drift (hysteretic alarms), selective::refit_threshold moves
// the abstention cut, the trainer fine-tunes, and SwappableClassifier
// promotes candidates with canary verification and zero downtime. This
// controller is the policy that connects them — a staged, rate-limited
// escalation driven by the monitor's alarm callbacks:
//
//   OBSERVE ── alarm ──> RECALIBRATE ── still alarming ──> RETRAIN ──> SWAPPED
//      ^                     │  alarm clears                             │
//      └─────────────────────┴──────────── clear / rollback ─────────────┘
//
//   * Stage 1, RECALIBRATE: re-fit the abstention threshold on the newest
//     g-scores in the sample buffer so the live traffic mix selects the
//     target coverage again, and promote the serving model's weights at the
//     new cut (LoadedClassifier::with_threshold: no training, no compile).
//     Coverage drift — the common case — ends here.
//   * Stage 2, RETRAIN: when the alarm survives the post-recalibration
//     evaluation window (thresholding cannot fix risk drift: wrong-but-
//     confident predictions stay selected at any sane cut), fine-tune a
//     CLONE of the serving fp32 weights (LoadedClassifier::clone_net) on
//     the buffered traffic — ground-truth
//     labels where record_outcome provided them, CAE latent nearest-
//     centroid pseudo-labels (arXiv 2311.12840) for the rest, optionally
//     re-augmented with the paper's Algorithm-1 CAE pipeline — re-fit the
//     threshold under the new net, and push it through swap_to.
//   * Rollback: a candidate that fails canary verification never serves
//     (swap_to throws, incumbent stays); a candidate that serves but does
//     not clear the alarm within the evaluation window is rolled back to
//     the pre-swap model and the controller backs off exponentially.
//
// Rate limiting: actions are separated by at least cooldown_ms; every
// rollback doubles the wait (capped at 60 s) and a success resets it. All
// decisions and transitions are observable: wm_adapt_* instruments, adapt_*
// run-log events, and adapt.* Perfetto spans.
//
// Threading: monitor callbacks (engine batcher thread) only flip a flag and
// notify; every expensive step — re-fit, CAE training, fine-tuning, swap —
// runs on the controller's own worker thread while the engine keeps
// serving the incumbent.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "adapt/adapt_config.hpp"
#include "adapt/sample_buffer.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/run_log.hpp"
#include "serve/hot_swap.hpp"
#include "serve/monitor.hpp"

namespace wm::adapt {

enum class AdaptState {
  kObserve = 0,      // healthy; waiting for an alarm
  kRecalibrate = 1,  // stage-1 threshold re-fit applied, awaiting verdict
  kRetrain = 2,      // stage-2 fine-tune in progress
  kSwapped = 3,      // stage-2 candidate serving, awaiting verdict
};

const char* to_string(AdaptState state);

/// Everything the controller acts through. All pointers are borrowed and
/// must outlive the controller.
struct AdaptHooks {
  /// Alarm source; also provides the target coverage. Required.
  serve::SelectiveMonitor* monitor = nullptr;
  /// Promotion path (the engine serves through this wrapper). Required.
  /// Both stages act on the classifier it serves, so that must be a
  /// LoadedClassifier: stage 1 re-cuts it, stage 2 fine-tunes a clone of
  /// its fp32 weights. Anything else skips stage 1 (adapt_skip reason
  /// no_threshold); an int8 model, or one that is not a LoadedClassifier,
  /// skips stage 2 (no_net), so the controller stays a recalibrate-only
  /// loop.
  serve::SwappableClassifier* swappable = nullptr;
  /// Canary wafers for swap_to verification (may be empty: swap unverified).
  std::vector<WaferMap> canaries{};
  /// Instruments registry. nullptr = controller-private.
  obs::Registry* registry = nullptr;
  /// adapt_* event sink. nullptr = obs::run_log_global().
  obs::RunLog* run_log = nullptr;
};

/// Stats of the most recent stage-2 retrain.
struct RetrainStats {
  std::size_t samples = 0;        // fine-tune set size (after augmentation)
  std::size_t labeled = 0;        // ground-truth-labeled buffered samples
  std::size_t pseudo_labeled = 0; // labels assigned via CAE centroids
  std::size_t augmented = 0;      // synthetic samples added by Algorithm 1
  float final_loss = 0.0f;
  float threshold = 0.0f;         // re-fit cut under the fine-tuned net
};

/// Point-in-time controller status (all counters lifetime).
struct AdaptStatus {
  AdaptState state = AdaptState::kObserve;
  bool alarm_active = false;
  std::uint64_t alarms = 0;
  std::uint64_t recalibrations = 0;
  std::uint64_t retrains = 0;
  std::uint64_t swaps = 0;         // promotions the controller initiated
  std::uint64_t rollbacks = 0;
  std::uint64_t skips = 0;         // actions not taken (see adapt_skip events)
  float threshold = 0.0f;          // last threshold the controller applied
  std::int64_t backoff_ms = 0;     // current post-rollback wait
  RetrainStats last_retrain;
};

class AdaptationController {
 public:
  /// Registers the monitor hooks and starts the worker. The engine's
  /// EngineOptions::sample_tap should point at buffer() (the controller
  /// never feeds the buffer itself).
  AdaptationController(const AdaptConfig& config, AdaptHooks hooks);

  /// Unregisters the monitor callbacks and joins the worker.
  ~AdaptationController();

  AdaptationController(const AdaptationController&) = delete;
  AdaptationController& operator=(const AdaptationController&) = delete;

  /// The sliding sample buffer — plug into EngineOptions::sample_tap.
  SampleBuffer& buffer() { return buffer_; }

  /// Ground-truth feedback fan-out: one call feeds both the monitor (risk
  /// window) and the sample buffer (fine-tune labels).
  void record_outcome(const WaferMap& map, const SelectivePrediction& pred,
                      int true_label);

  AdaptStatus status() const;

 private:
  void worker_loop();
  /// Stage 1. Returns true when a new threshold was fitted and promoted.
  bool do_recalibrate();
  /// Stage 2. Returns true when a fine-tuned candidate was promoted.
  bool do_retrain();
  /// Restores the pre-swap model after a failed stage-2 evaluation.
  void do_rollback(const std::shared_ptr<const Classifier>& previous);
  void set_state(AdaptState s);
  void skip(const char* reason);

  const AdaptConfig cfg_;
  AdaptHooks hooks_;
  SampleBuffer buffer_;
  Rng rng_;

  mutable obs::Registry own_metrics_;
  obs::Registry& metrics_;
  obs::RunLog& run_log_;
  obs::Gauge& state_gauge_;
  obs::Gauge& threshold_gauge_;
  obs::Gauge& buffer_fill_gauge_;
  obs::Gauge& backoff_gauge_;
  obs::Counter& alarms_total_;
  obs::Counter& recalibrations_total_;
  obs::Counter& retrains_total_;
  obs::Counter& swaps_total_;
  obs::Counter& rollbacks_total_;
  obs::Counter& skips_total_;

  std::uint64_t alarm_cb_id_ = 0;
  std::uint64_t clear_cb_id_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool alarm_active_ = false;
  AdaptState state_ = AdaptState::kObserve;
  int episode_stage_ = 0;  // 0 = next action recalibrates, 1 = retrains
  std::chrono::steady_clock::time_point next_action_{};
  std::int64_t backoff_ms_;
  float last_threshold_ = 0.0f;
  RetrainStats last_retrain_;
  /// The pre-swap incumbent, held while a stage-2 candidate is on trial.
  std::shared_ptr<const Classifier> pending_rollback_;

  std::thread worker_;  // started last
};

}  // namespace wm::adapt
