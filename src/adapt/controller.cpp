#include "adapt/controller.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "adapt/pseudo_label.hpp"
#include "augment/augmentor.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"
#include "selective/calibrate.hpp"
#include "selective/load_classifier.hpp"
#include "selective/trainer.hpp"

namespace wm::adapt {

namespace {

using Clock = std::chrono::steady_clock;

/// Ceiling of the post-rollback backoff.
constexpr std::int64_t kBackoffMaxMs = 60000;
/// Seed of the controller's private RNG (CAE init, fine-tune shuffling).
constexpr std::uint32_t kSeed = 17;

std::chrono::milliseconds ms(std::int64_t v) {
  return std::chrono::milliseconds(v);
}

obs::Registry& resolve_registry(const AdaptHooks& hooks, obs::Registry& own) {
  return hooks.registry != nullptr ? *hooks.registry : own;
}

obs::RunLog& resolve_run_log(const AdaptHooks& hooks) {
  return hooks.run_log != nullptr ? *hooks.run_log : obs::run_log_global();
}

}  // namespace

const char* to_string(AdaptState state) {
  switch (state) {
    case AdaptState::kObserve:
      return "OBSERVE";
    case AdaptState::kRecalibrate:
      return "RECALIBRATE";
    case AdaptState::kRetrain:
      return "RETRAIN";
    case AdaptState::kSwapped:
      return "SWAPPED";
  }
  return "?";
}

AdaptationController::AdaptationController(const AdaptConfig& config,
                                           AdaptHooks hooks)
    : cfg_(config),
      hooks_(std::move(hooks)),
      buffer_(cfg_.buffer_capacity),
      rng_(kSeed),
      metrics_(resolve_registry(hooks_, own_metrics_)),
      run_log_(resolve_run_log(hooks_)),
      state_gauge_(metrics_.gauge(
          "wm_adapt_state",
          "controller state (0 observe, 1 recalibrate, 2 retrain, 3 swapped)")),
      threshold_gauge_(metrics_.gauge(
          "wm_adapt_threshold", "last abstention threshold the loop applied")),
      buffer_fill_gauge_(metrics_.gauge("wm_adapt_buffer_fill",
                                        "entries in the sample buffer")),
      backoff_gauge_(metrics_.gauge("wm_adapt_backoff_ms",
                                    "current post-rollback backoff")),
      alarms_total_(metrics_.counter("wm_adapt_alarms_total",
                                     "drift alarms delivered to the loop")),
      recalibrations_total_(metrics_.counter(
          "wm_adapt_recalibrations_total", "stage-1 threshold re-fits applied")),
      retrains_total_(metrics_.counter("wm_adapt_retrains_total",
                                       "stage-2 fine-tune candidates built")),
      swaps_total_(metrics_.counter("wm_adapt_swaps_total",
                                    "promotions initiated by the loop")),
      rollbacks_total_(metrics_.counter(
          "wm_adapt_rollbacks_total",
          "candidates rejected (canary failure or post-swap regression)")),
      skips_total_(metrics_.counter("wm_adapt_skips_total",
                                    "actions not taken (see adapt_skip)")),
      backoff_ms_(0) {
  WM_CHECK(hooks_.monitor != nullptr, "AdaptationController needs a monitor");
  WM_CHECK(hooks_.swappable != nullptr,
           "AdaptationController needs a SwappableClassifier");

  state_gauge_.set(0.0);

  alarm_cb_id_ = hooks_.monitor->on_alarm([this](
                                              const serve::MonitorSnapshot& s) {
    // Engine batcher thread: stay cheap — log, flag, hand off to the worker.
    alarms_total_.inc();
    run_log_.write("adapt_alarm", {{"coverage", s.coverage},
                                   {"target_coverage", s.target_coverage},
                                   {"selective_risk", s.selective_risk},
                                   {"window_fill", static_cast<std::uint64_t>(
                                                       s.window_fill)}});
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      alarm_active_ = true;
    }
    cv_.notify_all();
  });
  clear_cb_id_ =
      hooks_.monitor->on_clear([this](const serve::MonitorSnapshot&) {
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          alarm_active_ = false;
        }
        cv_.notify_all();
      });

  // An alarm may predate the controller; start the episode immediately.
  // Callbacks are registered FIRST, then the snapshot is read under the
  // controller mutex: a transition in between lands through the callback
  // (delivery is serialized behind the monitor's dispatch lock and a
  // snapshot is always at least as fresh as any dispatched transition), so
  // no fire or clear can be lost in the gap.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (hooks_.monitor->snapshot().alarm) alarm_active_ = true;
  }

  worker_ = std::thread([this] { worker_loop(); });
}

AdaptationController::~AdaptationController() {
  // Unhook first so no alarm callback races member destruction, then stop.
  hooks_.monitor->remove_callback(alarm_cb_id_);
  hooks_.monitor->remove_callback(clear_cb_id_);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void AdaptationController::record_outcome(const WaferMap& map,
                                          const SelectivePrediction& pred,
                                          int true_label) {
  buffer_.record_outcome(map, pred, true_label);
  hooks_.monitor->record_outcome(pred, true_label);
}

void AdaptationController::set_state(AdaptState s) {
  const std::lock_guard<std::mutex> lock(mutex_);
  state_ = s;
  state_gauge_.set(static_cast<double>(static_cast<int>(s)));
}

void AdaptationController::skip(const char* reason) {
  skips_total_.inc();
  run_log_.write("adapt_skip", {{"reason", reason}});
}

void AdaptationController::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    cv_.wait(lock, [&] { return stop_ || alarm_active_; });
    if (stop_) break;

    // Rate limit: a previous action (or rollback backoff) gates the next.
    if (Clock::now() < next_action_) {
      skip("cooldown");
      cv_.wait_until(lock, next_action_, [&] { return stop_; });
      continue;  // re-check the alarm after the wait
    }
    if (!alarm_active_) continue;  // cleared on its own

    const int stage = episode_stage_;
    lock.unlock();
    bool acted = false;
    try {
      acted = stage == 0 ? do_recalibrate() : do_retrain();
    } catch (const std::exception& e) {
      // The loop must never take the process down. Anything in a stage can
      // throw on the worker thread — a classifier refusing a re-cut, a
      // size-mismatched wafer fed through record_outcome tripping a shape
      // check in the CAE/fine-tune path — and an escaping exception here
      // would std::terminate the whole serving process.
      // Treat it like any other non-action: log, count, retry after the
      // cooldown on fresher buffer contents.
      skips_total_.inc();
      run_log_.write("adapt_error",
                     {{"stage", stage == 0 ? "recalibrate" : "retrain"},
                      {"error", e.what()}});
      log_error("adapt: ", stage == 0 ? "recalibrate" : "retrain",
                " failed: ", e.what());
    } catch (...) {
      skips_total_.inc();
      run_log_.write("adapt_error",
                     {{"stage", stage == 0 ? "recalibrate" : "retrain"},
                      {"error", "unknown exception"}});
      log_error("adapt: ", stage == 0 ? "recalibrate" : "retrain",
                " failed: unknown exception");
    }
    lock.lock();
    if (stop_) break;

    if (!acted) {
      // Preconditions unmet (not enough samples, no net / no labels, canary
      // rejection). Never escalate on a non-action; when stage 2 itself is
      // impossible, fall BACK to stage 1 — by the next pass the buffer holds
      // fresher post-drift traffic, so another re-fit can still converge
      // (the recalibrate-only loop for label-free or quantized deployments).
      if (stage == 1) episode_stage_ = 0;
      next_action_ =
          Clock::now() + ms(std::max<std::int64_t>(cfg_.cooldown_ms, 50));
      cv_.wait_until(lock, next_action_,
                     [&] { return stop_ || !alarm_active_; });
      continue;
    }

    next_action_ =
        Clock::now() + ms(std::max<std::int64_t>(cfg_.cooldown_ms, backoff_ms_));

    // Post-action evaluation: give fresh traffic eval_ms to clear the alarm.
    const auto eval_deadline = Clock::now() + ms(cfg_.eval_ms);
    cv_.wait_until(lock, eval_deadline, [&] { return stop_ || !alarm_active_; });
    if (stop_) break;

    if (!alarm_active_) {
      run_log_.write("adapt_resolved",
                     {{"stage", stage == 0 ? "recalibrate" : "retrain"},
                      {"threshold", last_threshold_}});
      log_info("adapt: drift resolved by ",
               stage == 0 ? "recalibration" : "retrain");
      episode_stage_ = 0;
      backoff_ms_ = 0;
      backoff_gauge_.set(0.0);
      pending_rollback_.reset();
      state_ = AdaptState::kObserve;
      state_gauge_.set(0.0);
      continue;
    }

    if (stage == 0) {
      // The re-fit did not recover the operating point (risk drift:
      // thresholding cannot unselect wrong-but-confident traffic) —
      // escalate to fine-tuning on the next pass.
      episode_stage_ = 1;
      continue;
    }

    // A promoted stage-2 candidate failed to clear the alarm: regression.
    std::shared_ptr<const Classifier> prev = std::move(pending_rollback_);
    pending_rollback_.reset();
    lock.unlock();
    if (prev != nullptr) do_rollback(prev);
    lock.lock();
    backoff_ms_ = backoff_ms_ == 0
                      ? std::max<std::int64_t>(2 * cfg_.cooldown_ms, 100)
                      : std::min(2 * backoff_ms_, kBackoffMaxMs);
    backoff_gauge_.set(static_cast<double>(backoff_ms_));
    next_action_ = Clock::now() + ms(backoff_ms_);
    episode_stage_ = 0;  // start over (recalibrate first) after the backoff
    state_ = AdaptState::kObserve;
    state_gauge_.set(0.0);
  }
}

bool AdaptationController::do_recalibrate() {
  buffer_fill_gauge_.set(static_cast<double>(buffer_.size()));
  if (buffer_.size() < cfg_.min_samples) {
    skip("insufficient_samples");
    return false;
  }
  // Re-cut what serves now: after a promoted retrain that is the
  // fine-tuned net, not the one the controller started with.
  const auto incumbent = std::dynamic_pointer_cast<const LoadedClassifier>(
      hooks_.swappable->current());
  if (incumbent == nullptr) {
    skip("no_threshold");
    return false;
  }
  set_state(AdaptState::kRecalibrate);
  WM_TRACE_SCOPE("adapt.recalibrate");

  const double target = hooks_.monitor->options().target_coverage;
  const std::vector<float> gs = buffer_.recent_g(cfg_.refit_window);
  const float tau = selective::refit_threshold(gs, target);
  const double achieved = selective::coverage_at(gs, tau);

  std::shared_ptr<const Classifier> candidate = incumbent->with_threshold(tau);
  try {
    WM_TRACE_SCOPE("adapt.swap");
    hooks_.swappable->swap_to(candidate, hooks_.canaries, "adapt:recalibrate");
  } catch (const std::exception& e) {
    rollbacks_total_.inc();
    run_log_.write("adapt_rollback",
                   {{"reason", "canary"}, {"stage", "recalibrate"},
                    {"error", e.what()}});
    log_warn("adapt: recalibrated candidate rejected: ", e.what());
    return false;
  }

  recalibrations_total_.inc();
  swaps_total_.inc();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    last_threshold_ = tau;
  }
  threshold_gauge_.set(static_cast<double>(tau));
  run_log_.write("adapt_recalibrate",
                 {{"new_threshold", tau},
                  {"target_coverage", target},
                  {"achieved_coverage", achieved},
                  {"g_window", static_cast<std::uint64_t>(gs.size())},
                  {"model_version", hooks_.swappable->version()}});
  log_info("adapt: recalibrated threshold to ", tau, " (coverage ", achieved,
           " vs target ", target, ") on ", gs.size(), " recent g-scores");
  return true;
}

bool AdaptationController::do_retrain() {
  // Fine-tune what serves now, as stage 1 re-cuts it: after a promoted
  // retrain or a reload that is not the net the controller started with.
  // The incumbent serves untouched until the swap.
  const auto incumbent = std::dynamic_pointer_cast<const LoadedClassifier>(
      hooks_.swappable->current());
  std::unique_ptr<selective::SelectiveNet> candidate_net =
      incumbent != nullptr ? incumbent->clone_net() : nullptr;
  if (candidate_net == nullptr) {
    skip("no_net");
    return false;
  }
  if (retrains_total_.value() >= cfg_.max_retrains) {
    skip("retrain_cap");
    return false;
  }
  const std::vector<SampleBuffer::Entry> entries = buffer_.snapshot();
  buffer_fill_gauge_.set(static_cast<double>(entries.size()));
  if (entries.size() < cfg_.min_samples) {
    skip("insufficient_samples");
    return false;
  }

  // Ground-truth core + pseudo-label pool. Correctly-classified labeled
  // samples stay in: they anchor the fine-tune against forgetting what
  // still works.
  Dataset labeled;
  std::vector<WaferMap> unlabeled;
  for (const SampleBuffer::Entry& e : entries) {
    if (e.label >= 0) {
      labeled.add(Sample{e.map, defect_type_from_index(e.label), 1.0f, false});
    } else {
      unlabeled.push_back(e.map);
    }
  }
  if (labeled.empty()) {
    // No ground truth at all: centroids (and any sane fine-tune) need at
    // least some labels.
    skip("no_labels");
    return false;
  }

  set_state(AdaptState::kRetrain);
  WM_TRACE_SCOPE("adapt.retrain");
  const int map_size = labeled[0].map.size();
  const double target = hooks_.monitor->options().target_coverage;

  RetrainStats stats;
  stats.labeled = labeled.size();

  Dataset fine_set = labeled;
  if (cfg_.use_pseudo_labels && !unlabeled.empty()) {
    PseudoLabelOptions plo;
    plo.cae.map_size = map_size;
    plo.cae_training.epochs = cfg_.cae_epochs;
    plo.cae_training.run_log = &run_log_;
    plo.num_classes = candidate_net->options().num_classes;
    const PseudoLabelResult pl =
        pseudo_label(labeled, unlabeled, plo, rng_);
    for (std::size_t i = 0; i < unlabeled.size(); ++i) {
      if (pl.labels[i] < 0) continue;
      // Down-weighted like synthetics: a centroid guess is not ground truth.
      fine_set.add(Sample{unlabeled[i], defect_type_from_index(pl.labels[i]),
                          0.5f, false});
    }
    stats.pseudo_labeled = pl.assigned;
    run_log_.write("adapt_pseudo_label",
                   {{"unlabeled", unlabeled.size()},
                    {"assigned", pl.assigned},
                    {"centroids", pl.classes_with_centroids},
                    {"cae_loss", pl.cae_final_loss}});
  }

  if (cfg_.augment_target > 0) {
    augment::AugmentOptions ao;
    ao.target_per_class = cfg_.augment_target;
    ao.cae.map_size = map_size;
    ao.cae_training.epochs = cfg_.cae_epochs;
    ao.cae_training.run_log = &run_log_;
    const std::size_t before = fine_set.size();
    fine_set = augment::Augmentor(ao).augment_dataset(fine_set, rng_);
    stats.augmented = fine_set.size() - before;
  }
  stats.samples = fine_set.size();

  selective::TrainerOptions to;
  to.epochs = cfg_.fine_tune_epochs;
  to.batch_size = cfg_.fine_tune_batch;
  to.learning_rate = cfg_.fine_tune_lr;
  to.target_coverage = target;
  to.run_log = &run_log_;
  const selective::TrainingLog log =
      selective::SelectiveTrainer(to).fine_tune(*candidate_net, fine_set, rng_);
  stats.final_loss = log.final_epoch().loss;

  // The fine-tune moved the g distribution; re-fit the cut under the NEW
  // net so the candidate comes up at target coverage on the LIVE mix — the
  // buffered wafers, not fine_set, whose synthetics would skew the cut.
  // The net is compiled once: the loaded candidate scores the buffer, and
  // its re-cut at the fitted tau shares that plan.
  const std::unique_ptr<LoadedClassifier> loaded =
      wm::load_classifier(std::move(candidate_net));
  std::vector<WaferMap> live;
  live.reserve(entries.size());
  for (const SampleBuffer::Entry& e : entries) live.push_back(e.map);
  std::vector<float> gs;
  for (const SelectivePrediction& p : loaded->predict_batch(live)) {
    gs.push_back(p.g);
  }
  const float tau = selective::refit_threshold(gs, target);
  stats.threshold = tau;

  std::shared_ptr<const Classifier> previous = hooks_.swappable->current();
  std::shared_ptr<const Classifier> candidate = loaded->with_threshold(tau);
  try {
    WM_TRACE_SCOPE("adapt.swap");
    hooks_.swappable->swap_to(candidate, hooks_.canaries, "adapt:retrain");
  } catch (const std::exception& e) {
    rollbacks_total_.inc();
    run_log_.write("adapt_rollback", {{"reason", "canary"},
                                      {"stage", "retrain"},
                                      {"error", e.what()}});
    log_warn("adapt: fine-tuned candidate rejected by canaries: ", e.what());
    return false;
  }

  retrains_total_.inc();
  swaps_total_.inc();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    last_threshold_ = tau;
    last_retrain_ = stats;
    pending_rollback_ = std::move(previous);
    state_ = AdaptState::kSwapped;
  }
  state_gauge_.set(static_cast<double>(static_cast<int>(AdaptState::kSwapped)));
  threshold_gauge_.set(static_cast<double>(tau));
  // Buffered predictions came from the retired model; their g-scores would
  // poison the next re-fit.
  buffer_.clear();
  buffer_fill_gauge_.set(0.0);
  run_log_.write(
      "adapt_retrain",
      {{"samples", static_cast<std::uint64_t>(stats.samples)},
       {"labeled", static_cast<std::uint64_t>(stats.labeled)},
       {"pseudo_labeled", static_cast<std::uint64_t>(stats.pseudo_labeled)},
       {"augmented", static_cast<std::uint64_t>(stats.augmented)},
       {"final_loss", stats.final_loss},
       {"new_threshold", tau},
       {"model_version", hooks_.swappable->version()}});
  log_info("adapt: fine-tuned candidate promoted (", stats.samples,
           " samples, ", stats.pseudo_labeled, " pseudo-labeled, ",
           stats.augmented, " augmented), threshold ", tau);
  return true;
}

void AdaptationController::do_rollback(
    const std::shared_ptr<const Classifier>& previous) {
  try {
    hooks_.swappable->swap_to(previous, hooks_.canaries, "adapt:rollback");
    rollbacks_total_.inc();
    run_log_.write("adapt_rollback",
                   {{"reason", "regression"},
                    {"model_version", hooks_.swappable->version()}});
    log_warn("adapt: candidate failed to clear the alarm; rolled back");
  } catch (const std::exception& e) {
    // The previous model passed canaries once; this is effectively
    // unreachable, but the loop must never take the process down.
    rollbacks_total_.inc();
    run_log_.write("adapt_rollback",
                   {{"reason", "rollback_failed"}, {"error", e.what()}});
    log_error("adapt: rollback itself failed: ", e.what());
  }
}

AdaptStatus AdaptationController::status() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  AdaptStatus s;
  s.state = state_;
  s.alarm_active = alarm_active_;
  s.alarms = alarms_total_.value();
  s.recalibrations = recalibrations_total_.value();
  s.retrains = retrains_total_.value();
  s.swaps = swaps_total_.value();
  s.rollbacks = rollbacks_total_.value();
  s.skips = skips_total_.value();
  s.threshold = last_threshold_;
  s.backoff_ms = backoff_ms_;
  s.last_retrain = last_retrain_;
  return s;
}

}  // namespace wm::adapt
