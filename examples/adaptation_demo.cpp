// Closed-loop drift adaptation demo: alarm -> recalibrate -> fine-tune ->
// hot-swap, with zero restarts.
//
// Two scenarios run back to back against a live engine + SelectiveMonitor +
// AdaptationController stack, each on two-phase traffic:
//
//   A  coverage drift. Phase 1 replays in-distribution wafers (coverage sits
//      at the calibrated c0); phase 2 floods the engine with wafers the
//      model abstains on. Windowed coverage collapses, the drift alarm
//      fires, and STAGE 1 recovers: the controller re-fits the abstention
//      threshold on the recent g-scores in its sample buffer and hot-swaps
//      the same weights at the new cut. Coverage returns to c0, the alarm
//      clears, no retrain happens.
//
//   B  risk drift. Phase 2 streams wafers the model classifies confidently
//      but WRONG (ground truth fed back for 75% of them; 25% stay
//      unlabeled). Thresholding cannot fix this — wrong-but-confident
//      predictions stay selected at any cut — so after the stage-1 re-fit
//      fails its evaluation window the controller ESCALATES: it fine-tunes
//      a clone of the serving net on the buffered samples (ground-truth
//      labels where present, CAE latent nearest-centroid pseudo-labels for
//      the unlabeled rest, CAE-augmented per Algorithm 1), re-fits the
//      threshold under the new net, and promotes it through the
//      canary-verified hot-swap path. Selective risk returns to the
//      pre-drift baseline and the alarm clears — in the same process, with
//      the engine serving throughout.
//
// Artifacts written to the working directory:
//   adaptation_run_log.jsonl  drift_alarm / adapt_* / model_swap events
//   adaptation_metrics.prom   final Prometheus dump (wm_adapt_*, versions)
//   adaptation_trace.json     Perfetto trace with adapt.* spans
//
// Exit code is non-zero if any step of either loop did not happen — CI runs
// this binary as the adaptation smoke test.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adapt/controller.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/run_log.hpp"
#include "obs/trace.hpp"
#include "selective/calibrate.hpp"
#include "selective/load_classifier.hpp"
#include "selective/trainer.hpp"
#include "serve/hot_swap.hpp"
#include "serve/inference_engine.hpp"
#include "serve/monitor.hpp"
#include "wafermap/synth/generator.hpp"

using namespace wm;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("  %-58s %s\n", what, ok ? "ok" : "FAILED");
  if (!ok) ++failures;
}

/// Polls `done` while `pump` drives traffic, until the deadline.
template <typename Done, typename Pump>
bool drive_until(Done done, Pump pump, int deadline_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(deadline_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    pump();
  }
  return done();
}

}  // namespace

int main() {
  obs::set_trace_enabled(true);
  obs::set_run_log_path("adaptation_run_log.jsonl");

  // Shared model: a small selective net calibrated for c0.
  const double c0 = 0.7;
  Rng rng(13);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts.fill(40);
  Dataset data = synth::generate_dataset(spec, rng);
  data.shuffle(rng);
  const auto [train, pool] = data.stratified_split(0.7, rng);

  selective::SelectiveNet net({.map_size = 16, .num_classes = 9,
                               .conv1_filters = 8, .conv2_filters = 8,
                               .conv3_filters = 8, .fc_units = 32,
                               .use_batchnorm = true},
                              rng);
  selective::SelectiveTrainer trainer({.epochs = 4, .batch_size = 32,
                                       .learning_rate = 2e-3,
                                       .target_coverage = c0});
  trainer.train(net, train, nullptr, rng);
  const float tau0 = selective::calibrate_threshold(net, pool, c0);
  std::printf("calibrated threshold tau=%.4f for target coverage %.2f\n\n",
              tau0, c0);

  // Traffic slices, by the model's own verdict at tau0. The hostile stream
  // wants SELECTED-but-wrong wafers (they drive risk at any coverage); when
  // the model is too accurate for that slice alone, the highest-g wrong
  // abstentions top it up — they become selected-and-wrong the moment
  // stage 1 lowers the cut.
  const auto probe = load_classifier(net, {.threshold = tau0});
  std::vector<WaferMap> in_dist;                // everything
  std::vector<WaferMap> drifted;                // abstained-only (scenario A)
  std::vector<WaferMap> hostile;                // selected-but-wrong (B)
  std::vector<int> hostile_labels;
  std::vector<std::size_t> wrong_abstained;     // pool indices, fallback
  for (std::size_t i = 0; i < pool.size(); ++i) {
    in_dist.push_back(pool[i].map);
    const SelectivePrediction p = probe->predict_one(pool[i].map);
    if (!p.selected) drifted.push_back(pool[i].map);
    if (p.label != static_cast<int>(pool[i].label)) {
      if (p.selected) {
        hostile.push_back(pool[i].map);
        hostile_labels.push_back(static_cast<int>(pool[i].label));
      } else {
        wrong_abstained.push_back(i);
      }
    }
  }
  std::sort(wrong_abstained.begin(), wrong_abstained.end(),
            [&](std::size_t a, std::size_t b) {
              return probe->predict_one(pool[a].map).g >
                     probe->predict_one(pool[b].map).g;
            });
  for (std::size_t i : wrong_abstained) {
    if (hostile.size() >= 24) break;
    hostile.push_back(pool[i].map);
    hostile_labels.push_back(static_cast<int>(pool[i].label));
  }
  std::printf("streams: %zu in-dist, %zu drifted (abstained), %zu hostile "
              "(misclassified)\n\n",
              in_dist.size(), drifted.size(), hostile.size());
  if (drifted.empty() || hostile.size() < 8) {
    std::fprintf(stderr, "degenerate traffic split; cannot run the demo\n");
    return 1;
  }

  std::vector<WaferMap> canaries(in_dist.begin(),
                                 in_dist.begin() + std::min<std::size_t>(
                                                       4, in_dist.size()));

  // ------------------------------------------------------------------
  // Scenario A: coverage drift -> stage-1 recalibration restores c0.
  // ------------------------------------------------------------------
  std::printf("scenario A: coverage drift -> recalibrate\n");
  {
    obs::Registry reg;
    serve::SelectiveMonitor monitor({.window = 64,
                                     .target_coverage = c0,
                                     .coverage_tolerance = 0.25,
                                     .min_observations = 32,
                                     .clear_fraction = 0.6,
                                     .registry = &reg});
    serve::SwappableClassifier swappable(
        load_classifier(net, {.threshold = tau0}), {.registry = &reg});

    adapt::AdaptConfig cfg;
    cfg.buffer_capacity = 512;
    cfg.min_samples = 48;
    cfg.refit_window = 64;
    cfg.cooldown_ms = 300;
    cfg.eval_ms = 3000;
    adapt::AdaptationController controller(
        cfg, {.monitor = &monitor,
              .swappable = &swappable,
              .canaries = canaries,
              .registry = &reg});

    serve::InferenceEngine engine(swappable,
                                  {.max_batch = 16,
                                   .registry = &reg,
                                   .monitor = &monitor,
                                   .sample_tap = &controller.buffer()});

    // Phase 1: in-distribution — the loop stays in OBSERVE.
    for (int pass = 0; pass < 2; ++pass) {
      for (const WaferMap& m : in_dist) (void)engine.predict(m);
    }
    const serve::MonitorSnapshot healthy = monitor.snapshot();
    check(!healthy.alarm, "A: phase 1 stays clear of alarms");

    // Phase 2: abstained-only traffic until the alarm fires, then keep the
    // stream flowing so the recalibrated model can prove itself.
    std::size_t i = 0;
    const auto pump = [&] { (void)engine.predict(drifted[i++ % drifted.size()]); };
    const bool fired = drive_until(
        [&] { return monitor.snapshot().alarm; }, pump, 30);
    check(fired, "A: drift alarm fires on abstained-dominated traffic");

    const bool recovered = drive_until(
        [&] {
          const adapt::AdaptStatus s = controller.status();
          return s.recalibrations >= 1 && !monitor.snapshot().alarm;
        },
        pump, 60);
    // Settle: the worker finishes the episode (logs adapt_resolved, drops
    // back to OBSERVE) moments after the alarm clears.
    (void)drive_until(
        [&] { return controller.status().state == adapt::AdaptState::kObserve; },
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(10)); }, 5);
    const adapt::AdaptStatus status = controller.status();
    const serve::MonitorSnapshot after = monitor.snapshot();
    check(recovered, "A: recalibration clears the alarm");
    check(status.recalibrations >= 1, "A: stage-1 re-fit happened");
    check(status.retrains == 0, "A: no escalation to retrain");
    check(status.rollbacks == 0, "A: no rollbacks");
    check(swappable.version() >= 2, "A: model version advanced (hot swap)");
    check(std::abs(after.coverage - c0) <= 0.25,
          "A: coverage back within tolerance of c0");
    check(status.state == adapt::AdaptState::kObserve,
          "A: controller back in OBSERVE");
    std::printf("  -> coverage %.3f at threshold %.4f (was %.4f), version %llu\n\n",
                after.coverage, status.threshold, tau0,
                static_cast<unsigned long long>(swappable.version()));
    engine.shutdown();
  }

  // ------------------------------------------------------------------
  // Scenario B: risk drift -> stage-2 fine-tune + canary-verified swap.
  // ------------------------------------------------------------------
  std::printf("scenario B: risk drift -> fine-tune + hot swap\n");
  {
    obs::Registry reg;
    serve::SelectiveMonitor monitor({.window = 64,
                                     .target_coverage = c0,
                                     .coverage_tolerance = 0.3,
                                     .risk_threshold = 0.35,
                                     .min_observations = 32,
                                     .min_outcomes = 24,
                                     .clear_fraction = 0.6,
                                     .registry = &reg});
    serve::SwappableClassifier swappable(
        load_classifier(net, {.threshold = tau0}), {.registry = &reg});

    adapt::AdaptConfig cfg;
    cfg.buffer_capacity = 512;
    cfg.min_samples = 40;
    cfg.refit_window = 64;
    cfg.cooldown_ms = 300;
    cfg.eval_ms = 1500;        // stage 1 gets 1.5 s to prove itself, then
                               // the loop escalates to fine-tuning
    cfg.fine_tune_epochs = 8;
    cfg.fine_tune_batch = 16;
    cfg.fine_tune_lr = 1e-3;
    cfg.cae_epochs = 3;
    cfg.augment_target = 24;   // Algorithm-1 CAE augmentation of the
                               // scarce drifted samples
    adapt::AdaptationController controller(
        cfg, {.monitor = &monitor,
              .swappable = &swappable,
              .canaries = canaries,
              .registry = &reg});

    serve::InferenceEngine engine(swappable,
                                  {.max_batch = 16,
                                   .registry = &reg,
                                   .monitor = &monitor,
                                   .sample_tap = &controller.buffer()});

    // Pre-drift baseline: in-distribution traffic with ground truth.
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const SelectivePrediction p = engine.predict(pool[i].map);
      controller.record_outcome(pool[i].map, p,
                                static_cast<int>(pool[i].label));
    }
    const serve::MonitorSnapshot baseline = monitor.snapshot();
    check(!baseline.alarm, "B: baseline stays clear of alarms");
    std::printf("  baseline selective risk %.3f\n", baseline.selective_risk);

    // Phase 2: hostile traffic — confidently wrong wafers. 75% get ground
    // truth fed back (driving windowed risk AND giving the fine-tune its
    // labels); every 4th stays unlabeled to exercise pseudo-labeling.
    std::size_t i = 0;
    const auto pump = [&] {
      const std::size_t k = i++ % hostile.size();
      const SelectivePrediction p = engine.predict(hostile[k]);
      if (k % 4 != 3) {
        controller.record_outcome(hostile[k], p, hostile_labels[k]);
      }
    };
    const bool fired =
        drive_until([&] { return monitor.snapshot().alarm; }, pump, 30);
    check(fired, "B: risk alarm fires on confidently-wrong traffic");

    const bool recovered = drive_until(
        [&] {
          const adapt::AdaptStatus s = controller.status();
          return s.retrains >= 1 && !monitor.snapshot().alarm;
        },
        pump, 180);
    // Settle: the post-swap trial ends (pending rollback released, state
    // back to OBSERVE) shortly after the alarm clears; keep a trickle of
    // hostile traffic flowing so the evaluation window sees the recovery.
    (void)drive_until(
        [&] { return controller.status().state == adapt::AdaptState::kObserve; },
        pump, 10);
    const adapt::AdaptStatus status = controller.status();
    const serve::MonitorSnapshot after = monitor.snapshot();
    check(recovered, "B: fine-tuned swap clears the alarm");
    check(status.recalibrations >= 1, "B: stage 1 was tried first");
    check(status.retrains >= 1, "B: escalation fine-tuned a candidate");
    check(swappable.version() >= 3, "B: version advanced twice (re-fit + swap)");
    check(status.rollbacks == 0, "B: promoted candidate stuck (no rollback)");
    check(status.last_retrain.pseudo_labeled > 0,
          "B: unlabeled samples were pseudo-labeled");
    check(status.last_retrain.augmented > 0,
          "B: fine-tune set was CAE-augmented");
    check(after.selective_risk <= baseline.selective_risk + 0.15,
          "B: selective risk back near the pre-drift baseline");
    std::printf("  -> risk %.3f (baseline %.3f), coverage %.3f, version %llu; "
                "retrain: %zu samples (%zu labeled, %zu pseudo, %zu augmented)\n\n",
                after.selective_risk, baseline.selective_risk, after.coverage,
                static_cast<unsigned long long>(swappable.version()),
                status.last_retrain.samples, status.last_retrain.labeled,
                status.last_retrain.pseudo_labeled,
                status.last_retrain.augmented);

    // The registry must tell the same story as the controller.
    const std::string prom = reg.prometheus_text();
    check(prom.find("wm_adapt_retrains_total") != std::string::npos &&
              prom.find("wm_serve_model_version") != std::string::npos,
          "B: wm_adapt_* / wm_serve_model_version gauges exported");
    std::FILE* f = std::fopen("adaptation_metrics.prom", "w");
    if (f != nullptr) {
      std::fwrite(prom.data(), 1, prom.size(), f);
      std::fclose(f);
    }
    engine.shutdown();
  }

  obs::trace_write_json("adaptation_trace.json");
  std::printf("artifacts: adaptation_run_log.jsonl, adaptation_metrics.prom, "
              "adaptation_trace.json\n");

  if (failures != 0) {
    std::fprintf(stderr, "FAILED: %d check(s) did not hold\n", failures);
    return 1;
  }
  std::printf("closed loop recovered from both drifts without a restart — "
              "demo passed\n");
  return 0;
}
