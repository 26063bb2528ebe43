// wm_tool — command-line front end for the wafer selective-learning library.
//
// Every integer flag has a range, given below with its default. A value
// outside it is an error, reported before the command trains, evaluates or
// serves anything.
//
//   wm_tool generate --out DIR [--per-class N] [--size S] [--seed K]
//       Synthesise a labelled wafer dataset in the interchange layout
//       (index.csv + PGMs). Use it to smoke-test the pipeline, or convert
//       real WM-811K data into the same layout with your own script.
//       --per-class 1..10^5 (default 50), --size 8..1024 (24), --seed
//       0..2^31-1 (1).
//
//   wm_tool train --data DIR --model FILE [--c0 C] [--epochs N] [--batch B]
//                 [--lr LR] [--size S] [--no-augment] [--augment-target T]
//                 [--seed K]
//       Train a selective classifier on a dataset directory and write a
//       self-describing model file. --epochs 1..1000 (default 12), --batch
//       1..4096 (32), --size 8..1024 (24; the net also needs a multiple of
//       8), --augment-target 1..10^5 (a quarter of the training split),
//       --seed 0..2^31-1 (1).
//
//   wm_tool evaluate --data DIR --model FILE [--threshold T]
//                    [--monitor-window N] [--refit-window N] [--c0 C]
//       Per-class metrics, confusion matrix, coverage and selective
//       accuracy of a trained model on a dataset directory. With
//       --monitor-window the predictions are also replayed through a
//       serve::SelectiveMonitor (window N, target coverage --c0) and the
//       streaming monitor's view is printed after the offline report. With
//       --refit-window the adaptation loop's stage-1 threshold re-fit is
//       dry-run offline on the newest N g-scores: the report shows the
//       pre/post-fit threshold and the coverage each achieves, i.e. what
//       `serve --adapt` would do to this traffic without touching a model.
//       --monitor-window 1..10^6 (default 512), --refit-window 1..10^6
//       (256).
//
//   wm_tool classify --model FILE --wafer FILE.pgm [--threshold T]
//       Classify one wafer; prints the label or an abstention.
//
//   wm_tool quantize --model FILE --out FILE
//       Convert an fp32 model file (WSN1) to the int8 quantized format
//       (WSN2): BatchNorm folded, weights per-channel int8 (DESIGN.md §12).
//       evaluate/classify/serve auto-detect the version, so the quantized
//       artifact drops in wherever --model is accepted.
//
//   wm_tool render --wafer FILE.pgm
//       ASCII-render a wafer map.
//
//   wm_tool trace-merge --out FILE IN.json [IN.json...]
//       Merge per-process Perfetto trace files onto one timeline: each
//       input is realigned by its otherData.baseNs (shared CLOCK_MONOTONIC
//       on one host) and colliding pids are remapped, so a distributed
//       request renders as slices hopping between process tracks linked by
//       flow arrows. Open the output in https://ui.perfetto.dev.
//
//   wm_tool collect HOST:PORT [HOST:PORT...] [--port P] [--interval-ms MS]
//                   [--seconds S]
//       Run the fleet collector against a set of replica exporters: scrape
//       every target each interval, merge counters/gauges/histograms into
//       the fleet view, and evaluate the default SLO burn-rate rules
//       (DESIGN.md §15). Serves the merged view on its own exporter
//       (--port, 0 = ephemeral): /fleet (JSON), /dashboard (plain text),
//       /metrics (wm_collector_* + wm_slo_*). Runs until SIGINT/SIGTERM or
//       --seconds, then prints a final dashboard. --port 0..65535 (default
//       0), --interval-ms 1..10^7 (1000), --seconds 0..10^7 (0, until a
//       signal).
//
//   wm_tool scrape HOST:PORT [--delta-ms MS]
//       One-shot debugging scrape: fetch /metrics twice, MS apart, parse
//       both expositions, and pretty-print typed values with per-second
//       rate deltas for the counters and histogram counts. --delta-ms
//       1..10^7 (default 1000).
//
//   wm_tool serve --model FILE [--port P] [--threshold T] [--max-batch N]
//                 [--queue-capacity Q] [--workers W] [--seconds S]
//                 [--model-watch [MS]] [--adapt [--adapt-* N]...]
//       Serve a trained model over the wm_net TCP wire protocol through the
//       micro-batching engine (drive it with tools/loadgen or net::Client).
//       The flags fill a serve::ServerConfig, and a value outside its range
//       is an error: --port 0..65535 (default 0, an ephemeral port),
//       --workers 1..256 (2), --max-batch 1..4096 (32), --queue-capacity
//       1..10^6 (256). A batch is whatever queued during the previous
//       forward, up to --max-batch. Runs until SIGINT/SIGTERM, or exits on
//       its own after --seconds S (0..10^7; default 0, until a signal).
//
//       --model-watch polls the model file's mtime (every MS milliseconds,
//       100..10^7, default 2000) and hot-swaps new weights in with zero
//       downtime: the candidate is loaded beside the incumbent,
//       canary-verified (bit-match, serve::SwappableClassifier), and
//       promoted atomically on a batch boundary. The wm_serve_model_version
//       gauge tracks the active version; each promotion writes a
//       "model_swap" run-log event. A failed reload (torn write, bad magic)
//       logs a warning and keeps the incumbent serving.
//
//       --adapt attaches the closed-loop drift-adaptation controller
//       (DESIGN.md §16): SelectiveMonitor alarms trigger a staged response —
//       re-fit the abstention threshold on recent traffic first; escalate
//       to a CAE-assisted fine-tune of the served fp32 weights when
//       re-fitting cannot clear the alarm — promoted through the same
//       canary-verified hot-swap path. Both stages act on whatever serves,
//       after a --model-watch reload too; while an int8 model serves, the
//       loop is recalibrate-only. Its flags
//       fill an adapt::AdaptConfig, range-checked like the ones above:
//       --adapt-cooldown-ms 0..10^7 (default 5000), --adapt-eval-ms
//       1..10^7 (2000), --adapt-epochs 1..1000 (4), --adapt-buffer
//       16..10^6 (1024), --adapt-min-samples 8..10^6 (64),
//       --adapt-augment-target 0..10^5 (0, off).
//
// Observability flags, valid with every subcommand:
//
//   --metrics FILE   After the command, dump the global metrics registry to
//                    FILE in Prometheus exposition format ("-" for stdout).
//   --trace FILE     Enable scoped tracing (like WM_TRACE=1) and write a
//                    Chrome/Perfetto trace to FILE on exit.
//   --run-log FILE   Append per-epoch training events to FILE as JSONL
//                    (same as the WM_RUN_LOG env var).
//   --http-port P    Serve the global registry over HTTP for the command's
//                    duration: /metrics, /metrics.json, /healthz. P is in
//                    0..65535; 0 picks an ephemeral port.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adapt/controller.hpp"
#include "args.hpp"
#include "augment/augmentor.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "eval/metrics.hpp"
#include "net/server.hpp"
#include "obs/collector.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/prom_parse.hpp"
#include "obs/run_log.hpp"
#include "obs/trace.hpp"
#include "obs/trace_merge.hpp"
#include "eval/tables.hpp"
#include "serve/hot_swap.hpp"
#include "serve/inference_engine.hpp"
#include "serve/monitor.hpp"
#include "serve/server_config.hpp"
#include "selective/calibrate.hpp"
#include "selective/load_classifier.hpp"
#include "selective/model_file.hpp"
#include "selective/trainer.hpp"
#include "wafermap/io_pgm.hpp"
#include "wafermap/resize.hpp"
#include "wafermap/synth/generator.hpp"
#include "wafermap/wm811k_loader.hpp"

using namespace wm;

namespace {

constexpr std::int64_t kMaxSeed = std::numeric_limits<int>::max();

int cmd_generate(const Args& args) {
  const std::string out = args.get("out");
  const int per_class = args.get_int("per-class", 50, 1, 100'000);
  const int size = args.get_int("size", 24, 8, 1024);
  Rng rng(args.get_int<std::uint64_t>("seed", 1, 0, kMaxSeed));
  synth::DatasetSpec spec;
  spec.map_size = size;
  spec.class_counts.fill(per_class);
  Dataset data = synth::generate_dataset(spec, rng);
  data.shuffle(rng);
  save_wafer_directory(out, data);
  std::printf("wrote %zu wafers (%d per class, %dx%d) to %s\n", data.size(),
              per_class, size, size, out.c_str());
  return 0;
}

int cmd_train(const Args& args) {
  const int size = args.get_int("size", 24, 8, 1024);
  const int epochs = args.get_int("epochs", 12, 1, 1000);
  const int batch = args.get_int("batch", 32, 1, 4096);
  Rng rng(args.get_int<std::uint64_t>("seed", 1, 0, kMaxSeed));
  Dataset data = load_wafer_directory(args.get("data"), {.target_size = size});
  data.shuffle(rng);
  const auto [train, val] = data.stratified_split(0.9, rng);
  std::printf("loaded %zu wafers (%zu train / %zu val)\n", data.size(),
              train.size(), val.size());

  Dataset train_aug = train;
  if (!args.has("no-augment")) {
    augment::AugmentOptions aopts;
    aopts.target_per_class = args.get_int(
        "augment-target", static_cast<int>(train.size()) / 4, 1, 100'000);
    aopts.cae.map_size = size;
    augment::Augmentor augmentor(aopts);
    train_aug = augmentor.augment_dataset(train, rng);
    std::printf("augmented training set: %zu wafers\n", train_aug.size());
  }

  selective::SelectiveNet net({.map_size = size, .num_classes = kNumDefectTypes,
                               .use_batchnorm = true},
                              rng);
  selective::SelectiveTrainer trainer(
      {.epochs = epochs,
       .batch_size = batch,
       .learning_rate = args.get_double("lr", 2e-3),
       .target_coverage = args.get_double("c0", 0.5),
       .final_lr_fraction = 0.15,
       .keep_best = true});
  const auto log = trainer.train(net, train_aug, &val, rng);
  std::printf("trained %d epochs in %.1f s; final loss %.4f\n",
              static_cast<int>(log.epochs.size()), log.wall_seconds,
              log.final_epoch().loss);
  selective::save_model(args.get("model"), net);
  std::printf("model written to %s\n", args.get("model").c_str());
  return 0;
}

int cmd_evaluate(const Args& args) {
  const std::size_t monitor_window =
      args.get_int<std::size_t>("monitor-window", 512, 1, 1'000'000);
  const std::size_t refit_window =
      args.get_int<std::size_t>("refit-window", 256, 1, 1'000'000);
  const auto model = load_classifier(
      args.get("model"),
      {.threshold = static_cast<float>(args.get_double("threshold", 0.5))});
  if (model->is_quantized()) {
    std::printf("quantized model (int8 inference fast path)\n");
  }
  const Dataset data = load_wafer_directory(
      args.get("data"), {.target_size = model->map_size()});
  const auto preds = predict_dataset(*model, data);
  std::vector<int> labels;
  for (std::size_t i = 0; i < data.size(); ++i) {
    labels.push_back(static_cast<int>(data[i].label));
  }
  const auto report = eval::selective_report(preds, labels, kNumDefectTypes);
  std::printf("%s", eval::render_selective_block(
                        report, eval::defect_class_names(),
                        args.get_double("threshold", 0.5))
                        .c_str());
  std::printf("full-coverage accuracy (ignoring rejects): %.1f%%\n",
              100.0 * full_accuracy(preds, labels));

  if (args.has("refit-window")) {
    // Offline dry-run of the adaptation loop's stage 1: re-fit the
    // abstention threshold on the newest N g-scores — exactly what
    // adapt::AdaptationController does against its live sample buffer — and
    // report the pre/post operating point without touching any model.
    const double c0 = args.get_double("c0", 0.5);
    std::vector<float> gs;
    const std::size_t first =
        preds.size() > refit_window ? preds.size() - refit_window : 0;
    for (std::size_t i = first; i < preds.size(); ++i) gs.push_back(preds[i].g);
    const float old_tau = static_cast<float>(args.get_double("threshold", 0.5));
    const float new_tau = selective::refit_threshold(gs, c0);
    std::printf("\nthreshold re-fit dry-run (newest %zu g-scores, target c0 "
                "%.2f):\n"
                "  pre-fit  tau %.4f -> coverage %.3f\n"
                "  post-fit tau %.4f -> coverage %.3f\n",
                gs.size(), c0, old_tau, selective::coverage_at(gs, old_tau),
                new_tau, selective::coverage_at(gs, new_tau));
  }

  if (args.has("monitor-window")) {
    // Replay the same predictions through the streaming monitor, as if the
    // dataset had arrived as live traffic; its windowed view of the tail
    // should agree with the offline report when the data is stationary.
    serve::MonitorOptions mopts;
    mopts.window = monitor_window;
    mopts.target_coverage = args.get_double("c0", 0.5);
    mopts.registry = &obs::Registry::global();
    serve::SelectiveMonitor monitor(mopts);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      monitor.observe(preds[i]);
      monitor.record_outcome(preds[i], labels[i]);
    }
    std::printf("\nstreaming monitor replay (window %zu, target c0 %.2f):\n%s",
                mopts.window, mopts.target_coverage,
                monitor.snapshot().to_string().c_str());
  }
  return 0;
}

int cmd_classify(const Args& args) {
  const auto model = load_classifier(
      args.get("model"),
      {.threshold = static_cast<float>(args.get_double("threshold", 0.5))});
  WaferMap map = read_pgm(args.get("wafer"));
  if (map.size() != model->map_size()) {
    map = resize_map(map, model->map_size());
  }
  const auto p = model->predict_one(map);
  if (p.selected) {
    std::printf("%s (g=%.3f, confidence=%.3f)\n",
                to_string(defect_type_from_index(p.label)).c_str(), p.g,
                p.confidence);
  } else {
    std::printf("ABSTAIN (g=%.3f below threshold; best guess %s at %.3f)\n",
                p.g, to_string(defect_type_from_index(p.label)).c_str(),
                p.confidence);
  }
  return 0;
}

std::atomic<bool> g_serve_stop{false};

void serve_signal_handler(int) { g_serve_stop.store(true); }

/// Deterministic canary wafers for hot-swap verification: a handful of
/// distinct fail patterns at the model's expected edge size.
std::vector<WaferMap> swap_canaries(int map_size) {
  std::vector<WaferMap> maps;
  for (int i = 0; i < 4; ++i) {
    WaferMap map(map_size);
    int fails = (i + 1) * map_size / 2;
    for (int r = 0; r < map_size && fails > 0; ++r) {
      for (int c = 0; c < map_size && fails > 0; ++c) {
        if (!map.on_wafer(r, c)) continue;
        if ((r + c + i) % 3 == 0) {
          map.mark_fail(r, c);
          --fails;
        }
      }
    }
    maps.push_back(std::move(map));
  }
  return maps;
}

/// The model file's mtime, or 0 when unreadable.
std::int64_t model_mtime(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::int64_t>(st.st_mtime);
}

int cmd_serve(const Args& args) {
  const std::string model_path = args.get("model");
  const float threshold =
      static_cast<float>(args.get_double("threshold", 0.5));
  serve::ServerConfig cfg;
  cfg.port = args.get_int("port", cfg.port, 0, 65535);
  cfg.workers = args.get_int("workers", cfg.workers, 1, 256);
  cfg.max_batch = args.get_int("max-batch", cfg.max_batch, 1, 4096);
  cfg.queue_capacity =
      args.get_int("queue-capacity", cfg.queue_capacity, 1, 1'000'000);
  const int seconds = args.get_int("seconds", 0, 0, 10'000'000);
  // A bare --model-watch polls every 2 s.
  const bool watch = args.has("model-watch");
  const int watch_ms =
      args.get("model-watch", "true") == "true"
          ? 2000
          : args.get_int("model-watch", 2000, 100, 10'000'000);

  std::shared_ptr<const LoadedClassifier> model =
      load_classifier(model_path, {.threshold = threshold});
  const int map_size = model->map_size();
  const std::vector<WaferMap> canaries = swap_canaries(map_size);

  serve::MonitorOptions mopts;
  mopts.target_coverage = args.get_double("c0", 0.5);
  mopts.registry = &obs::Registry::global();
  serve::SelectiveMonitor monitor(mopts);

  // Hot-swap wrapper between the engine and the model so --model-watch can
  // promote new weights with zero downtime.
  serve::SwappableClassifier swappable(
      model, {.registry = &obs::Registry::global(), .name = model_path});

  // --adapt closes the loop: drift alarms drive threshold re-fits (and,
  // while an fp32 model serves, fine-tunes of its weights) that promote
  // through the same swap path --model-watch uses.
  std::unique_ptr<adapt::AdaptationController> controller;
  if (args.has("adapt")) {
    adapt::AdaptConfig acfg;
    acfg.cooldown_ms =
        args.get_int("adapt-cooldown-ms", acfg.cooldown_ms, 0, 10'000'000);
    acfg.eval_ms = args.get_int("adapt-eval-ms", acfg.eval_ms, 1, 10'000'000);
    acfg.fine_tune_epochs =
        args.get_int("adapt-epochs", acfg.fine_tune_epochs, 1, 1000);
    acfg.buffer_capacity =
        args.get_int("adapt-buffer", acfg.buffer_capacity, 16, 1'000'000);
    acfg.min_samples =
        args.get_int("adapt-min-samples", acfg.min_samples, 8, 1'000'000);
    acfg.augment_target =
        args.get_int("adapt-augment-target", acfg.augment_target, 0, 100'000);
    // Stage 2 fine-tunes a clone of the served fp32 weights; while a
    // quantized artifact serves, the loop is recalibrate-only (the
    // controller logs the skipped escalation as adapt_skip reason=no_net).
    if (model->is_quantized()) {
      std::printf("adapt: quantized model — stage 2 (fine-tune) disabled, "
                  "threshold re-fit only\n");
    }
    controller = std::make_unique<adapt::AdaptationController>(
        acfg,
        adapt::AdaptHooks{.monitor = &monitor,
                          .swappable = &swappable,
                          .canaries = canaries,
                          .registry = &obs::Registry::global()});
  }

  serve::EngineOptions eopts =
      cfg.engine_options(&obs::Registry::global(), &monitor);
  if (controller != nullptr) eopts.sample_tap = &controller->buffer();
  serve::InferenceEngine engine(swappable, eopts);
  net::Server server(engine, cfg.server_options(&obs::Registry::global()));
  std::printf("serving %s%s on tcp://127.0.0.1:%d "
              "(map %d, tau %.2f, %d workers, version %llu)\n",
              model_path.c_str(), model->is_quantized() ? " [int8]" : "",
              server.port(), map_size, threshold, cfg.workers,
              static_cast<unsigned long long>(swappable.version()));

  std::int64_t last_mtime = model_mtime(model_path);
  auto last_check = std::chrono::steady_clock::now();

  g_serve_stop.store(false);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(seconds > 0 ? seconds : 1);
  while (!g_serve_stop.load()) {
    if (seconds > 0 && std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    if (!watch) continue;
    const auto now = std::chrono::steady_clock::now();
    if (now - last_check < std::chrono::milliseconds(watch_ms)) continue;
    last_check = now;
    const std::int64_t mtime = model_mtime(model_path);
    if (mtime == 0 || mtime == last_mtime) continue;
    try {
      std::shared_ptr<const LoadedClassifier> candidate =
          load_classifier(model_path, {.threshold = threshold});
      WM_CHECK(candidate->map_size() == map_size,
               "model-watch: new weights expect map size ",
               candidate->map_size(), ", serving ", map_size);
      swappable.swap_to(candidate, canaries, model_path);
      std::printf("hot-swapped %s%s -> version %llu\n", model_path.c_str(),
                  candidate->is_quantized() ? " [int8]" : "",
                  static_cast<unsigned long long>(swappable.version()));
      last_mtime = mtime;
    } catch (const std::exception& e) {
      // Torn write or bad candidate: keep the incumbent, retry next tick.
      log_warn("model-watch: reload failed, keeping version ",
               swappable.version(), ": ", e.what());
    }
  }

  std::printf("draining: %llu received, %llu answered so far\n",
              static_cast<unsigned long long>(server.requests_received()),
              static_cast<unsigned long long>(server.responses_sent()));
  server.stop();
  engine.shutdown();
  std::printf("%s", engine.stats().to_string().c_str());
  std::printf("shed %llu, timeouts %llu; monitor:\n%s",
              static_cast<unsigned long long>(server.shed()),
              static_cast<unsigned long long>(server.timeouts()),
              monitor.snapshot().to_string().c_str());
  if (controller != nullptr) {
    const adapt::AdaptStatus as = controller->status();
    std::printf("adapt: state %s, %llu alarm(s), %llu recalibration(s), "
                "%llu retrain(s), %llu rollback(s), last threshold %.4f\n",
                adapt::to_string(as.state),
                static_cast<unsigned long long>(as.alarms),
                static_cast<unsigned long long>(as.recalibrations),
                static_cast<unsigned long long>(as.retrains),
                static_cast<unsigned long long>(as.rollbacks), as.threshold);
  }
  return 0;
}

int cmd_quantize(const Args& args) {
  const std::string in_path = args.get("model");
  const std::string out_path = args.get("out");
  auto net = selective::load_model(in_path);
  const selective::QuantizedSelectiveNet qnet =
      selective::quantize_selective_net(*net);
  selective::save_quantized_model(out_path, qnet);
  const auto size_of = [](const std::string& p) -> long {
    std::ifstream f(p, std::ios::binary | std::ios::ate);
    return f ? static_cast<long>(f.tellg()) : 0;
  };
  std::printf("quantized %s (%ld bytes) -> %s (%ld bytes, int8 weights)\n",
              in_path.c_str(), size_of(in_path), out_path.c_str(),
              size_of(out_path));
  return 0;
}

int cmd_render(const Args& args) {
  const WaferMap map = read_pgm(args.get("wafer"));
  std::printf("%s", ascii_render(map).c_str());
  std::printf("%d dies, %d failing (%.1f%%)\n", map.total_dies(),
              map.fail_count(), 100.0 * map.fail_fraction());
  return 0;
}

int cmd_trace_merge(const Args& args) {
  const std::string out_path = args.get("out");
  const std::vector<std::string>& inputs = args.positional();
  WM_CHECK(!inputs.empty(), "trace-merge: at least one input trace needed");
  obs::merge_trace_files(inputs, out_path);
  std::printf("merged %zu trace file%s -> %s "
              "(open in https://ui.perfetto.dev)\n",
              inputs.size(), inputs.size() == 1 ? "" : "s", out_path.c_str());
  return 0;
}

int cmd_collect(const Args& args) {
  obs::CollectorOptions opts;
  opts.exporter_port = args.get_int("port", 0, 0, 65535);
  opts.interval_ms =
      args.get_int("interval-ms", opts.interval_ms, 1, 10'000'000);
  opts.targets = args.positional();
  const int seconds = args.get_int("seconds", 0, 0, 10'000'000);
  WM_CHECK(!opts.targets.empty(),
           "collect: at least one host:port target needed");
  obs::Collector collector(opts);
  std::printf("collecting %zu target%s every %d ms; "
              "http://127.0.0.1:%d/{fleet,dashboard,metrics}\n",
              opts.targets.size(), opts.targets.size() == 1 ? "" : "s",
              opts.interval_ms, collector.exporter_port());

  g_serve_stop.store(false);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(seconds > 0 ? seconds : 1);
  while (!g_serve_stop.load()) {
    if (seconds > 0 && std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  collector.stop();
  std::printf("%s", collector.dashboard_text().c_str());
  const std::vector<obs::SloStatus> slos = collector.slo_status();
  return std::any_of(slos.begin(), slos.end(),
                     [](const obs::SloStatus& s) { return s.firing; })
             ? 3
             : 0;
}

/// Fetches /metrics from one exporter and returns the parsed body; throws
/// on a non-200 status or malformed exposition.
obs::PromDump scrape_target_once(const std::string& host, int port) {
  const std::string response = obs::http_get(host, port, "/metrics");
  const std::size_t space = response.find(' ');
  WM_CHECK(space != std::string::npos &&
               response.compare(space, 5, " 200 ") == 0,
           "scrape: ", host, ":", port, " answered non-200");
  const std::size_t body_at = response.find("\r\n\r\n");
  WM_CHECK(body_at != std::string::npos, "scrape: malformed HTTP response");
  return obs::parse_prometheus_text(response.substr(body_at + 4));
}

int cmd_scrape(const Args& args) {
  WM_CHECK(args.positional().size() == 1,
           "scrape: exactly one host:port target");
  const std::string& target = args.positional()[0];
  const int delta_ms = args.get_int("delta-ms", 1000, 1, 10'000'000);
  const auto [host, port] = obs::parse_scrape_target(target);

  const obs::PromDump first = scrape_target_once(host, port);
  std::this_thread::sleep_for(std::chrono::milliseconds(delta_ms));
  const obs::PromDump second = scrape_target_once(host, port);
  const double dt_s = delta_ms / 1000.0;

  std::printf("scraped %s:%d twice, %d ms apart\n\n", host.c_str(), port,
              delta_ms);
  if (!second.counters.empty()) {
    std::printf("%-44s %14s %12s\n", "counters", "total", "rate/s");
    for (const auto& [name, sample] : second.counters) {
      const auto it = first.counters.find(name);
      // A counter below its first reading restarted in between; the delta
      // since the reset is the honest rate numerator (collector reset rule).
      const std::uint64_t base =
          it != first.counters.end() && it->second.value <= sample.value
              ? it->second.value
              : 0;
      std::printf("%-44s %14llu %12.1f\n", name.c_str(),
                  static_cast<unsigned long long>(sample.value),
                  static_cast<double>(sample.value - base) / dt_s);
    }
  }
  if (!second.gauges.empty()) {
    std::printf("\n%-44s %14s\n", "gauges", "value");
    for (const auto& [name, sample] : second.gauges) {
      std::printf("%-44s %14g\n", name.c_str(), sample.value);
    }
  }
  if (!second.infos.empty()) {
    std::printf("\ninfo\n");
    for (const auto& [name, sample] : second.infos) {
      std::printf("  %s{", name.c_str());
      for (std::size_t i = 0; i < sample.labels.size(); ++i) {
        std::printf("%s%s=\"%s\"", i ? "," : "", sample.labels[i].first.c_str(),
                    sample.labels[i].second.c_str());
      }
      std::printf("}\n");
    }
  }
  if (!second.histograms.empty()) {
    std::printf("\n%-44s %10s %9s %8s %8s %8s %8s\n", "histograms", "count",
                "rate/s", "mean", "p50", "p95", "p99");
    for (const auto& [name, hist] : second.histograms) {
      const obs::HistogramSnapshot s = hist.to_snapshot();
      const auto it = first.histograms.find(name);
      const std::uint64_t base =
          it != first.histograms.end() && it->second.count <= hist.count
              ? it->second.count
              : 0;
      std::printf("%-44s %10llu %9.1f %8.1f %8lld %8lld %8lld\n", name.c_str(),
                  static_cast<unsigned long long>(s.count),
                  static_cast<double>(hist.count - base) / dt_s, s.mean(),
                  static_cast<long long>(s.quantile(0.5)),
                  static_cast<long long>(s.quantile(0.95)),
                  static_cast<long long>(s.quantile(0.99)));
    }
  }
  return 0;
}

void usage() {
  std::printf(
      "usage: wm_tool <generate|train|evaluate|classify|quantize|render"
      "|serve|trace-merge|collect|scrape> [--flags]\n"
      "global flags: --metrics FILE  --trace FILE  --run-log FILE"
      "  --http-port P\n"
      "see the header of tools/wm_tool.cpp for per-command flags\n");
}

/// Writes the global registry's Prometheus dump to `path` ("-" = stdout).
void dump_metrics(const std::string& path) {
  const std::string text = obs::Registry::global().prometheus_text();
  if (path == "-") {
    std::printf("%s", text.c_str());
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  WM_CHECK(f != nullptr, "cannot open metrics file ", path);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("metrics written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    // Only these commands take positional arguments (files or targets).
    WM_CHECK(cmd == "trace-merge" || cmd == "collect" || cmd == "scrape" ||
                 args.positional().empty(),
             "expected --flag, got '", args.positional().front(), "'");
    const std::string trace_path = args.get("trace", "");
    if (!trace_path.empty()) obs::set_trace_enabled(true);
    const std::string run_log_path = args.get("run-log", "");
    if (!run_log_path.empty()) obs::set_run_log_path(run_log_path);

    // Live scrape surface for the command's duration; no --http-port = no
    // server.
    std::unique_ptr<obs::HttpExporter> exporter;
    if (args.has("http-port")) {
      exporter = std::make_unique<obs::HttpExporter>(obs::HttpExporterOptions{
          .port = args.get_int("http-port", 0, 0, 65535)});
      std::printf("serving metrics on http://127.0.0.1:%d/metrics\n",
                  exporter->port());
    }

    int rc = 2;
    if (cmd == "generate") rc = cmd_generate(args);
    else if (cmd == "train") rc = cmd_train(args);
    else if (cmd == "evaluate") rc = cmd_evaluate(args);
    else if (cmd == "classify") rc = cmd_classify(args);
    else if (cmd == "quantize") rc = cmd_quantize(args);
    else if (cmd == "render") rc = cmd_render(args);
    else if (cmd == "serve") rc = cmd_serve(args);
    else if (cmd == "trace-merge") rc = cmd_trace_merge(args);
    else if (cmd == "collect") rc = cmd_collect(args);
    else if (cmd == "scrape") rc = cmd_scrape(args);
    else {
      usage();
      return 2;
    }

    if (!trace_path.empty()) {
      obs::trace_write_json(trace_path);
      std::printf("trace written to %s (open in https://ui.perfetto.dev)\n",
                  trace_path.c_str());
    }
    const std::string metrics_path = args.get("metrics", "");
    if (!metrics_path.empty()) dump_metrics(metrics_path);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
