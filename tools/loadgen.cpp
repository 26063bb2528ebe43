// loadgen — load generator for the wm_net serving stack.
//
// One closed loop over real TCP: --connections net::Clients, each keeping
// a pipelined window of --window async calls in flight. By default the
// server is a small selective CNN behind a serve::InferenceEngine and a
// net::Server that this process stands up on loopback; --host/--port drive
// an external server (e.g. `wm_tool serve`) down the same code path. With
// --trace-out or --slow-log, tracing is on and every --trace-sample'th call
// of each connection carries a fresh sampled trace context, so this
// process's client spans merge with the server's own trace file
// (`wm_tool trace-merge`). Every response carries the server's StageTiming
// (WMWP v2), so the per-stage means (queue / batch / compute / server
// total) cover all OK responses, sampled or not.
//
// Fleet mode (--fleet M, in-process stack only) then stands up M full
// serving replicas (each: own registry, hot-swap wrapper, micro-batching
// engine, TCP server, /healthz + /metrics exporter) and drives them
// through net::Router while an obs::Collector scrapes every replica each
// --collector-interval-ms and runs the SLO burn-rate rules over the merged
// view. Chaos flags exercise failover mid-run: --kill-replica takes the
// last replica down at 1/3 progress — wire port, exporter and all, so the
// collector's `up` flips — and restarts it at 2/3 (the router ejects,
// fails over, and re-admits it via /healthz); --swap-mid-run hot-swaps
// every replica from fp32 to the int8 quantized model at 1/2 progress with
// canary verification. Per-replica latency percentiles and eject/rejoin
// counts land in the JSON report as "fleet_replicas".
//
// Flags:
//   --connections N   client connections               (default 4)
//   --window W        in-flight calls per connection   (default 8)
//   --requests N      total requests per run           (default 2000)
//   --map S           wafer edge length                (default 32)
//   --workers K       in-process server worker threads (default 2)
//   --host H --port P drive an external wm_net server instead of the
//                     in-process one
//   --trace-sample N  trace every Nth call per connection (default 16)
//   --trace-out FILE  write this process's Perfetto trace JSON
//   --slow-log FILE   JSONL exemplar log of the top-10 slowest calls
//                     (trace id, per-stage breakdown, selective decision)
//   --out-dir DIR     prefix for every relative file artifact above
//                     (--trace-out, --slow-log); absolute paths win
//   --fleet M         also run the M-replica fleet (0 = skip)
//   --kill-replica    kill + restart a replica mid-run (fleet mode)
//   --swap-mid-run    hot-swap fp32 -> int8 mid-run    (fleet mode)
//   --collector-port P        the collector's own exporter port (/fleet,
//                             /dashboard, /metrics; default 0 = ephemeral)
//   --collector-interval-ms M scrape + SLO tick interval (default 100)
//   --slo-p99-us U    override the latency SLO threshold (default 0 keeps
//                     SloEngine::default_rules(); a tiny value like 1
//                     provokes a burn-rate alarm under any traffic — CI
//                     uses it to assert the slo_burn/slo_clear run-log
//                     events fire end-to-end)
//   --json            machine-readable report on stdout
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "obs/collector.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/run_log.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "selective/load_classifier.hpp"
#include "selective/quant_net.hpp"
#include "selective/selective_net.hpp"
#include "serve/hot_swap.hpp"
#include "serve/inference_engine.hpp"
#include "wafermap/synth/generator.hpp"

using namespace wm;

namespace {

using Clock = std::chrono::steady_clock;

// Fleet replicas flush a micro-batch after 12 ms and get 2 calls in flight
// each, so a replica is bound by its batching window rather than the CPU;
// the kill/revive progress points above land at the same times run to run.
constexpr int kFleetDelayUs = 12000;
constexpr int kFleetWindow = 2;

/// One finished call.
struct CallRecord {
  std::int64_t e2e_us = 0;
  std::uint64_t trace_id = 0;  // 0 = unsampled
  net::Status status = net::Status::kOk;
  net::StageTiming stage{};
  SelectivePrediction prediction{};
};

struct RunResult {
  std::string mode;  // "remote" | "fleet"
  int connections = 0;
  int window = 0;
  double wall_s = 0.0;
  std::vector<CallRecord> calls;
  // Derived by finish().
  std::size_t ok = 0;
  std::size_t shed = 0;     // OVERLOADED responses
  std::size_t timeout = 0;  // TIMEOUT responses
  std::size_t errors = 0;   // everything else non-OK
  std::int64_t p50_us = 0;
  std::int64_t p95_us = 0;
  std::int64_t p99_us = 0;
  // Means of the server's StageTiming over OK responses.
  double queue_us = 0.0;
  double batch_us = 0.0;
  double compute_us = 0.0;
  double server_us = 0.0;

  double throughput_rps() const {
    return wall_s > 0.0 ? static_cast<double>(calls.size()) / wall_s : 0.0;
  }
};

std::vector<WaferMap> make_stream(int map_size, int n) {
  Rng rng(2026);
  synth::DatasetSpec spec;
  spec.map_size = map_size;
  spec.class_counts.fill((n + kNumDefectTypes - 1) / kNumDefectTypes);
  Dataset data = synth::generate_dataset(spec, rng);
  data.shuffle(rng);
  std::vector<WaferMap> maps;
  for (std::size_t i = 0; i < data.size() && maps.size() < std::size_t(n); ++i)
    maps.push_back(data[i].map);
  return maps;
}

std::int64_t percentile(const std::vector<std::int64_t>& sorted_us, double q) {
  if (sorted_us.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(idx, sorted_us.size() - 1)];
}

void finish(RunResult& r) {
  std::vector<std::int64_t> lat;
  for (const CallRecord& c : r.calls) {
    lat.push_back(c.e2e_us);
    switch (c.status) {
      case net::Status::kOk:
        ++r.ok;
        r.queue_us += c.stage.queue_us;
        r.batch_us += c.stage.batch_us;
        r.compute_us += c.stage.compute_us;
        r.server_us += c.stage.total_us;
        break;
      case net::Status::kOverloaded: ++r.shed; break;
      case net::Status::kTimeout: ++r.timeout; break;
      default: ++r.errors; break;
    }
  }
  if (r.ok > 0) {
    const auto n = static_cast<double>(r.ok);
    r.queue_us /= n;
    r.batch_us /= n;
    r.compute_us /= n;
    r.server_us /= n;
  }
  std::sort(lat.begin(), lat.end());
  r.p50_us = percentile(lat, 0.50);
  r.p95_us = percentile(lat, 0.95);
  r.p99_us = percentile(lat, 0.99);
}

/// Closed loop: one calling thread per entry of `callees` (a net::Client
/// each, or one shared net::Router), each issuing total/threads calls with
/// `window` of them in flight, waiting on the oldest when the window is
/// full. Every trace_sample'th call of a thread (0 = none) starts a sampled
/// trace. `done` counts finished calls as they land.
template <class Callee>
RunResult closed_loop(const std::string& mode,
                      const std::vector<Callee*>& callees,
                      const std::vector<WaferMap>& stream, std::size_t total,
                      int window, int trace_sample,
                      std::atomic<std::size_t>& done) {
  struct Inflight {
    Clock::time_point sent;
    std::uint64_t trace_id = 0;
    std::future<net::CallResult> future;
  };
  const std::size_t threads = callees.size();
  const std::size_t per_thread = total / threads;
  std::vector<std::vector<CallRecord>> records(threads);

  Stopwatch watch;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::deque<Inflight> inflight;
      auto harvest_front = [&] {
        Inflight& call = inflight.front();
        const net::CallResult res = call.future.get();
        const std::int64_t e2e_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - call.sent)
                .count();
        records[t].push_back(CallRecord{e2e_us, call.trace_id, res.status,
                                        res.server, res.prediction});
        inflight.pop_front();
        done.fetch_add(1, std::memory_order_relaxed);
      };
      for (std::size_t i = 0; i < per_thread; ++i) {
        if (inflight.size() >= static_cast<std::size_t>(window)) {
          harvest_front();
        }
        obs::TraceContext ctx;
        if (trace_sample > 0 &&
            i % static_cast<std::size_t>(trace_sample) == 0) {
          ctx = obs::start_trace();
        }
        const WaferMap& map = stream[(t * per_thread + i) % stream.size()];
        Inflight call;
        call.sent = Clock::now();
        call.trace_id = ctx.trace_id;
        call.future = callees[t]->predict_async(map, /*deadline_ms=*/0, ctx);
        inflight.push_back(std::move(call));
        while (!inflight.empty() &&
               inflight.front().future.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready) {
          harvest_front();
        }
      }
      while (!inflight.empty()) harvest_front();
    });
  }
  for (auto& th : pool) th.join();

  RunResult r;
  r.mode = mode;
  r.connections = static_cast<int>(threads);
  r.window = window;
  r.wall_s = watch.seconds();
  for (auto& v : records) r.calls.insert(r.calls.end(), v.begin(), v.end());
  finish(r);
  return r;
}

/// One in-process serving replica for fleet mode: its own registry, a
/// hot-swap wrapper, a micro-batching engine, a TCP server, and a /healthz
/// + /metrics exporter. down()/up() model a whole-process crash + restart
/// on the same ports: the exporter dies with the replica (the router's
/// prober and the fleet collector both see a vanished endpoint, eject the
/// replica, and re-admit it after up() rebinds). The registry survives the
/// restart — like a warm-restarted process the counters resume, and a
/// genuine reset is the collector's counter-reset rule's job to absorb.
class FleetReplica {
 public:
  explicit FleetReplica(std::shared_ptr<const Classifier> initial)
      : swap_(std::move(initial), {.registry = &registry_}) {
    up();
    wire_port_ = server_->port();
    health_port_ = exporter_->port();
  }

  ~FleetReplica() { down(); }

  FleetReplica(const FleetReplica&) = delete;
  FleetReplica& operator=(const FleetReplica&) = delete;

  /// (Re)starts the engine + server + exporter; rebinds the original wire
  /// and health ports after the first call. The SwappableClassifier
  /// survives restarts, so a model promoted while the replica was down
  /// serves as soon as it is back.
  void up() {
    if (serving_.load()) return;
    engine_ = std::make_unique<serve::InferenceEngine>(
        swap_, serve::EngineOptions{.max_batch = 32,
                                    .max_delay_us = kFleetDelayUs,
                                    .queue_capacity = 256,
                                    .registry = &registry_});
    server_ = std::make_unique<net::Server>(
        *engine_, net::ServerOptions{.port = wire_port_, .workers = 1});
    exporter_ = std::make_unique<obs::HttpExporter>(obs::HttpExporterOptions{
        .port = health_port_,
        .registry = &registry_,
        .healthy = [this] { return serving_.load(); }});
    serving_.store(true);
  }

  /// Kills the replica: connections drop, in-flight calls fail over at the
  /// router, the health/metrics exporter vanishes (the collector marks the
  /// target down).
  void down() {
    serving_.store(false);
    if (server_ != nullptr) {
      server_->stop();
      server_.reset();
    }
    if (engine_ != nullptr) {
      engine_->shutdown();
      engine_.reset();
    }
    exporter_.reset();
  }

  void swap_model(std::shared_ptr<const Classifier> candidate,
                  std::span<const WaferMap> canaries,
                  const std::string& label) {
    (void)swap_.swap_to(std::move(candidate), canaries, label);
  }

  int wire_port() const { return wire_port_; }
  int health_port() const { return health_port_; }
  std::uint64_t model_swaps() const { return swap_.swaps(); }

 private:
  obs::Registry registry_;
  serve::SwappableClassifier swap_;
  int wire_port_ = 0;    // 0 only before the first up()
  int health_port_ = 0;  // likewise
  std::atomic<bool> serving_{false};
  std::unique_ptr<serve::InferenceEngine> engine_;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<obs::HttpExporter> exporter_;
};

/// Fleet block of the report.
struct FleetReport {
  int fleet = 0;
  std::uint64_t collector_rounds = 0;
  int collector_targets_up = 0;  // at the end of the run
  /// Sum of per-target up<->down edges (first successful scrape counts as
  /// one): M on a quiet fleet, M + 2 after one kill + revive.
  std::uint64_t collector_up_transitions = 0;
  std::uint64_t slo_fires = 0;
  std::uint64_t slo_clears = 0;
  bool kill_replica = false;
  bool swap_mid_run = false;
  std::uint64_t retries = 0;
  std::uint64_t no_replica = 0;
  std::uint64_t model_swaps = 0;  // sum over replicas
  std::vector<net::Router::ReplicaStats> replicas;
};

/// Runs the fleet closed loop with the collector live, firing the chaos
/// events off completed-call progress.
FleetReport run_fleet(selective::SelectiveNet& net,
                      const std::vector<WaferMap>& stream, int fleet,
                      std::size_t total, bool kill_replica, bool swap_mid_run,
                      int collector_port, int collector_interval_ms,
                      int slo_p99_us, std::vector<RunResult>& rows) {
  FleetReport report;
  report.fleet = fleet;
  report.kill_replica = kill_replica && fleet > 1;
  report.swap_mid_run = swap_mid_run;

  // Every replica serves the same fp32 net (and, for --swap-mid-run, is
  // promoted to its int8 quantization) behind the unified classifier
  // factory.
  std::vector<std::unique_ptr<FleetReplica>> replicas;
  net::RouterOptions ropts;
  obs::CollectorOptions copts;
  for (int i = 0; i < fleet; ++i) {
    replicas.push_back(std::make_unique<FleetReplica>(
        std::shared_ptr<const Classifier>(load_classifier(net))));
    ropts.replicas.push_back({.port = replicas.back()->wire_port(),
                              .health_port = replicas.back()->health_port()});
    copts.targets.push_back(
        "127.0.0.1:" + std::to_string(replicas.back()->health_port()));
  }
  std::unique_ptr<selective::QuantizedSelectiveNet> qnet;
  std::shared_ptr<const Classifier> candidate;
  const std::vector<WaferMap> canaries(stream.begin(), stream.begin() + 4);
  if (swap_mid_run) {
    qnet = std::make_unique<selective::QuantizedSelectiveNet>(
        selective::quantize_selective_net(net));
    candidate = std::shared_ptr<const Classifier>(load_classifier(*qnet));
  }

  std::vector<obs::SloRule> rules = obs::SloEngine::default_rules();
  if (slo_p99_us > 0) {
    // Provocation mode: an absurdly low latency objective that any traffic
    // violates, tuned to fire (and later clear) within a short run.
    for (obs::SloRule& rule : rules) {
      if (rule.kind == obs::SloKind::kLatencyP99) {
        rule.latency_threshold_us = slo_p99_us;
        rule.fast_window = 2;
        rule.slow_window = 4;
        rule.fire_count = 2;
        rule.clear_count = 2;
      }
    }
  }
  copts.interval_ms = collector_interval_ms;
  copts.scrape_timeout_ms = 1000;
  copts.slo_rules = std::move(rules);
  copts.exporter_port = collector_port;
  obs::Collector collector(copts);
  net::Router router(ropts);

  const std::size_t calls = total / static_cast<std::size_t>(fleet) *
                            static_cast<std::size_t>(fleet);
  std::atomic<std::size_t> done{0};
  std::thread chaos;
  if (report.kill_replica || swap_mid_run) {
    chaos = std::thread([&] {
      bool killed = false, swapped = false, restarted = false;
      while (done.load() < calls) {
        const std::size_t d = done.load();
        if (report.kill_replica && !killed && d >= calls / 3) {
          replicas.back()->down();
          killed = true;
        }
        if (swap_mid_run && !swapped && d >= calls / 2) {
          for (auto& rep : replicas) {
            try {
              rep->swap_model(candidate, canaries, "int8");
            } catch (const std::exception& e) {
              std::fprintf(stderr, "loadgen: mid-run swap failed: %s\n",
                           e.what());
            }
          }
          swapped = true;
        }
        if (killed && !restarted && d >= 2 * calls / 3) {
          replicas.back()->up();
          restarted = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // A fast run can drain before the restart threshold fires: never end
      // with a dead replica.
      if (killed && !restarted) replicas.back()->up();
    });
  }
  rows.push_back(closed_loop("fleet",
                             std::vector<net::Router*>(
                                 static_cast<std::size_t>(fleet), &router),
                             stream, total, kFleetWindow, /*trace_sample=*/0,
                             done));
  if (chaos.joinable()) chaos.join();

  // Traffic is done: let the burn windows drain so a provoked alarm also
  // demonstrates the hysteretic clear before we shut down.
  for (int i = 0; i < 40; ++i) {
    bool firing = false;
    for (const obs::SloStatus& s : collector.slo_status()) {
      firing = firing || s.firing || s.fires > s.clears;
    }
    if (!firing) break;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(collector_interval_ms));
  }
  for (const obs::SloStatus& s : collector.slo_status()) {
    report.slo_fires += s.fires;
    report.slo_clears += s.clears;
  }
  report.collector_rounds = collector.rounds();
  const obs::FleetAggregate final_agg = collector.aggregate();
  report.collector_targets_up = final_agg.targets_up;
  for (const auto& [target, health] : final_agg.health) {
    report.collector_up_transitions += health.up_transitions;
  }
  collector.stop();

  report.retries = router.retries();
  report.no_replica = router.no_replica();
  report.replicas = router.stats();
  for (auto& rep : replicas) report.model_swaps += rep->model_swaps();
  router.close();
  return report;
}

void print_row(const RunResult& r) {
  std::printf("%-6s c=%-2d w=%-2d %6zu req  %6.2f s  %8.1f req/s  "
              "ok %zu shed %zu timeout %zu err %zu  p50/p95/p99 "
              "%lld/%lld/%lld us\n",
              r.mode.c_str(), r.connections, r.window, r.calls.size(),
              r.wall_s, r.throughput_rps(), r.ok, r.shed, r.timeout, r.errors,
              static_cast<long long>(r.p50_us),
              static_cast<long long>(r.p95_us),
              static_cast<long long>(r.p99_us));
  if (r.ok > 0) {
    std::printf("       server stages over %zu OK responses (us, mean): "
                "queue %.1f | batch %.1f | compute %.1f | total %.1f\n",
                r.ok, r.queue_us, r.batch_us, r.compute_us, r.server_us);
  }
}

/// Writes the top-10 slowest calls as "slow_request" JSONL events: the
/// per-stage breakdown plus the selective decision, keyed by trace id (hex;
/// "0x0" for unsampled calls) so an operator can jump from an exemplar to
/// the merged Perfetto trace.
void write_slow_log(const std::string& path, std::vector<CallRecord> records) {
  constexpr std::size_t kTopK = 10;
  std::sort(records.begin(), records.end(),
            [](const CallRecord& a, const CallRecord& b) {
              return a.e2e_us > b.e2e_us;
            });
  if (records.size() > kTopK) records.resize(kTopK);
  obs::RunLog log(path);
  for (const CallRecord& rec : records) {
    char id_hex[24];
    std::snprintf(id_hex, sizeof(id_hex), "0x%llx",
                  static_cast<unsigned long long>(rec.trace_id));
    log.write("slow_request",
              {{"trace_id", id_hex},
               {"status", net::to_string(rec.status)},
               {"e2e_us", rec.e2e_us},
               {"queue_us", static_cast<std::uint64_t>(rec.stage.queue_us)},
               {"batch_us", static_cast<std::uint64_t>(rec.stage.batch_us)},
               {"compute_us",
                static_cast<std::uint64_t>(rec.stage.compute_us)},
               {"server_total_us",
                static_cast<std::uint64_t>(rec.stage.total_us)},
               {"g", rec.prediction.g},
               {"selected", rec.prediction.selected},
               {"abstained", !rec.prediction.selected},
               {"label", rec.prediction.label}});
  }
}

void print_json(const std::vector<RunResult>& rows, int map_size,
                const FleetReport* fleet) {
  std::printf("{\n  \"map_size\": %d,\n", map_size);
  if (fleet != nullptr) {
    std::printf("  \"fleet\": %d,\n", fleet->fleet);
    // The fleet run is the last row (CI reads this key).
    std::printf("  \"fleet_collected_rps\": %.2f,\n",
                rows.back().throughput_rps());
    std::printf("  \"collector_rounds\": %llu,\n",
                static_cast<unsigned long long>(fleet->collector_rounds));
    std::printf("  \"collector_targets_up\": %d,\n",
                fleet->collector_targets_up);
    std::printf("  \"collector_up_transitions\": %llu,\n",
                static_cast<unsigned long long>(
                    fleet->collector_up_transitions));
    std::printf("  \"collector_slo_fires\": %llu,\n",
                static_cast<unsigned long long>(fleet->slo_fires));
    std::printf("  \"collector_slo_clears\": %llu,\n",
                static_cast<unsigned long long>(fleet->slo_clears));
    std::printf("  \"fleet_kill_replica\": %s,\n",
                fleet->kill_replica ? "true" : "false");
    std::printf("  \"fleet_swap_mid_run\": %s,\n",
                fleet->swap_mid_run ? "true" : "false");
    std::printf("  \"fleet_retries\": %llu,\n",
                static_cast<unsigned long long>(fleet->retries));
    std::printf("  \"fleet_no_replica\": %llu,\n",
                static_cast<unsigned long long>(fleet->no_replica));
    std::printf("  \"fleet_model_swaps\": %llu,\n",
                static_cast<unsigned long long>(fleet->model_swaps));
    std::printf("  \"fleet_replicas\": [\n");
    for (std::size_t i = 0; i < fleet->replicas.size(); ++i) {
      const auto& rep = fleet->replicas[i];
      std::printf(
          "    {\"index\": %d, \"port\": %d, \"healthy\": %s, "
          "\"dispatched\": %llu, \"ok\": %llu, \"transport_errors\": %llu, "
          "\"ejects\": %llu, \"rejoins\": %llu, "
          "\"p50_us\": %lld, \"p95_us\": %lld, \"p99_us\": %lld}%s\n",
          rep.index, rep.port, rep.healthy ? "true" : "false",
          static_cast<unsigned long long>(rep.dispatched),
          static_cast<unsigned long long>(rep.ok),
          static_cast<unsigned long long>(rep.transport_errors),
          static_cast<unsigned long long>(rep.ejects),
          static_cast<unsigned long long>(rep.rejoins),
          static_cast<long long>(rep.latency.quantile(0.50)),
          static_cast<long long>(rep.latency.quantile(0.95)),
          static_cast<long long>(rep.latency.quantile(0.99)),
          i + 1 < fleet->replicas.size() ? "," : "");
    }
    std::printf("  ],\n");
  }
  std::printf("  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = rows[i];
    std::printf(
        "    {\"mode\": \"%s\", \"connections\": %d, \"window\": %d, "
        "\"requests\": %zu, \"ok\": %zu, \"shed\": %zu, \"timeout\": %zu, "
        "\"errors\": %zu, \"wall_s\": %.4f, \"throughput_rps\": %.2f, "
        "\"p50_us\": %lld, \"p95_us\": %lld, \"p99_us\": %lld, "
        "\"queue_us_mean\": %.1f, \"batch_us_mean\": %.1f, "
        "\"compute_us_mean\": %.1f, \"server_total_us_mean\": %.1f}%s\n",
        r.mode.c_str(), r.connections, r.window, r.calls.size(), r.ok, r.shed,
        r.timeout, r.errors, r.wall_s, r.throughput_rps(),
        static_cast<long long>(r.p50_us), static_cast<long long>(r.p95_us),
        static_cast<long long>(r.p99_us), r.queue_us, r.batch_us,
        r.compute_us, r.server_us, i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

int get_flag(int argc, char** argv, const char* name, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

std::string get_flag_s(int argc, char** argv, const char* name,
                       const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = has_flag(argc, argv, "--json");
  const int connections = std::max(1, get_flag(argc, argv, "--connections", 4));
  const int window = std::max(1, get_flag(argc, argv, "--window", 8));
  const int map_size = get_flag(argc, argv, "--map", 32);
  const int workers = std::max(1, get_flag(argc, argv, "--workers", 2));
  const std::size_t total = static_cast<std::size_t>(std::max(
      connections * window, get_flag(argc, argv, "--requests", 2000)));
  const int ext_port = get_flag(argc, argv, "--port", 0);
  const std::string host =
      ext_port == 0 ? "127.0.0.1"
                    : get_flag_s(argc, argv, "--host", "127.0.0.1");
  const int fleet = std::max(0, get_flag(argc, argv, "--fleet", 0));
  const bool kill_replica = has_flag(argc, argv, "--kill-replica");
  const bool swap_mid_run = has_flag(argc, argv, "--swap-mid-run");
  const int collector_port =
      std::max(0, get_flag(argc, argv, "--collector-port", 0));
  const int collector_interval_ms =
      std::max(10, get_flag(argc, argv, "--collector-interval-ms", 100));
  const int slo_p99_us = std::max(0, get_flag(argc, argv, "--slo-p99-us", 0));
  const int trace_sample =
      std::max(1, get_flag(argc, argv, "--trace-sample", 16));
  // --out-dir prefixes every file artifact (--trace-out, --slow-log) so a
  // CI job can point the whole run at a scratch directory with one flag;
  // absolute paths pass through untouched.
  const std::string out_dir = get_flag_s(argc, argv, "--out-dir", "");
  const auto in_out_dir = [&](std::string path) {
    if (path.empty() || out_dir.empty() || path.front() == '/') return path;
    return out_dir + "/" + path;
  };
  const std::string trace_out =
      in_out_dir(get_flag_s(argc, argv, "--trace-out", ""));
  const std::string slow_log =
      in_out_dir(get_flag_s(argc, argv, "--slow-log", ""));
  const bool traced = !trace_out.empty() || !slow_log.empty();

  try {
    const auto stream = make_stream(map_size, 256);

    // The in-process stack (skipped when --port targets an external server).
    std::unique_ptr<selective::SelectiveNet> net_model;
    std::unique_ptr<LoadedClassifier> classifier;
    std::unique_ptr<serve::InferenceEngine> engine;
    std::unique_ptr<net::Server> server;
    int port = ext_port;
    if (ext_port == 0) {
      Rng rng(7);
      net_model = std::make_unique<selective::SelectiveNet>(
          selective::SelectiveNetOptions{.map_size = map_size,
                                         .num_classes = kNumDefectTypes,
                                         .use_batchnorm = true},
          rng);
      classifier = load_classifier(*net_model, {.threshold = 0.5f});
      engine = std::make_unique<serve::InferenceEngine>(
          *classifier,
          serve::EngineOptions{
              .max_batch = std::max(8, connections * window),
              .max_delay_us = 1000,
              .queue_capacity =
                  static_cast<std::size_t>(4 * connections * window)});
      server = std::make_unique<net::Server>(
          *engine, net::ServerOptions{.workers = workers});
      port = server->port();
      classifier->predict_one(stream[0]);  // warm up allocators and the pool
    }

    if (!json) {
      std::printf("loadgen: %dx%d maps, %d connections x window %d, "
                  "%zu requests/run, server %s:%d%s\n\n",
                  map_size, map_size, connections, window, total,
                  host.c_str(), port, ext_port == 0 ? " (in-process)" : "");
    }

    if (traced) {
      obs::set_trace_enabled(true);
      obs::set_trace_process_name("loadgen");
    }
    std::vector<RunResult> rows;
    {
      std::vector<std::unique_ptr<net::Client>> clients;
      std::vector<net::Client*> callees;
      for (int c = 0; c < connections; ++c) {
        clients.push_back(std::make_unique<net::Client>(
            net::ClientOptions{.host = host, .port = port}));
        callees.push_back(clients.back().get());
      }
      std::atomic<std::size_t> done{0};
      rows.push_back(closed_loop("remote", callees, stream, total, window,
                                 traced ? trace_sample : 0, done));
    }
    if (!json) print_row(rows.back());

    // Stopping the in-process server joins its workers, so every
    // server.request span (emitted after the response is written) is in
    // the buffer before the trace goes out.
    if (server != nullptr) server->stop();
    if (engine != nullptr) engine->shutdown();
    server.reset();
    engine.reset();
    if (!trace_out.empty()) obs::trace_write_json(trace_out);
    if (!slow_log.empty()) write_slow_log(slow_log, rows.back().calls);
    obs::set_trace_enabled(false);

    FleetReport freport;
    if (fleet > 0 && ext_port != 0) {
      std::fprintf(stderr,
                   "loadgen: --fleet needs the in-process stack; "
                   "ignoring it with an external --port\n");
    } else if (fleet > 0) {
      freport = run_fleet(*net_model, stream, fleet, total, kill_replica,
                          swap_mid_run, collector_port, collector_interval_ms,
                          slo_p99_us, rows);
      if (!json) {
        print_row(rows.back());
        std::printf("fleet(%d): retries %llu, no_replica %llu, swaps %llu, "
                    "%llu scrape rounds, %d/%d up at end, slo fires %llu "
                    "clears %llu\n",
                    freport.fleet,
                    static_cast<unsigned long long>(freport.retries),
                    static_cast<unsigned long long>(freport.no_replica),
                    static_cast<unsigned long long>(freport.model_swaps),
                    static_cast<unsigned long long>(freport.collector_rounds),
                    freport.collector_targets_up, freport.fleet,
                    static_cast<unsigned long long>(freport.slo_fires),
                    static_cast<unsigned long long>(freport.slo_clears));
      }
    }

    if (json) {
      print_json(rows, map_size, freport.fleet > 0 ? &freport : nullptr);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadgen error: %s\n", e.what());
    return 1;
  }
}
