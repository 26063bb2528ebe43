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
// Flags (a numeric value outside its range is an error):
//   --connections N   client connections, 1..256          (default 4)
//   --window W        in-flight calls per connection, 1..1024 (default 8)
//   --requests N      total requests per run, 1..10^7     (default 2000)
//   --map S           wafer edge length, 8..1024          (default 32)
//   --workers K       in-process server worker threads, 1..256 (default 2)
//   --host H --port P drive an external wm_net server instead of the
//                     in-process one (P in 0..65535; 0 = in-process)
//   --trace-sample N  trace every Nth call per connection, 1..10^6
//                     (default 16)
//   --trace-out FILE  write this process's Perfetto trace JSON
//   --slow-log FILE   JSONL exemplar log of the top-10 slowest calls
//                     (trace id, per-stage breakdown, selective decision)
//   --out-dir DIR     prefix for every relative file artifact above
//                     (--trace-out, --slow-log); absolute paths win
//   --json            machine-readable report on stdout
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "args.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/run_log.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "selective/load_classifier.hpp"
#include "selective/selective_net.hpp"
#include "serve/inference_engine.hpp"
#include "wafermap/synth/generator.hpp"

using namespace wm;

namespace {

using Clock = std::chrono::steady_clock;

/// One finished call.
struct CallRecord {
  std::int64_t e2e_us = 0;
  std::uint64_t trace_id = 0;  // 0 = unsampled
  net::Status status = net::Status::kOk;
  net::StageTiming stage{};
  SelectivePrediction prediction{};
};

struct RunResult {
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

/// Closed loop: one calling thread per client, each issuing total/threads
/// calls with `window` of them in flight, waiting on the oldest when the
/// window is full. Every trace_sample'th call of a thread (0 = none) starts
/// a sampled trace.
RunResult closed_loop(const std::vector<std::unique_ptr<net::Client>>& clients,
                      const std::vector<WaferMap>& stream, std::size_t total,
                      int window, int trace_sample) {
  struct Inflight {
    Clock::time_point sent;
    std::uint64_t trace_id = 0;
    std::future<net::CallResult> future;
  };
  const std::size_t threads = clients.size();
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
        call.future = clients[t]->predict_async(map, /*deadline_ms=*/0, ctx);
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
  r.connections = static_cast<int>(threads);
  r.window = window;
  r.wall_s = watch.seconds();
  for (auto& v : records) r.calls.insert(r.calls.end(), v.begin(), v.end());
  finish(r);
  return r;
}

void print_row(const RunResult& r) {
  std::printf("remote c=%-2d w=%-2d %6zu req  %6.2f s  %8.1f req/s  "
              "ok %zu shed %zu timeout %zu err %zu  p50/p95/p99 "
              "%lld/%lld/%lld us\n",
              r.connections, r.window, r.calls.size(),
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

void print_json(const RunResult& r, int map_size) {
  std::printf("{\n  \"map_size\": %d,\n", map_size);
  std::printf(
      "  \"runs\": [\n"
      "    {\"mode\": \"remote\", \"connections\": %d, \"window\": %d, "
      "\"requests\": %zu, \"ok\": %zu, \"shed\": %zu, \"timeout\": %zu, "
      "\"errors\": %zu, \"wall_s\": %.4f, \"throughput_rps\": %.2f, "
      "\"p50_us\": %lld, \"p95_us\": %lld, \"p99_us\": %lld, "
      "\"queue_us_mean\": %.1f, \"batch_us_mean\": %.1f, "
      "\"compute_us_mean\": %.1f, \"server_total_us_mean\": %.1f}\n"
      "  ]\n}\n",
      r.connections, r.window, r.calls.size(), r.ok, r.shed, r.timeout,
      r.errors, r.wall_s, r.throughput_rps(), static_cast<long long>(r.p50_us),
      static_cast<long long>(r.p95_us), static_cast<long long>(r.p99_us),
      r.queue_us, r.batch_us, r.compute_us, r.server_us);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv, 1);
    const bool json = args.has("json");
    const int connections = args.get_int("connections", 4, 1, 256);
    const int window = args.get_int("window", 8, 1, 1024);
    const int map_size = args.get_int("map", 32, 8, 1024);
    const int workers = args.get_int("workers", 2, 1, 256);
    const std::size_t total = static_cast<std::size_t>(std::max(
        connections * window, args.get_int("requests", 2000, 1, 10'000'000)));
    const int ext_port = args.get_int("port", 0, 0, 65535);
    const std::string host =
        ext_port == 0 ? "127.0.0.1" : args.get("host", "127.0.0.1");
    const int trace_sample = args.get_int("trace-sample", 16, 1, 1'000'000);
    // --out-dir prefixes every file artifact (--trace-out, --slow-log) so a
    // CI job can point the whole run at a scratch directory with one flag;
    // absolute paths pass through untouched.
    const std::string out_dir = args.get("out-dir", "");
    const auto in_out_dir = [&](std::string path) {
      if (path.empty() || out_dir.empty() || path.front() == '/') return path;
      return out_dir + "/" + path;
    };
    const std::string trace_out = in_out_dir(args.get("trace-out", ""));
    const std::string slow_log = in_out_dir(args.get("slow-log", ""));
    const bool traced = !trace_out.empty() || !slow_log.empty();

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
    RunResult result;
    {
      std::vector<std::unique_ptr<net::Client>> clients;
      for (int c = 0; c < connections; ++c) {
        clients.push_back(std::make_unique<net::Client>(
            net::ClientOptions{.host = host, .port = port}));
      }
      result = closed_loop(clients, stream, total, window,
                           traced ? trace_sample : 0);
    }

    // Stopping the in-process server joins its workers, so every
    // server.request span (emitted after the response is written) is in
    // the buffer before the trace goes out.
    if (server != nullptr) server->stop();
    if (engine != nullptr) engine->shutdown();
    server.reset();
    engine.reset();
    if (!trace_out.empty()) obs::trace_write_json(trace_out);
    if (!slow_log.empty()) write_slow_log(slow_log, result.calls);
    obs::set_trace_enabled(false);

    if (json) {
      print_json(result, map_size);
    } else {
      print_row(result);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadgen error: %s\n", e.what());
    return 1;
  }
}
