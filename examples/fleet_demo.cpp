// Fleet demo: the horizontal serving tier end-to-end in one process.
//
// Trains a small selective CNN, stands up THREE full serving replicas
// (each: hot-swap wrapper + micro-batching engine + wm_net server +
// /healthz exporter) and drives them through net::Router. Four scenarios,
// each verified — CI runs this binary as the fleet smoke test and the exit
// code is non-zero unless every one behaves:
//
//   1  fidelity   traffic spread over the fleet bit-matches the in-process
//                 classifier, every replica takes a share;
//   2  failover   a replica is killed while a burst is in flight: the
//                 router ejects it and transparently re-dispatches — zero
//                 requests lost, the eject shows up in the stats;
//   3  rejoin     the killed replica restarts; the router's prober sees
//                 /healthz answer 200 again and re-admits it;
//   4  hot swap   every replica promotes the int8 quantized model while a
//                 burst is mid-flight. Zero requests lost, zero
//                 mixed-version responses (every response bit-matches
//                 either the fp32 or the int8 canary bits, never a blend),
//                 the wm_serve_model_version gauge flips to 2 on every
//                 replica, and post-swap router responses bit-match the
//                 canary predictions swap_to returned (blue/green
//                 verification end-to-end through the wire);
//   5  tracing    a sampled request through the router leaves one span per
//                 role — router.request, client.call, server.request,
//                 engine.compute — all tagged with the same trace id and
//                 linked by one 's' -> 't'... -> 'f' flow chain in the
//                 exported Perfetto JSON, and fresh trace ids never
//                 collide;
//   6  collector  the fleet observability plane: an obs::Collector scrapes
//                 all three replicas and its merged latency histogram is
//                 *exactly* the union of the per-replica snapshots it
//                 parsed (bucket-wise identical, so fleet p50/p95/p99 are
//                 exact, not approximations); a provoked latency SLO fires
//                 its burn-rate alarm under traffic and clears
//                 hysteretically after traffic stops, with slo_burn /
//                 slo_clear events for the latency_p99 rule verified in
//                 the run log; killing one replica's exporter mid-flight
//                 flips its `up`, the fleet view stays merged-correct over
//                 the survivors, and the revived exporter is re-admitted.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/minijson.hpp"
#include "common/rng.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "obs/collector.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/run_log.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "selective/calibrate.hpp"
#include "selective/load_classifier.hpp"
#include "selective/quant_net.hpp"
#include "selective/trainer.hpp"
#include "serve/hot_swap.hpp"
#include "serve/inference_engine.hpp"
#include "wafermap/synth/generator.hpp"

using namespace wm;

namespace {

bool check(bool ok, const char* what) {
  std::printf("  %-58s %s\n", what, ok ? "ok" : "FAILED");
  return ok;
}

/// The union latency histogram recomputed from the per-replica snapshots
/// the collector itself parsed — the independent reference the merged
/// fleet view must equal bucket-for-bucket.
obs::HistogramSnapshot union_latency(const obs::FleetAggregate& agg) {
  obs::HistogramSnapshot u;
  for (const auto& [target, dump] : agg.per_target) {
    const obs::HistogramSnapshot s =
        dump.histograms.at("wm_net_request_latency_us").to_snapshot();
    if (u.buckets.empty()) {
      u = s;
      continue;
    }
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
      u.buckets[i] += s.buckets[i];
    }
    u.count += s.count;
    u.sum += s.sum;
    u.max = std::max(u.max, s.max);
  }
  return u;
}

/// Merged-vs-union exactness: identical layouts merge bucket-wise, so the
/// fleet histogram (and every quantile read off it) must be EQUAL, not
/// merely close.
bool merge_is_exact(const obs::FleetAggregate& agg) {
  const auto it = agg.histograms.find("wm_net_request_latency_us");
  if (it == agg.histograms.end()) return false;
  const obs::HistogramSnapshot& merged = it->second;
  const obs::HistogramSnapshot u = union_latency(agg);
  bool ok = merged.bounds == u.bounds && merged.buckets == u.buckets &&
            merged.count == u.count && merged.sum == u.sum;
  for (const double q : {0.5, 0.9, 0.95, 0.99, 1.0}) {
    ok = ok && merged.quantile(q) == u.quantile(q);
  }
  return ok;
}

/// One serving replica, restartable on its original wire port. The exporter
/// outlives down()/up() and reports 503 while the replica is dead, so the
/// router's prober sees an honest unhealthy answer instead of a vanished
/// endpoint.
class Replica {
 public:
  Replica(std::shared_ptr<const Classifier> initial, std::string name)
      : name_(std::move(name)), swap_(std::move(initial),
                                      {.registry = &registry_}) {
    up();
    wire_port_ = server_->port();
    exporter_ = std::make_unique<obs::HttpExporter>(obs::HttpExporterOptions{
        .registry = &registry_,
        .healthy = [this] { return serving_; }});
    health_port_ = exporter_->port();
  }

  ~Replica() { down(); }

  void up() {
    engine_ = std::make_unique<serve::InferenceEngine>(
        swap_, serve::EngineOptions{.max_batch = 16, .queue_capacity = 256,
                                    .registry = &registry_});
    server_ = std::make_unique<net::Server>(
        *engine_, net::ServerOptions{.port = wire_port_, .workers = 1,
                                     .name = name_});
    serving_ = true;
  }

  void down() {
    serving_ = false;
    if (server_ != nullptr) {
      server_->stop();
      server_.reset();
    }
    if (engine_ != nullptr) {
      engine_->shutdown();
      engine_.reset();
    }
  }

  std::vector<SelectivePrediction> swap_to(
      std::shared_ptr<const Classifier> candidate,
      std::span<const WaferMap> canaries, const std::string& label) {
    return swap_.swap_to(std::move(candidate), canaries, label);
  }

  /// Scenario 6 only: kill / rebind just the observability exporter. From
  /// the fleet collector's viewpoint this is a vanished scrape target (a
  /// crashed process) — distinct from down(), whose surviving exporter
  /// answers the router's prober with an honest 503.
  void exporter_kill() { exporter_.reset(); }
  void exporter_restart() {
    exporter_ = std::make_unique<obs::HttpExporter>(obs::HttpExporterOptions{
        .port = health_port_,
        .registry = &registry_,
        .healthy = [this] { return serving_; }});
  }

  int wire_port() const { return wire_port_; }
  int health_port() const { return health_port_; }
  std::uint64_t version() const { return swap_.version(); }
  const obs::Registry& registry() const { return registry_; }

 private:
  const std::string name_;
  obs::Registry registry_;
  serve::SwappableClassifier swap_;
  int wire_port_ = 0;
  int health_port_ = 0;
  bool serving_ = false;
  std::unique_ptr<serve::InferenceEngine> engine_;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<obs::HttpExporter> exporter_;
};

}  // namespace

int main(int argc, char** argv) {
  // --out-dir DIR: where the demo's artifacts (fleet_trace.json,
  // fleet_slo_events.jsonl) land; default is the working directory.
  std::string out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--out-dir") == 0) out_dir = argv[i + 1];
  }
  const std::string trace_out = out_dir + "/fleet_trace.json";
  const std::string events_out = out_dir + "/fleet_slo_events.jsonl";

  // Train a small selective net; quantize it as the hot-swap candidate.
  Rng rng(23);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts.fill(20);
  Dataset data = synth::generate_dataset(spec, rng);
  data.shuffle(rng);
  const auto [train, pool] = data.stratified_split(0.7, rng);

  selective::SelectiveNet net_model({.map_size = 16, .num_classes = 9,
                                     .conv1_filters = 8, .conv2_filters = 8,
                                     .conv3_filters = 8, .fc_units = 32,
                                     .use_batchnorm = true},
                                    rng);
  selective::SelectiveTrainer trainer({.epochs = 2, .batch_size = 32,
                                       .learning_rate = 2e-3,
                                       .target_coverage = 0.7});
  trainer.train(net_model, train, nullptr, rng);
  const float tau = selective::calibrate_threshold(net_model, pool, 0.7);
  const selective::QuantizedSelectiveNet qnet =
      selective::quantize_selective_net(net_model);

  // Everything goes through the unified factory: the in-process reference,
  // each replica's initial model, and the promotion candidate.
  const auto reference = load_classifier(net_model, {.threshold = tau});
  std::printf("trained 16x16 selective net, tau=%.4f\n", tau);

  std::vector<WaferMap> traffic;
  for (std::size_t i = 0; i < pool.size(); ++i) traffic.push_back(pool[i].map);
  const std::vector<WaferMap> canaries(traffic.begin(), traffic.begin() + 6);

  std::vector<std::unique_ptr<Replica>> replicas;
  for (int i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<Replica>(
        std::shared_ptr<const Classifier>(
            load_classifier(net_model, {.threshold = tau})),
        "replica" + std::to_string(i)));
  }

  net::RouterOptions ropts;
  for (auto& r : replicas) {
    ropts.replicas.push_back({.port = r->wire_port(),
                              .health_port = r->health_port()});
  }
  ropts.health_interval_ms = 50;
  net::Router router(ropts);
  std::printf("router over 3 replicas: tcp ports %d/%d/%d\n\n",
              replicas[0]->wire_port(), replicas[1]->wire_port(),
              replicas[2]->wire_port());

  bool all_ok = true;

  // Scenario 1: fleet traffic bit-matches the in-process classifier.
  {
    std::printf("scenario 1: fidelity across the fleet\n");
    const std::size_t n = std::min<std::size_t>(traffic.size(), 96);
    const std::vector<WaferMap> slice(traffic.begin(),
                                      traffic.begin() +
                                          static_cast<std::ptrdiff_t>(n));
    const auto direct = reference->predict_batch(slice);
    std::vector<std::future<net::CallResult>> futs;
    for (const auto& map : slice) futs.push_back(router.predict_async(map));
    bool bits_match = true;
    for (std::size_t i = 0; i < n; ++i) {
      const net::CallResult r = futs[i].get();
      bits_match = bits_match && r.ok() &&
                   serve::bit_equal(r.prediction, direct[i]);
    }
    all_ok &= check(bits_match, "routed predictions bit-match in-process");
    std::size_t replicas_used = 0;
    for (const auto& s : router.stats()) replicas_used += s.dispatched > 0;
    all_ok &= check(replicas_used == 3, "every replica served a share");
  }

  // Scenario 2: kill a replica while a burst is in flight — the router
  // ejects it and re-dispatches; nothing is lost.
  {
    std::printf("scenario 2: replica failure mid-burst\n");
    std::vector<std::future<net::CallResult>> futs;
    for (int i = 0; i < 60; ++i) {
      futs.push_back(router.predict_async(traffic[i % traffic.size()]));
      if (i == 20) replicas[2]->down();
    }
    std::size_t ok = 0;
    for (auto& f : futs) ok += f.get().ok();
    std::printf("  60 requests with a replica dying at #20: %zu ok\n", ok);
    all_ok &= check(ok == 60, "zero requests lost across the failure");
    all_ok &= check(router.stats()[2].ejects >= 1,
                    "the dead replica was ejected");
    all_ok &= check(router.healthy_count() == 2, "fleet serves on 2 replicas");
  }

  // Scenario 3: the replica restarts and /healthz re-admits it.
  {
    std::printf("scenario 3: restart and health-gated rejoin\n");
    replicas[2]->up();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (router.healthy_count() < 3 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    all_ok &= check(router.healthy_count() == 3,
                    "prober re-admitted the replica via /healthz");
    all_ok &= check(router.stats()[2].rejoins >= 1, "rejoin was counted");
  }

  // Scenario 4: promote the int8 model on every replica mid-burst.
  {
    std::printf("scenario 4: zero-downtime fp32 -> int8 hot swap\n");
    const auto expected_v1 = reference->predict_batch(canaries);
    std::vector<std::future<net::CallResult>> futs;
    auto send_burst = [&](int n) {
      for (int i = 0; i < n; ++i) {
        futs.push_back(
            router.predict_async(canaries[futs.size() % canaries.size()]));
      }
    };
    send_burst(60);
    // Let the fp32 burst drain so both versions demonstrably answer
    // traffic; the engines never stop serving while the swap lands.
    futs[59].wait();

    std::vector<SelectivePrediction> expected_v2;
    for (auto& r : replicas) {
      expected_v2 = r->swap_to(
          std::shared_ptr<const Classifier>(load_classifier(qnet)), canaries,
          "int8-promotion");
    }
    send_burst(60);

    std::size_t v1 = 0, v2 = 0, mixed = 0, lost = 0;
    for (std::size_t i = 0; i < futs.size(); ++i) {
      const net::CallResult r = futs[i].get();
      if (!r.ok()) {
        ++lost;
        continue;
      }
      const auto& e1 = expected_v1[i % canaries.size()];
      const auto& e2 = expected_v2[i % canaries.size()];
      if (serve::bit_equal(r.prediction, e1)) {
        ++v1;
      } else if (serve::bit_equal(r.prediction, e2)) {
        ++v2;
      } else {
        ++mixed;
      }
    }
    std::printf("  120 requests across the swap: %zu fp32, %zu int8, "
                "%zu mixed, %zu lost\n", v1, v2, mixed, lost);
    all_ok &= check(lost == 0, "zero requests lost across the swap");
    all_ok &= check(mixed == 0, "zero mixed-version responses");
    all_ok &= check(v1 > 0, "pre-swap traffic served by the fp32 model");
    all_ok &= check(v2 > 0, "post-swap traffic served by the int8 model");

    bool gauges_flipped = true;
    for (auto& r : replicas) {
      gauges_flipped = gauges_flipped && r->version() == 2 &&
                       r->registry().prometheus_text().find(
                           "wm_serve_model_version 2") != std::string::npos;
    }
    all_ok &= check(gauges_flipped,
                    "wm_serve_model_version gauge flipped on every replica");

    // Blue/green verification: the canary bits swap_to promised are exactly
    // what the fleet now emits over the wire.
    bool canaries_match = true;
    for (std::size_t i = 0; i < canaries.size(); ++i) {
      const net::CallResult r = router.predict(canaries[i]);
      canaries_match = canaries_match && r.ok() &&
                       serve::bit_equal(r.prediction, expected_v2[i]);
    }
    all_ok &= check(canaries_match,
                    "post-swap wire responses bit-match the canary bits");
  }

  // Scenario 5: one sampled request leaves linked spans in every role.
  {
    std::printf("scenario 5: end-to-end distributed tracing\n");
    obs::set_trace_enabled(true);
    obs::set_trace_process_name("fleet_demo");

    const obs::TraceContext ctx = obs::start_trace();
    const obs::TraceContext other = obs::start_trace();
    all_ok &= check(ctx.trace_id != 0 && other.trace_id != 0 &&
                        ctx.trace_id != other.trace_id,
                    "fresh trace ids are non-zero and unique");

    const net::CallResult traced =
        router.predict_async(traffic[0], 0, ctx).get();
    const net::CallResult second =
        router.predict_async(traffic[1], 0, other).get();
    all_ok &= check(traced.ok() && second.ok(), "sampled requests answer OK");
    all_ok &= check(traced.server.total_us > 0,
                    "per-stage StageTiming rode back on the response");

    const char* trace_path = trace_out.c_str();
    obs::trace_write_json(trace_path);
    obs::set_trace_enabled(false);

    // Re-read the export and assert the linkage the Perfetto UI would draw:
    // every role's span tagged with ctx's id, plus exactly one s/f pair
    // bracketing the 't' steps of the flow chain.
    std::ifstream in(trace_path);
    std::stringstream buf;
    buf << in.rdbuf();
    const minijson::Value doc = minijson::parse(buf.str());

    char want[24];
    std::snprintf(want, sizeof(want), "0x%llx",
                  static_cast<unsigned long long>(ctx.trace_id));
    std::set<std::string> roles;
    std::size_t flow_s = 0, flow_t = 0, flow_f = 0;
    for (const minijson::Value& ev : doc.at("traceEvents").arr()) {
      if (!ev.is_object() || !ev.has("ph")) continue;
      const std::string& ph = ev.at("ph").str();
      if (ph == "X" && ev.has("args") && ev.at("args").has("trace_id") &&
          ev.at("args").at("trace_id").str() == want) {
        roles.insert(ev.at("name").str());
      } else if ((ph == "s" || ph == "t" || ph == "f") &&
                 ev.at("id").str() == want) {
        if (ph == "s") ++flow_s;
        if (ph == "t") ++flow_t;
        if (ph == "f") ++flow_f;
      }
    }
    all_ok &= check(roles.count("router.request") == 1,
                    "router.request span carries the trace id");
    all_ok &= check(roles.count("client.call") == 1,
                    "client.call span carries the trace id");
    all_ok &= check(roles.count("server.request") == 1,
                    "server.request span carries the trace id");
    all_ok &= check(roles.count("engine.compute") == 1,
                    "engine.compute span carries the trace id");
    all_ok &= check(flow_s == 1 && flow_f == 1,
                    "exactly one s/f pair brackets the flow chain");
    all_ok &= check(flow_t >= 2, "intermediate hops contribute 't' steps");
    std::printf("  wrote %s: %zu roles, flow chain s=%zu t=%zu f=%zu "
                "(open in https://ui.perfetto.dev)\n",
                trace_path, roles.size(), flow_s, flow_t, flow_f);
  }

  // Scenario 6: the observability plane over the live fleet.
  {
    std::printf("scenario 6: fleet collector, exact merge, SLO burn\n");
    const char* events_path = events_out.c_str();
    std::remove(events_path);
    obs::RunLog slo_log(events_path);

    // Default rules, with the latency objective provoked to 1us — any
    // traffic at all violates it, so the burn-rate alarm demonstrably
    // fires (and, once traffic stops, demonstrably clears).
    std::vector<obs::SloRule> rules = obs::SloEngine::default_rules();
    for (obs::SloRule& rule : rules) {
      if (rule.kind == obs::SloKind::kLatencyP99) {
        rule.latency_threshold_us = 1;
        rule.fast_window = 2;
        rule.slow_window = 4;
        rule.fire_count = 2;
        rule.clear_count = 2;
      }
    }
    obs::CollectorOptions copts;
    for (auto& r : replicas) {
      copts.targets.push_back("127.0.0.1:" +
                              std::to_string(r->health_port()));
    }
    copts.start_thread = false;  // deterministic: we tick it ourselves
    copts.scrape_timeout_ms = 1000;
    copts.store.staleness_ms = 60'000;
    copts.slo_rules = std::move(rules);
    copts.run_log = &slo_log;
    obs::Collector collector(copts);

    collector.scrape_once();
    const obs::FleetAggregate first = collector.aggregate();
    all_ok &= check(first.targets_up == 3, "collector scraped 3/3 targets up");
    all_ok &= check(merge_is_exact(first),
                    "fleet histogram == union of per-replica snapshots");

    // Drive traffic between ticks until the provoked latency SLO fires.
    const auto latency_firing = [&] {
      for (const obs::SloStatus& s : collector.slo_status()) {
        if (s.kind == obs::SloKind::kLatencyP99) return s.firing;
      }
      return false;
    };
    for (int tick = 0; tick < 30 && !latency_firing(); ++tick) {
      std::vector<std::future<net::CallResult>> futs;
      for (int i = 0; i < 40; ++i) {
        futs.push_back(router.predict_async(traffic[i % traffic.size()]));
      }
      for (auto& f : futs) (void)f.get();
      collector.scrape_once();
    }
    all_ok &= check(latency_firing(), "provoked latency SLO fired under load");

    // Hysteresis: the alarm survives the first quiet tick, then clears.
    collector.scrape_once();
    all_ok &= check(latency_firing(), "alarm holds through one quiet tick");
    for (int tick = 0; tick < 30 && latency_firing(); ++tick) {
      collector.scrape_once();
    }
    all_ok &= check(!latency_firing(), "alarm cleared after traffic stopped");

    // The burn and the clear both left their run-log events.
    std::ifstream events_in(events_path);
    std::stringstream events_buf;
    events_buf << events_in.rdbuf();
    const std::string events = events_buf.str();
    all_ok &= check(events.find("\"event\":\"slo_burn\"") !=
                        std::string::npos,
                    "slo_burn event in the run log");
    all_ok &= check(events.find("\"event\":\"slo_clear\"") !=
                        std::string::npos,
                    "slo_clear event in the run log");
    all_ok &= check(events.find("\"rule\":\"latency_p99\"") !=
                        std::string::npos,
                    "the events name the latency_p99 rule");

    // Kill one replica's exporter: its `up` flips, and the fleet view
    // stays exactly merged over the two survivors.
    replicas[1]->exporter_kill();
    collector.scrape_once();
    const obs::FleetAggregate degraded = collector.aggregate();
    all_ok &= check(degraded.targets_up == 2,
                    "up dropped when a replica's exporter died");
    all_ok &= check(
        !degraded.health.at(copts.targets[1]).up &&
            degraded.per_target.count(copts.targets[1]) == 0,
        "the dead target is excluded from the merge");
    all_ok &= check(merge_is_exact(degraded),
                    "survivors' fleet histogram still exactly merged");

    // Revive: the collector re-admits the target on the next round.
    replicas[1]->exporter_restart();
    collector.scrape_once();
    const obs::FleetAggregate revived = collector.aggregate();
    all_ok &= check(revived.targets_up == 3 &&
                        revived.health.at(copts.targets[1]).up_transitions >=
                            3,
                    "revived exporter re-admitted, transitions counted");
    std::printf("  wrote %s (slo_burn/slo_clear events)\n", events_path);
  }

  router.close();
  for (auto& r : replicas) r->down();

  if (!all_ok) {
    std::fprintf(stderr, "\nFAILED: at least one scenario misbehaved\n");
    return 1;
  }
  std::printf("\nall scenarios behaved — fleet demo passed\n");
  return 0;
}
