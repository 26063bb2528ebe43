// Router behaviour over real loopback replicas: load spreading, transparent
// failover, the health/eject/rejoin state machine, the typed NO_REPLICA
// result when the whole fleet is down, and the client backoff regression
// (escalation must survive a flaky accept-then-drop listener).
#include "net/router.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket_util.hpp"
#include "obs/http_exporter.hpp"
#include "obs/json_check.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "serve/inference_engine.hpp"

namespace wm::net {
namespace {

using namespace std::chrono_literals;

/// Deterministic stand-in: label = wafer fail count, g = a fixed marker the
/// test can assert on to prove which fleet member answered.
class MarkerClassifier final : public Classifier {
 public:
  explicit MarkerClassifier(float marker = 0.75f) : marker_(marker) {}

  std::vector<SelectivePrediction> predict_batch(
      std::span<const WaferMap> maps) const override {
    std::vector<SelectivePrediction> out(maps.size());
    for (std::size_t i = 0; i < maps.size(); ++i) {
      out[i].label = maps[i].fail_count();
      out[i].selected = true;
      out[i].g = marker_;
      out[i].confidence = 0.5f;
    }
    return out;
  }

  int num_classes() const override { return 1 << 16; }

 private:
  float marker_;
};

/// One self-contained serving replica (classifier + engine + server).
struct Replica {
  explicit Replica(float marker = 0.75f, int port = 0)
      : clf(marker),
        engine(clf, {.max_batch = 8, .max_delay_us = 200}),
        server(engine, {.port = port, .workers = 1}) {}

  MarkerClassifier clf;
  serve::InferenceEngine engine;
  Server server;
};

WaferMap test_map(int fails = 3, int size = 12) {
  WaferMap map(size);
  for (int r = 0; r < size && fails > 0; ++r) {
    for (int c = 0; c < size && fails > 0; ++c) {
      if (!map.on_wafer(r, c)) continue;
      map.mark_fail(r, c);
      --fails;
    }
  }
  return map;
}

/// A dead endpoint: an ephemeral port with nothing listening on it.
int dead_port() {
  int port = 0;
  const int fd = listen_tcp("127.0.0.1", 0, 4, &port);
  ::close(fd);
  return port;
}

/// Client template with fast failure for dead endpoints.
ClientOptions fast_client() {
  return {.connect_timeout_ms = 500,
          .max_connect_attempts = 2,
          .backoff_initial_ms = 1,
          .backoff_max_ms = 4};
}

TEST(RouterTest, SpreadsLoadAcrossHealthyReplicas) {
  Replica a, b, c;
  Router router({.replicas = {{.port = a.server.port()},
                              {.port = b.server.port()},
                              {.port = c.server.port()}}});

  const WaferMap map = test_map();
  std::vector<std::future<CallResult>> futures;
  for (int i = 0; i < 12; ++i) futures.push_back(router.predict_async(map));
  for (auto& f : futures) {
    const CallResult r = f.get();
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.prediction.label, map.fail_count());
  }

  // Least-outstanding over an idle fleet round-robins a same-tick burst, so
  // every replica must have seen traffic.
  std::uint64_t total = 0;
  for (const auto& s : router.stats()) {
    EXPECT_GT(s.dispatched, 0u) << "replica " << s.index;
    EXPECT_TRUE(s.healthy);
    EXPECT_EQ(s.transport_errors, 0u);
    total += s.dispatched;
  }
  EXPECT_EQ(total, 12u);
  EXPECT_EQ(router.retries(), 0u);
  EXPECT_EQ(router.healthy_count(), 3u);
}

TEST(RouterTest, FailsOverFromDeadReplicaTransparently) {
  Replica live(/*marker=*/0.25f);
  Router router({.replicas = {{.port = dead_port()},
                              {.port = live.server.port()}},
                 .client = fast_client()});

  // Every call must succeed even though half the fleet never existed; the
  // dead replica costs retries, not errors.
  const WaferMap map = test_map(4);
  for (int i = 0; i < 6; ++i) {
    const CallResult r = router.predict(map);
    ASSERT_EQ(r.status, Status::kOk) << "call " << i;
    EXPECT_FLOAT_EQ(r.prediction.g, 0.25f);  // the live replica answered
  }
  EXPECT_GE(router.retries(), 1u);

  const auto stats = router.stats();
  EXPECT_FALSE(stats[0].healthy);  // ejected after consecutive errors
  EXPECT_TRUE(stats[1].healthy);
  EXPECT_GE(stats[0].ejects, 1u);
  EXPECT_EQ(router.healthy_count(), 1u);
}

TEST(RouterTest, AllReplicasEjectedYieldsNoReplicaNotAHang) {
  Router router({.replicas = {{.port = dead_port()}},
                 .blind_rejoin_ms = 60'000,  // stays ejected for the test
                 .client = fast_client()});

  // First call: dispatched, fails with CONNECTION_ERROR, ejects the replica.
  const CallResult first = router.predict(test_map());
  EXPECT_EQ(first.status, Status::kConnectionError);
  EXPECT_EQ(router.healthy_count(), 0u);

  // With the whole fleet ejected, calls resolve immediately and typed.
  const auto t0 = std::chrono::steady_clock::now();
  const CallResult second = router.predict(test_map());
  EXPECT_EQ(second.status, Status::kNoReplica);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
  EXPECT_GE(router.no_replica(), 1u);

  const std::string text = router.metrics_registry().prometheus_text();
  EXPECT_NE(text.find("wm_router_no_replica_total"), std::string::npos);
  EXPECT_NE(text.find("wm_router_healthy_replicas 0"), std::string::npos);
}

TEST(RouterTest, EjectedReplicaRejoinsViaHealthz) {
  std::atomic<bool> replica_up{false};
  obs::Registry health_registry;
  obs::HttpExporter exporter(
      {.registry = &health_registry,
       .healthy = [&] { return replica_up.load(); }});

  auto replica = std::make_unique<Replica>();
  const int port = replica->server.port();
  replica_up.store(true);

  Router router({.replicas = {{.port = port,
                               .health_port = exporter.port()}},
                 .health_interval_ms = 10,
                 .client = fast_client()});
  ASSERT_EQ(router.predict(test_map()).status, Status::kOk);

  // Take the replica down: the next call fails and ejects it, and /healthz
  // (now 503) keeps it ejected — calls are NO_REPLICA, not hangs.
  replica_up.store(false);
  replica.reset();
  EXPECT_EQ(router.predict(test_map()).status, Status::kConnectionError);
  EXPECT_EQ(router.healthy_count(), 0u);
  EXPECT_EQ(router.predict(test_map()).status, Status::kNoReplica);

  // Bring it back on the same port and flip /healthz to 200: the prober
  // must rejoin it and traffic must flow again.
  replica = std::make_unique<Replica>(0.75f, port);
  replica_up.store(true);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (router.healthy_count() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(router.healthy_count(), 1u);

  CallResult r;
  do {
    r = router.predict(test_map());
  } while (r.status != Status::kOk &&
           std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_GE(router.stats()[0].rejoins, 1u);
}

TEST(RouterTest, BlindRejoinWithoutHealthPort) {
  auto replica = std::make_unique<Replica>();
  const int port = replica->server.port();
  Router router({.replicas = {{.port = port}},  // no health_port
                 .health_interval_ms = 10,
                 .blind_rejoin_ms = 50,
                 .client = fast_client()});
  ASSERT_EQ(router.predict(test_map()).status, Status::kOk);

  replica.reset();
  EXPECT_EQ(router.predict(test_map()).status, Status::kConnectionError);
  EXPECT_EQ(router.healthy_count(), 0u);

  // Restart; with no health endpoint the replica rejoins on the timer and
  // traffic re-probes it.
  replica = std::make_unique<Replica>(0.75f, port);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  CallResult r;
  do {
    r = router.predict(test_map());
  } while (r.status != Status::kOk &&
           std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(r.status, Status::kOk);
}

TEST(RouterTest, CloseFailsOutstandingAndIsIdempotent) {
  Replica a;
  Router router({.replicas = {{.port = a.server.port()}}});
  ASSERT_EQ(router.predict(test_map()).status, Status::kOk);
  router.close();
  EXPECT_EQ(router.predict(test_map()).status, Status::kConnectionError);
  router.close();  // idempotent
}

TEST(RouterTest, RejectsEmptyFleet) {
  EXPECT_THROW(Router({.replicas = {}}), Error);
}

TEST(RouterTest, ProbeCountersTrackHealthzTraffic) {
  std::atomic<bool> replica_up{true};
  obs::Registry health_registry;
  obs::HttpExporter exporter(
      {.registry = &health_registry,
       .healthy = [&] { return replica_up.load(); }});

  auto replica = std::make_unique<Replica>();
  const int port = replica->server.port();
  obs::Registry registry;
  Router router({.replicas = {{.port = port,
                               .health_port = exporter.port()}},
                 .health_interval_ms = 10,
                 .registry = &registry,
                 .client = fast_client()});
  ASSERT_EQ(router.predict(test_map()).status, Status::kOk);

  const auto probes = [&] {
    return registry.counter("wm_router_probe_total", "").value();
  };
  const auto failed = [&] {
    return registry.counter("wm_router_probe_fail_total", "").value();
  };
  // Healthy fleet: the prober only probes EJECTED replicas.
  EXPECT_EQ(probes(), 0u);

  // Kill the replica with /healthz answering 503: every probe now issues
  // AND fails, and both counters advance together.
  replica_up.store(false);
  replica.reset();
  ASSERT_EQ(router.predict(test_map()).status, Status::kConnectionError);
  ASSERT_EQ(router.healthy_count(), 0u);
  // probe_total increments before each probe and probe_fail after it
  // completes, so wait on the trailing counter.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (failed() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GE(probes(), 3u);
  EXPECT_GE(failed(), 3u);
  EXPECT_LE(failed(), probes());

  // Recovery: probes keep issuing but stop failing once /healthz is 200.
  replica = std::make_unique<Replica>(0.75f, port);
  replica_up.store(true);
  while (router.healthy_count() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(router.healthy_count(), 1u);
  EXPECT_GT(probes(), failed());  // at least the rejoin probe succeeded
}

TEST(RouterTest, AttemptsReportFailoverDispatches) {
  Replica live;
  Router router({.replicas = {{.port = dead_port()},
                              {.port = live.server.port()}},
                 .client = fast_client()});
  // First call may land on the dead replica and fail over; attempts counts
  // every dispatch the call consumed.
  const CallResult r = router.predict_async(test_map(), 0).get();
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_GE(r.attempts, 1);
  EXPECT_LE(r.attempts, 2);

  // With only the live replica left, calls settle at exactly one attempt.
  const CallResult r2 = router.predict_async(test_map(), 0).get();
  ASSERT_EQ(r2.status, Status::kOk);
  EXPECT_EQ(r2.attempts, 1);
}

TEST(RouterTest, RouterIsTheOriginHopWhenHandedAFreshContext) {
  obs::trace_clear();
  obs::set_trace_enabled(true);
  Replica a;
  Router router({.replicas = {{.port = a.server.port()}}});

  const obs::TraceContext ctx = obs::start_trace();
  const CallResult r = router.predict_async(test_map(), 0, ctx).get();
  ASSERT_EQ(r.status, Status::kOk);
  router.close();
  obs::set_trace_enabled(false);

  char want[24];
  std::snprintf(want, sizeof(want), "0x%llx",
                static_cast<unsigned long long>(ctx.trace_id));
  std::set<std::string> spans;
  int flow_s = 0, flow_t = 0, flow_f = 0;
  const testjson::Value doc = testjson::parse(obs::trace_to_json());
  for (const testjson::Value& e : doc.at("traceEvents").arr()) {
    const std::string& ph = e.at("ph").str();
    if (ph == "X" && e.has("args") && e.at("args").has("trace_id") &&
        e.at("args").at("trace_id").str() == want) {
      spans.insert(e.at("name").str());
    } else if ((ph == "s" || ph == "t" || ph == "f") &&
               e.at("id").str() == want) {
      flow_s += ph == "s";
      flow_t += ph == "t";
      flow_f += ph == "f";
    }
  }
  obs::trace_clear();

  // The router received parent_span == 0, so IT brackets the chain with the
  // unique s/f pair; its per-replica client (stamped hop id) contributes a
  // 't' step instead of a second 's'.
  EXPECT_EQ(spans.count("router.request"), 1u);
  EXPECT_EQ(spans.count("client.call"), 1u);
  EXPECT_EQ(spans.count("server.request"), 1u);
  EXPECT_EQ(flow_s, 1);
  EXPECT_EQ(flow_f, 1);
  EXPECT_GE(flow_t, 2);  // client + server (+ engine)
}

// --- client backoff regression -------------------------------------------
//
// A listener that completes TCP handshakes (connects "succeed") but drops
// every connection without answering. Before the fix, each successful
// connect reset the reconnect backoff, so the client re-dialled such a
// server in a tight loop forever. Now the delay escalates until a call
// actually completes.

class AcceptDropListener {
 public:
  AcceptDropListener() {
    fd_ = listen_tcp("127.0.0.1", 0, 16, &port_);
    thread_ = std::thread([this] {
      for (;;) {
        const int conn = ::accept(fd_, nullptr, nullptr);
        if (conn < 0) return;  // listener closed
        ::close(conn);         // drop immediately
      }
    });
  }

  ~AcceptDropListener() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    if (thread_.joinable()) thread_.join();
  }

  int port() const { return port_; }

 private:
  int fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

TEST(NetClientBackoffTest, EscalatesAcrossFlakyAcceptCycles) {
  AcceptDropListener flaky;
  Client client({.port = flaky.port(),
                 .max_connect_attempts = 3,
                 .backoff_initial_ms = 4,
                 .backoff_max_ms = 256,
                 .backoff_jitter = 0.0});
  EXPECT_EQ(client.current_backoff_ms(), 4);

  // Each failed call rides at least one connect-then-drop cycle; because no
  // call ever completes, the escalation must persist across the successful
  // handshakes instead of resetting.
  int escalated = client.current_backoff_ms();
  for (int i = 0; i < 4 && escalated <= 4; ++i) {
    (void)client.predict(test_map());
    escalated = client.current_backoff_ms();
  }
  EXPECT_GT(escalated, 4) << "backoff was reset by a bare successful connect";
}

TEST(NetClientBackoffTest, CompletedCallResetsEscalation) {
  // Phase 1: escalate against a dead endpoint (connect refused).
  const int port = dead_port();
  Client client({.port = port,
                 .connect_timeout_ms = 500,
                 .max_connect_attempts = 3,
                 .backoff_initial_ms = 4,
                 .backoff_max_ms = 256,
                 .backoff_jitter = 0.0});
  EXPECT_EQ(client.predict(test_map()).status, Status::kConnectionError);
  // Give-up resets the delay for the next call cycle (documented behaviour).
  EXPECT_EQ(client.current_backoff_ms(), 4);

  // Phase 2: a real server appears on that port; a completed round trip must
  // leave the escalation at the initial value afterwards.
  MarkerClassifier clf;
  serve::InferenceEngine engine(clf, {.max_batch = 4, .max_delay_us = 0});
  Server server(engine, {.port = port, .workers = 1});
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  CallResult r;
  do {
    r = client.predict(test_map());
  } while (r.status != Status::kOk &&
           std::chrono::steady_clock::now() < deadline);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(client.current_backoff_ms(), 4);
}

}  // namespace
}  // namespace wm::net
