// End-to-end wm_net behaviour over real loopback TCP: round trips,
// pipelining, deadline enforcement, load shedding, malformed-peer handling,
// graceful drain, and the client's one dial per call: reconnect after a
// restart, an immediate failure once the server is gone, and no re-dial
// loop against a listener that accepts and drops.
#include "net/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.hpp"
#include "net/socket_util.hpp"
#include "net/wire.hpp"
#include "obs/json_check.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "serve/hot_swap.hpp"
#include "serve/inference_engine.hpp"

namespace wm::net {
namespace {

using namespace std::chrono_literals;

/// Deterministic stand-in classifier: label = fail_count of the wafer.
/// An optional gate blocks inside predict_batch until release().
class FakeClassifier final : public Classifier {
 public:
  explicit FakeClassifier(bool gated = false) : gated_(gated) {}

  std::vector<SelectivePrediction> predict_batch(
      std::span<const WaferMap> maps) const override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      entered_cv_.notify_all();
      gate_cv_.wait(lock, [&] { return !gated_; });
    }
    std::vector<SelectivePrediction> out(maps.size());
    for (std::size_t i = 0; i < maps.size(); ++i) {
      out[i].label = maps[i].fail_count();
      out[i].selected = maps[i].fail_count() % 2 == 0;
      out[i].g = 0.75f;
      out[i].confidence = 0.5f;
    }
    return out;
  }

  int num_classes() const override { return 1 << 16; }

  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    gated_ = false;
    gate_cv_.notify_all();
  }

  void wait_entered(int n) const {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ >= n; });
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable gate_cv_;
  mutable std::condition_variable entered_cv_;
  mutable int entered_ = 0;
  bool gated_;
};

/// Wafers with distinct, deterministic fail counts.
std::vector<WaferMap> test_maps(int n, int size = 12) {
  std::vector<WaferMap> maps;
  for (int i = 0; i < n; ++i) {
    WaferMap map(size);
    int to_fail = i + 1;
    for (int r = 0; r < size && to_fail > 0; ++r) {
      for (int c = 0; c < size && to_fail > 0; ++c) {
        if (!map.on_wafer(r, c)) continue;
        map.mark_fail(r, c);
        --to_fail;
      }
    }
    maps.push_back(map);
  }
  return maps;
}

/// Polls until `done()` holds or 5 s pass, for state that server threads
/// update after the client's own call has returned: the server counts a
/// response, records its latency and closes its "server.request" span only
/// after writing it, so a client can hold the reply before any of those land.
template <class Pred>
void wait_until(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
}

TEST(NetServerTest, RoundTripMatchesClassifier) {
  FakeClassifier clf;
  serve::InferenceEngine engine(clf, {.max_batch = 8});
  Server server(engine, {.workers = 2});
  Client client({.port = server.port()});

  const auto maps = test_maps(6);
  for (const auto& map : maps) {
    const CallResult r = client.predict(map);
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.prediction.label, map.fail_count());
    EXPECT_EQ(r.prediction.selected, map.fail_count() % 2 == 0);
    EXPECT_FLOAT_EQ(r.prediction.g, 0.75f);
  }
  EXPECT_EQ(server.requests_received(), 6u);
  wait_until([&] { return server.responses_sent() >= 6; });
  EXPECT_EQ(server.responses_sent(), 6u);
  EXPECT_TRUE(client.connected());
}

TEST(NetServerTest, PipelinedRequestsAllAnswered) {
  FakeClassifier clf;
  serve::InferenceEngine engine(clf, {.max_batch = 16, .queue_capacity = 256});
  Server server(engine, {.workers = 2});
  Client client({.port = server.port()});

  const auto maps = test_maps(32);
  std::vector<std::future<CallResult>> futures;
  for (const auto& map : maps) futures.push_back(client.predict_async(map));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const CallResult r = futures[i].get();
    ASSERT_EQ(r.status, Status::kOk) << "request " << i;
    EXPECT_EQ(r.prediction.label, maps[i].fail_count());
  }
  EXPECT_EQ(client.inflight(), 0u);
}

TEST(NetServerTest, ManyConnectionsConcurrently) {
  FakeClassifier clf;
  serve::InferenceEngine engine(clf, {.max_batch = 16, .queue_capacity = 256});
  Server server(engine, {.workers = 3});
  const auto maps = test_maps(8);

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      Client client({.port = server.port()});
      for (int i = 0; i < 8; ++i) {
        const CallResult r = client.predict(maps[i % maps.size()]);
        if (r.status != Status::kOk ||
            r.prediction.label != maps[i % maps.size()].fail_count()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  wait_until([&] { return server.responses_sent() >= 48; });
  EXPECT_EQ(server.responses_sent(), 48u);
}

TEST(NetServerTest, ExpiredDeadlineAnsweredTimeout) {
  FakeClassifier clf(/*gated=*/true);
  serve::InferenceEngine engine(clf, {.max_batch = 1});
  Server server(engine, {.workers = 1});
  Client client({.port = server.port()});

  const auto maps = test_maps(1);
  const CallResult r = client.predict(maps[0], /*deadline_ms=*/30);
  EXPECT_EQ(r.status, Status::kTimeout);
  EXPECT_EQ(server.timeouts(), 1u);

  // Late results for abandoned requests are dropped safely; the connection
  // keeps working for subsequent calls.
  clf.release();
  const CallResult ok = client.predict(maps[0]);
  EXPECT_EQ(ok.status, Status::kOk);
}

TEST(NetServerTest, AbandonedRequestCompletesAfterServerIsGone) {
  // A request answered TIMEOUT stays in the engine. Its completion hook
  // runs once the classifier lets go, after the server that submitted it
  // is destroyed, so the hook must own what it wakes.
  FakeClassifier clf(/*gated=*/true);
  serve::InferenceEngine engine(clf, {.max_batch = 1});
  {
    Server server(engine, {.workers = 1});
    Client client({.port = server.port()});
    const CallResult r = client.predict(test_maps(1)[0], /*deadline_ms=*/30);
    ASSERT_EQ(r.status, Status::kTimeout);
    clf.wait_entered(1);
    server.stop();
  }
  clf.release();
  engine.shutdown();  // the abandoned request's hook has run by now
  EXPECT_EQ(engine.stats().requests, 1u);
}

TEST(NetServerTest, QueueFullAnsweredOverloaded) {
  FakeClassifier clf(/*gated=*/true);
  serve::InferenceEngine engine(clf, {.max_batch = 1, .queue_capacity = 2});
  Server server(engine, {.workers = 1});
  Client client({.port = server.port()});
  const auto maps = test_maps(1);

  // First request enters the (gated) classifier; two more fill the queue.
  auto f0 = client.predict_async(maps[0]);
  clf.wait_entered(1);
  auto f1 = client.predict_async(maps[0]);
  auto f2 = client.predict_async(maps[0]);
  // Wait until both are queued server-side before overflowing.
  wait_until([&] { return engine.queue_depth() >= 2; });
  ASSERT_EQ(engine.queue_depth(), 2u);

  auto f3 = client.predict_async(maps[0]);
  EXPECT_EQ(f3.get().status, Status::kOverloaded);  // shed immediately
  EXPECT_EQ(server.shed(), 1u);

  clf.release();
  EXPECT_EQ(f0.get().status, Status::kOk);
  EXPECT_EQ(f1.get().status, Status::kOk);
  EXPECT_EQ(f2.get().status, Status::kOk);
}

TEST(NetServerTest, GarbageBytesCloseTheConnection) {
  FakeClassifier clf;
  serve::InferenceEngine engine(clf, {.max_batch = 4});
  Server server(engine, {.workers = 1});

  const int fd = connect_tcp("127.0.0.1", server.port(), 2000);
  const std::uint8_t junk[] = {0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4};
  ASSERT_TRUE(write_all(fd, junk, sizeof(junk)));
  std::uint8_t buf[64];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);  // orderly close
  ::close(fd);

  // The server survives and keeps serving well-formed clients.
  Client client({.port = server.port()});
  EXPECT_EQ(client.predict(test_maps(1)[0]).status, Status::kOk);
}

TEST(NetServerTest, CorruptBodyAnsweredMalformedConnectionSurvives) {
  FakeClassifier clf;
  serve::InferenceEngine engine(clf, {.max_batch = 4});
  Server server(engine, {.workers = 1});

  const int fd = connect_tcp("127.0.0.1", server.port(), 2000);
  RequestFrame req;
  req.request_id = 42;
  req.map = test_maps(1)[0];
  std::vector<std::uint8_t> bytes = encode_request(req);
  bytes[kHeaderBytes + 23] = 0xFF;  // four invalid dies in the payload
  ASSERT_TRUE(write_all(fd, bytes.data(), bytes.size()));

  // Read one full response frame off the raw socket.
  std::vector<std::uint8_t> in;
  std::uint8_t buf[256];
  ParsedFrame frame;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    in.insert(in.end(), buf, buf + n);
    frame = try_parse_frame(in.data(), in.size());
    ASSERT_NE(frame.status, DecodeStatus::kBad);
    if (frame.status == DecodeStatus::kFrame) break;
  }
  const ResponseFrame resp =
      decode_response_body(frame.request_id, frame.body, frame.body_len);
  EXPECT_EQ(resp.request_id, 42u);
  EXPECT_EQ(resp.status, Status::kMalformed);

  // Same connection, now a good request: must be answered OK.
  req.request_id = 43;
  bytes = encode_request(req);
  ASSERT_TRUE(write_all(fd, bytes.data(), bytes.size()));
  in.clear();
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    in.insert(in.end(), buf, buf + n);
    frame = try_parse_frame(in.data(), in.size());
    ASSERT_NE(frame.status, DecodeStatus::kBad);
    if (frame.status == DecodeStatus::kFrame) break;
  }
  EXPECT_EQ(frame.request_id, 43u);
  EXPECT_EQ(decode_response_body(frame.request_id, frame.body, frame.body_len)
                .status,
            Status::kOk);
  ::close(fd);
}

TEST(NetServerTest, StopDrainsEveryAcceptedRequest) {
  FakeClassifier clf(/*gated=*/true);
  serve::InferenceEngine engine(clf, {.max_batch = 8, .queue_capacity = 256});
  Server server(engine, {.workers = 2});
  Client client({.port = server.port()});

  const auto maps = test_maps(1);
  const std::size_t burst = 40;
  std::vector<std::future<CallResult>> futures;
  for (std::size_t i = 0; i < burst; ++i) {
    futures.push_back(client.predict_async(maps[0]));
  }
  wait_until([&] { return server.requests_received() >= burst; });
  ASSERT_EQ(server.requests_received(), burst);

  // The gate holds every request unanswered until stop() has begun, so
  // stop() must drain all of them: drain-then-stop.
  std::thread stopper([&] { server.stop(); });
  while (server.running()) std::this_thread::sleep_for(1ms);
  EXPECT_EQ(server.responses_sent(), 0u);
  clf.release();
  stopper.join();
  std::size_t ok = 0;
  for (auto& f : futures) ok += f.get().status == Status::kOk;
  EXPECT_EQ(ok, burst);
  EXPECT_EQ(server.responses_sent(), burst);
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(NetClientTest, ReconnectsAfterServerRestart) {
  FakeClassifier clf;
  serve::InferenceEngine engine(clf, {.max_batch = 4});
  auto server = std::make_unique<Server>(engine, ServerOptions{.workers = 1});
  const int port = server->port();

  Client client({.port = port});
  const auto maps = test_maps(1);
  EXPECT_EQ(client.predict(maps[0]).status, Status::kOk);
  EXPECT_EQ(client.reconnects(), 0u);

  server->stop();
  server.reset();
  // Restart on the same port; the next call must transparently reconnect.
  server = std::make_unique<Server>(engine,
                                    ServerOptions{.port = port, .workers = 1});
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  CallResult r;
  do {
    r = client.predict(maps[0]);
  } while (r.status != Status::kOk &&
           std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_GE(client.reconnects(), 1u);
}

TEST(NetClientTest, NoListenerFailsWithConnectionError) {
  // Grab an ephemeral port, then free it: nothing listens there anymore.
  int port = 0;
  const int fd = listen_tcp("127.0.0.1", 0, 4, &port);
  ::close(fd);

  Client client({.port = port});
  const CallResult r = client.predict(test_maps(1)[0]);
  EXPECT_EQ(r.status, Status::kConnectionError);
  EXPECT_FALSE(client.connected());
}

TEST(NetClientTest, CallAfterTheServerDiedFailsAtOnce) {
  FakeClassifier clf;
  serve::InferenceEngine engine(clf, {.max_batch = 4});
  auto server = std::make_unique<Server>(engine, ServerOptions{.workers = 1});
  Client client({.port = server->port()});
  const auto map = test_maps(1)[0];
  ASSERT_EQ(client.predict(map).status, Status::kOk);

  // The server goes away while the client is idle; the client sees its
  // connection close.
  server.reset();
  wait_until([&] { return !client.connected(); });
  ASSERT_FALSE(client.connected());

  // The next call dials once, is refused and fails: no retry schedule.
  const auto t0 = std::chrono::steady_clock::now();
  const CallResult r = client.predict(map);
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r.status, Status::kConnectionError);
  EXPECT_LT(took, 250ms)
      << "took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(took).count()
      << " ms";
}

/// A listener that completes TCP handshakes (connects succeed) but drops
/// every connection at once without answering, counting what it accepts.
class AcceptDropListener {
 public:
  AcceptDropListener() {
    fd_ = listen_tcp("127.0.0.1", 0, 16, &port_);
    thread_ = std::thread([this] {
      for (;;) {
        const int conn = ::accept(fd_, nullptr, nullptr);
        if (conn < 0) return;  // listener closed
        accepts_.fetch_add(1);
        ::close(conn);  // drop immediately
      }
    });
  }

  ~AcceptDropListener() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    if (thread_.joinable()) thread_.join();
  }

  int port() const { return port_; }
  int accepts() const { return accepts_.load(); }

 private:
  int fd_ = -1;
  int port_ = 0;
  std::atomic<int> accepts_{0};
  std::thread thread_;
};

TEST(NetClientTest, AcceptThenDropCostsOneDialPerCall) {
  // Every dial succeeds and every connection dies unanswered. The client
  // dials only for calls it holds, and each dial writes them or fails them,
  // so such a listener costs one dial per call and never a re-dial loop.
  AcceptDropListener flaky;
  Client client({.port = flaky.port()});
  const auto map = test_maps(1)[0];
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(client.predict(map).status, Status::kConnectionError)
        << "call " << i;
  }
  // A client that re-dialled on its own would keep the listener accepting.
  std::this_thread::sleep_for(50ms);
  EXPECT_LE(flaky.accepts(), 5);
}

TEST(NetClientTest, CallsAfterCloseFailImmediately) {
  FakeClassifier clf;
  serve::InferenceEngine engine(clf, {.max_batch = 4});
  Server server(engine, {.workers = 1});
  Client client({.port = server.port()});
  EXPECT_EQ(client.predict(test_maps(1)[0]).status, Status::kOk);
  client.close();
  EXPECT_EQ(client.predict(test_maps(1)[0]).status,
            Status::kConnectionError);
  client.close();  // idempotent
}

TEST(NetClientTest, CompletionHookRunsOnEveryPath) {
  FakeClassifier clf(/*gated=*/true);
  serve::InferenceEngine engine(clf, {.max_batch = 4});
  Server server(engine, {.workers = 1});
  const auto map = test_maps(1)[0];

  // The hook keeps what it was handed and calls back into its client,
  // which it may: hooks run without the client's lock held.
  std::atomic<int> runs{0};
  CallResult seen;
  std::size_t seen_inflight = 0;
  std::thread::id ran_on;
  const auto hook = [&](Client* c) {
    return [&, c](const CallResult& r) {
      seen = r;
      seen_inflight = c->inflight();
      ran_on = std::this_thread::get_id();
      ++runs;
    };
  };
  // Waits for hook run `n` and checks it saw what the future holds.
  const auto expect_hook = [&](int n, const CallResult& want) {
    wait_until([&] { return runs.load() == n; });
    ASSERT_EQ(runs.load(), n);
    EXPECT_EQ(seen.status, want.status);
    EXPECT_TRUE(serve::bit_equal(seen.prediction, want.prediction));
    EXPECT_EQ(seen.server.total_us, want.server.total_us);
    EXPECT_EQ(seen.attempts, want.attempts);
    EXPECT_EQ(seen_inflight, 0u);
  };

  // close() with a call on the wire: the IO thread fails it.
  Client closing({.port = server.port()});
  auto on_wire = closing.predict_async(map, 0, {}, hook(&closing));
  clf.wait_entered(1);
  closing.close();
  const CallResult closed_result = on_wire.get();
  EXPECT_EQ(closed_result.status, Status::kConnectionError);
  expect_hook(1, closed_result);
  clf.release();

  // A response.
  Client client({.port = server.port()});
  const CallResult answered =
      client.predict_async(map, 0, {}, hook(&client)).get();
  EXPECT_EQ(answered.status, Status::kOk);
  expect_hook(2, answered);

  // A transport failure: nothing listens on the port.
  int port = 0;
  ::close(listen_tcp("127.0.0.1", 0, 4, &port));
  Client dead({.port = port});
  const CallResult refused = dead.predict_async(map, 0, {}, hook(&dead)).get();
  EXPECT_EQ(refused.status, Status::kConnectionError);
  expect_hook(3, refused);

  // A closed client fails the call inside predict_async, running the hook
  // on the caller's thread before it returns.
  client.close();
  auto fut = client.predict_async(map, 0, {}, hook(&client));
  EXPECT_EQ(runs.load(), 4);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  const CallResult after_close = fut.get();
  EXPECT_EQ(after_close.status, Status::kConnectionError);
  expect_hook(4, after_close);
}

TEST(NetServerTest, MetricsLandInTheEngineRegistry) {
  FakeClassifier clf;
  serve::InferenceEngine engine(clf, {.max_batch = 4});
  Server server(engine, {.workers = 1});
  Client client({.port = server.port()});
  (void)client.predict(test_maps(1)[0]);
  wait_until([&] { return server.responses_sent() >= 1; });

  const std::string text = engine.metrics_registry().prometheus_text();
  EXPECT_NE(text.find("wm_net_requests_total 1"), std::string::npos);
  EXPECT_NE(text.find("wm_net_responses_total 1"), std::string::npos);
  EXPECT_NE(text.find("wm_net_connections_total 1"), std::string::npos);
  EXPECT_NE(text.find("wm_net_request_latency_us_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("wm_serve_requests_total 1"), std::string::npos);
}

TEST(NetSocketUtilTest, WakePipeWakesAndDrains) {
  WakePipe pipe;
  pipe.wake();
  pipe.wake();
  pipe.drain();  // must not block even after multiple wakes
  pipe.drain();  // or when already empty
  EXPECT_GE(pipe.read_fd(), 0);

  // More wakes than the pipe holds, none drained: wake() must drop the
  // overflow instead of blocking its caller, and one drain empties it.
  const int capacity = ::fcntl(pipe.read_fd(), F_GETPIPE_SZ);
  ASSERT_GT(capacity, 0);
  for (int i = 0; i <= capacity; ++i) pipe.wake();
  pollfd pfd{pipe.read_fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 0), 1);
  pipe.drain();
  EXPECT_EQ(::poll(&pfd, 1, 0), 0);
  pipe.wake();  // an overflow leaves the pipe working
  EXPECT_EQ(::poll(&pfd, 1, 0), 1);
}

/// Scoped tracer enable + clean slate; the tracer is process-global state
/// shared with every other test in this binary.
class NetTracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::trace_clear();
    obs::set_trace_enabled(true);
  }
  void TearDown() override {
    obs::set_trace_enabled(false);
    obs::trace_clear();
  }

  /// Spans tagged with `id` in the current export, by name; also counts the
  /// trace's flow events into s/t/f.
  struct TraceView {
    std::set<std::string> spans;
    int s = 0, t = 0, f = 0;
  };
  static TraceView view_for(std::uint64_t id) {
    char want[24];
    std::snprintf(want, sizeof(want), "0x%llx",
                  static_cast<unsigned long long>(id));
    TraceView v;
    const testjson::Value doc = testjson::parse(obs::trace_to_json());
    for (const testjson::Value& e : doc.at("traceEvents").arr()) {
      const std::string& ph = e.at("ph").str();
      if (ph == "X" && e.has("args") && e.at("args").has("trace_id") &&
          e.at("args").at("trace_id").str() == want) {
        v.spans.insert(e.at("name").str());
      } else if ((ph == "s" || ph == "t" || ph == "f") &&
                 e.at("id").str() == want) {
        v.s += ph == "s";
        v.t += ph == "t";
        v.f += ph == "f";
      }
    }
    return v;
  }

  /// view_for once the server's hop has landed (see wait_until): its
  /// "server.request" span is there and the trace has at least `min_t`
  /// 't' steps.
  static TraceView view_after_server_hop(std::uint64_t id, int min_t) {
    TraceView v;
    wait_until([&] {
      v = view_for(id);
      return v.spans.count("server.request") == 1 && v.t >= min_t;
    });
    return v;
  }
};

TEST_F(NetTracingTest, SampledRoundTripLinksClientServerEngineSpans) {
  FakeClassifier clf;
  serve::InferenceEngine engine(clf, {.max_batch = 4});
  Server server(engine, {.workers = 1, .name = "srv"});
  Client client({.port = server.port(), .name = "cli"});

  const obs::TraceContext ctx = obs::start_trace();
  const CallResult r = client.predict_async(test_maps(1)[0], 0, ctx).get();
  ASSERT_EQ(r.status, Status::kOk);
  // Per-stage attribution rides back on every response, sampled or not.
  EXPECT_GT(r.server.total_us, 0u);
  EXPECT_GE(r.server.total_us,
            r.server.queue_us + r.server.batch_us + r.server.compute_us);

  const TraceView v = view_after_server_hop(ctx.trace_id, /*min_t=*/2);
  EXPECT_EQ(v.spans.count("client.call"), 1u);
  EXPECT_EQ(v.spans.count("server.request"), 1u);
  EXPECT_EQ(v.spans.count("engine.compute"), 1u);
  // The direct client is the origin hop: exactly one s/f pair, with the
  // server and engine contributing 't' steps in between.
  EXPECT_EQ(v.s, 1);
  EXPECT_EQ(v.f, 1);
  EXPECT_GE(v.t, 2);
}

TEST_F(NetTracingTest, ConcurrentSampledCallsKeepDistinctTraceIds) {
  FakeClassifier clf;
  serve::InferenceEngine engine(clf, {.max_batch = 8, .queue_capacity = 64});
  Server server(engine, {.workers = 2});
  Client client({.port = server.port()});

  const auto maps = test_maps(8);
  std::vector<obs::TraceContext> ctxs;
  std::vector<std::future<CallResult>> futs;
  for (const auto& map : maps) {
    ctxs.push_back(obs::start_trace());
    futs.push_back(client.predict_async(map, 0, ctxs.back()));
  }
  for (auto& f : futs) ASSERT_EQ(f.get().status, Status::kOk);

  std::set<std::uint64_t> ids;
  for (const auto& ctx : ctxs) {
    EXPECT_TRUE(ids.insert(ctx.trace_id).second);
    const TraceView v = view_after_server_hop(ctx.trace_id, /*min_t=*/2);
    // Every request's spans stay attributed to its own id, even when the
    // calls interleave inside one batch.
    EXPECT_EQ(v.spans.count("client.call"), 1u);
    EXPECT_EQ(v.spans.count("server.request"), 1u);
    EXPECT_EQ(v.s, 1);
    EXPECT_EQ(v.f, 1);
  }
}

TEST_F(NetTracingTest, MalformedRequestStillClosesItsSpan) {
  FakeClassifier clf;
  serve::InferenceEngine engine(clf, {.max_batch = 4});
  Server server(engine, {.workers = 1});

  // Hand-corrupt a traced request's wafer payload: the body fails decode,
  // but the trace context sits ahead of the wafer, so the MALFORMED
  // response must still close a "server.request" span under this id.
  const obs::TraceContext ctx = obs::start_trace();
  RequestFrame req;
  req.request_id = 7;
  req.trace = ctx;
  req.map = test_maps(1)[0];
  std::vector<std::uint8_t> bytes = encode_request(req);
  bytes[kHeaderBytes + 23] = 0xFF;  // invalid dies in the payload

  const int fd = connect_tcp("127.0.0.1", server.port(), 2000);
  ASSERT_TRUE(write_all(fd, bytes.data(), bytes.size()));
  std::vector<std::uint8_t> in;
  std::uint8_t buf[256];
  ParsedFrame frame;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    in.insert(in.end(), buf, buf + n);
    frame = try_parse_frame(in.data(), in.size());
    ASSERT_NE(frame.status, DecodeStatus::kBad);
    if (frame.status == DecodeStatus::kFrame) break;
  }
  ::close(fd);
  const ResponseFrame resp =
      decode_response_body(frame.request_id, frame.body, frame.body_len);
  EXPECT_EQ(resp.status, Status::kMalformed);
  EXPECT_GT(resp.timing.total_us, 0u);

  const TraceView v = view_after_server_hop(ctx.trace_id, /*min_t=*/1);
  EXPECT_EQ(v.spans.count("server.request"), 1u);
  EXPECT_EQ(v.t, 1);
}

TEST_F(NetTracingTest, TimedOutRequestStillClosesBothSpans) {
  FakeClassifier clf(/*gated=*/true);
  serve::InferenceEngine engine(clf, {.max_batch = 1});
  Server server(engine, {.workers = 1});
  Client client({.port = server.port()});

  const obs::TraceContext ctx = obs::start_trace();
  const CallResult r =
      client.predict_async(test_maps(1)[0], /*deadline_ms=*/30, ctx).get();
  EXPECT_EQ(r.status, Status::kTimeout);
  clf.release();

  // The engine is still grinding, but both hop spans around the timeout
  // are closed — no sampled call leaves an open span.
  const TraceView v = view_after_server_hop(ctx.trace_id, /*min_t=*/0);
  EXPECT_EQ(v.spans.count("client.call"), 1u);
  EXPECT_EQ(v.spans.count("server.request"), 1u);
  EXPECT_EQ(v.s, 1);
  EXPECT_EQ(v.f, 1);
}

TEST_F(NetTracingTest, UnsampledContextEmitsNoSpans) {
  FakeClassifier clf;
  serve::InferenceEngine engine(clf, {.max_batch = 4});
  Server server(engine, {.workers = 1});
  Client client({.port = server.port()});

  // sampled=false travels the wire but must not emit on either side.
  const obs::TraceContext ctx = obs::start_trace(/*sampled=*/false);
  const CallResult r = client.predict_async(test_maps(1)[0], 0, ctx).get();
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_GT(r.server.total_us, 0u);  // stage timing still rides back

  const TraceView v = view_for(ctx.trace_id);
  EXPECT_TRUE(v.spans.empty());
  EXPECT_EQ(v.s + v.t + v.f, 0);
}

}  // namespace
}  // namespace wm::net
