// Remote serving demo: a wm_net server and client in one process, driving
// every corner of the wire protocol and verifying each one.
//
// The demo trains a small selective CNN, calibrates its abstention
// threshold, exposes it through InferenceEngine + net::Server on a loopback
// TCP port, and then runs five scenarios:
//
//   1  fidelity   mixed good/abstain traffic over TCP; every remote
//                 prediction must BIT-match the in-process predict_batch
//                 result (the wire carries raw IEEE-754 bits);
//   2  deadline   a deliberately slow engine (long batch window) answers a
//                 deadline_ms=50 call with TIMEOUT — expired, not dropped;
//   3  shedding   a burst into a tiny engine queue: the overflow is
//                 answered OVERLOADED immediately (load shedding);
//   4  malformed  a raw socket sends garbage (connection must be closed)
//                 and a well-framed request with a corrupt body (MALFORMED
//                 response, connection survives) — the server keeps
//                 answering good traffic afterwards;
//   5  drain      a burst of async calls, then Server::stop() as soon as
//                 the last one is received: every accepted request must
//                 still be answered OK (graceful drain, zero losses).
//
// The SelectiveMonitor attached to the engine must also have observed every
// remote prediction (remote traffic is monitored exactly like local).
// Exit code is non-zero unless every scenario behaves — CI runs this binary
// as the remote-serving smoke test.
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket_util.hpp"
#include "net/wire.hpp"
#include "selective/calibrate.hpp"
#include "selective/load_classifier.hpp"
#include "selective/trainer.hpp"
#include "serve/inference_engine.hpp"
#include "serve/monitor.hpp"
#include "wafermap/synth/generator.hpp"

using namespace wm;

namespace {

bool check(bool ok, const char* what) {
  std::printf("  %-58s %s\n", what, ok ? "ok" : "FAILED");
  return ok;
}

/// Reads frames off a raw socket until one complete response arrives,
/// the peer closes, or the deadline passes. Returns true and fills `resp`
/// on success.
bool read_response_raw(int fd, net::ResponseFrame& resp, bool& closed) {
  std::vector<std::uint8_t> in;
  std::uint8_t buf[4096];
  closed = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      closed = true;
      return false;
    }
    if (n < 0) return false;
    in.insert(in.end(), buf, buf + n);
    const net::ParsedFrame frame = net::try_parse_frame(in.data(), in.size());
    if (frame.status == net::DecodeStatus::kBad) return false;
    if (frame.status == net::DecodeStatus::kFrame) {
      resp = net::decode_response_body(frame.request_id, frame.body,
                                       frame.body_len);
      return true;
    }
  }
  return false;
}

}  // namespace

int main() {
  // 1. Train a small selective net so abstentions actually occur.
  Rng rng(17);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts.fill(24);
  Dataset data = synth::generate_dataset(spec, rng);
  data.shuffle(rng);
  const auto [train, pool] = data.stratified_split(0.7, rng);

  selective::SelectiveNet net_model({.map_size = 16, .num_classes = 9,
                                     .conv1_filters = 8, .conv2_filters = 8,
                                     .conv3_filters = 8, .fc_units = 32,
                                     .use_batchnorm = true},
                                    rng);
  selective::SelectiveTrainer trainer({.epochs = 3, .batch_size = 32,
                                       .learning_rate = 2e-3,
                                       .target_coverage = 0.7});
  trainer.train(net_model, train, nullptr, rng);
  const float tau = selective::calibrate_threshold(net_model, pool, 0.7);
  const auto predictor = load_classifier(net_model, {.threshold = tau});
  std::printf("trained 16x16 selective net, tau=%.4f\n", tau);

  std::vector<WaferMap> traffic;
  for (std::size_t i = 0; i < pool.size(); ++i) traffic.push_back(pool[i].map);

  // The main serving stack: fast engine + monitor + server.
  serve::MonitorOptions mopts;
  mopts.target_coverage = 0.7;
  serve::SelectiveMonitor monitor(mopts);
  serve::InferenceEngine engine(*predictor, {.max_batch = 16,
                                            .max_delay_us = 1000,
                                            .queue_capacity = 128,
                                            .monitor = &monitor});
  net::Server server(engine, {.workers = 2});
  net::Client client({.port = server.port()});
  std::printf("wm_net server on tcp://127.0.0.1:%d\n\n", server.port());

  bool all_ok = true;

  // Scenario 1: remote results bit-match the in-process classifier.
  {
    std::printf("scenario 1: round-trip fidelity\n");
    const std::size_t n = std::min<std::size_t>(traffic.size(), 64);
    const std::vector<WaferMap> slice(traffic.begin(),
                                      traffic.begin() +
                                          static_cast<std::ptrdiff_t>(n));
    const auto direct = predictor->predict_batch(slice);
    bool bits_match = true;
    std::size_t selected = 0;
    std::size_t abstained = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const net::CallResult r = client.predict(slice[i]);
      if (!r.ok()) {
        bits_match = false;
        break;
      }
      (r.prediction.selected ? selected : abstained) += 1;
      const bool match =
          r.prediction.label == direct[i].label &&
          r.prediction.selected == direct[i].selected &&
          std::memcmp(&r.prediction.g, &direct[i].g, sizeof(float)) == 0 &&
          std::memcmp(&r.prediction.confidence, &direct[i].confidence,
                      sizeof(float)) == 0;
      bits_match = bits_match && match;
    }
    std::printf("  %zu remote calls: %zu selected, %zu abstained\n", n,
                selected, abstained);
    all_ok &= check(bits_match, "remote predictions bit-match in-process");
    all_ok &= check(abstained > 0, "traffic mix exercises abstention");
  }

  // Scenario 2: a deadline that cannot be met is answered TIMEOUT. The slow
  // engine holds its batch window open for 2 s, far past the 50 ms budget.
  {
    std::printf("scenario 2: deadline enforcement\n");
    serve::InferenceEngine slow_engine(*predictor, {.max_batch = 64,
                                                   .max_delay_us = 2'000'000,
                                                   .queue_capacity = 4});
    net::Server slow_server(slow_engine, {.workers = 1});
    net::Client slow_client({.port = slow_server.port()});
    const auto t0 = std::chrono::steady_clock::now();
    const net::CallResult r = slow_client.predict(traffic[0],
                                                  /*deadline_ms=*/50);
    const auto waited_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("  status %s after %lld ms\n", net::to_string(r.status),
                static_cast<long long>(waited_ms));
    all_ok &= check(r.status == net::Status::kTimeout,
                    "deadline_ms=50 answered TIMEOUT");
    all_ok &= check(waited_ms < 1000, "TIMEOUT arrived near the deadline");

    // Scenario 3 rides the same slow stack: its queue holds 4, the batch
    // window keeps them queued, so a burst of 12 must shed the overflow.
    std::printf("scenario 3: load shedding\n");
    std::vector<std::future<net::CallResult>> burst;
    for (int i = 0; i < 12; ++i) {
      burst.push_back(slow_client.predict_async(traffic[0]));
    }
    std::size_t overloaded = 0;
    std::size_t accepted = 0;
    for (auto& fut : burst) {
      const net::CallResult br = fut.get();
      if (br.status == net::Status::kOverloaded) ++overloaded;
      if (br.status == net::Status::kOk) ++accepted;
    }
    std::printf("  burst of 12 into queue of 4: %zu shed, %zu served\n",
                overloaded, accepted);
    all_ok &= check(overloaded > 0, "queue overflow answered OVERLOADED");
    all_ok &= check(slow_server.shed() == overloaded,
                    "wm_net_shed_total counts every shed request");
    slow_client.close();
    slow_server.stop();
    slow_engine.shutdown();
  }

  // Scenario 4: malformed input never kills the server.
  {
    std::printf("scenario 4: malformed frames\n");

    // 4a. Garbage at the framing layer: the connection must be closed.
    int fd = net::connect_tcp("127.0.0.1", server.port(), 2000);
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    (void)net::write_all(fd, reinterpret_cast<const std::uint8_t*>(garbage),
                         sizeof(garbage) - 1);
    net::ResponseFrame resp;
    bool closed = false;
    const bool got_frame = read_response_raw(fd, resp, closed);
    ::close(fd);
    all_ok &= check(!got_frame && closed,
                    "garbage bytes close the connection");

    // 4b. A well-framed request whose body is corrupt: MALFORMED response,
    // and the same connection then serves a good request.
    fd = net::connect_tcp("127.0.0.1", server.port(), 2000);
    net::RequestFrame req;
    req.request_id = 77;
    req.map = traffic[0];
    std::vector<std::uint8_t> bytes = net::encode_request(req);
    // The body's u16 map_size follows deadline (4 bytes) and the trace
    // context (8 + 8 + 1): set it to 0x3FF (> kMaxWireMapSize).
    bytes[net::kHeaderBytes + 21] = 0xFF;
    bytes[net::kHeaderBytes + 22] = 0x03;
    (void)net::write_all(fd, bytes.data(), bytes.size());
    const bool got_malformed = read_response_raw(fd, resp, closed) &&
                               resp.request_id == 77 &&
                               resp.status == net::Status::kMalformed;
    all_ok &= check(got_malformed, "corrupt body answered MALFORMED");

    req.request_id = 78;
    bytes = net::encode_request(req);
    (void)net::write_all(fd, bytes.data(), bytes.size());
    const bool conn_survived = read_response_raw(fd, resp, closed) &&
                               resp.request_id == 78 &&
                               resp.status == net::Status::kOk;
    ::close(fd);
    all_ok &= check(conn_survived,
                    "connection survives and serves the next request");

    // The main stack is still healthy for regular clients.
    all_ok &= check(client.predict(traffic[0]).ok(),
                    "server still serves good traffic");
  }

  // Scenario 5: graceful drain — stop() while a burst is in flight; every
  // accepted request is still answered.
  {
    std::printf("scenario 5: graceful drain\n");
    const std::uint64_t before = server.requests_received();
    const std::size_t burst_n = 48;
    std::vector<std::future<net::CallResult>> burst;
    for (std::size_t i = 0; i < burst_n; ++i) {
      burst.push_back(client.predict_async(traffic[i % traffic.size()]));
    }
    // Wait until the server has *received* the whole burst, then stop it
    // mid-flight: drain-then-stop must answer everything already accepted.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.requests_received() < before + burst_n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const bool all_received = server.requests_received() >= before + burst_n;
    server.stop();
    std::size_t answered_ok = 0;
    for (auto& fut : burst) {
      if (fut.get().status == net::Status::kOk) ++answered_ok;
    }
    std::printf("  stop() with %zu in flight: %zu answered OK\n", burst_n,
                answered_ok);
    all_ok &= check(all_received, "server received the full burst");
    all_ok &= check(answered_ok == burst_n,
                    "drain answered every accepted request (zero lost)");
  }

  client.close();
  server.stop();
  engine.shutdown();

  // Remote traffic must have flowed through the SelectiveMonitor.
  const serve::MonitorSnapshot snap = monitor.snapshot();
  std::printf("\nmonitor saw %llu predictions (coverage %.2f)\n",
              static_cast<unsigned long long>(snap.observations),
              snap.coverage);
  all_ok &= check(snap.observations >= 64,
                  "SelectiveMonitor observed the remote traffic");

  if (!all_ok) {
    std::fprintf(stderr, "\nFAILED: at least one scenario misbehaved\n");
    return 1;
  }
  std::printf("\nall scenarios behaved — demo passed\n");
  return 0;
}
