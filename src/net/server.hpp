// wm::net::Server — the TCP front-end that exposes an InferenceEngine (and
// through it, any wm::Classifier) to remote clients over the wm_net wire
// protocol (net/wire.hpp).
//
// Thread model: one accept thread (poll on {listen fd, wake pipe}) hands
// each new connection to a worker chosen round-robin; every worker runs a
// poll loop over its own connections, so a stalled or malicious client
// only ever occupies its socket, never a thread. A worker sleeps until a
// socket is readable, the engine completes one of its requests, or the
// earliest pending deadline passes — no fixed tick: each request goes to
// try_submit() with a completion hook that writes the worker's wake pipe.
// The hook shares ownership of that pipe, because a request abandoned on
// TIMEOUT can complete after the server is destroyed. Workers parse frames
// incrementally, answer pipelined requests out of order (responses carry
// the request id), and never block on the engine:
//
//   * requests are submitted with InferenceEngine::try_submit(); when the
//     engine queue is full the request is answered OVERLOADED immediately
//     (load shedding — the wm_net_shed_total counter and the engine's own
//     wm_serve_shed_total both record it) instead of stalling the worker;
//   * a request's relative deadline_ms starts counting at receipt; when it
//     expires before the engine answers, the worker responds TIMEOUT and
//     abandons the engine future — expired requests are answered, never
//     silently dropped;
//   * header-level framing violations (bad magic/version/type, oversized
//     length prefix) close the connection — the stream can no longer be
//     trusted; a well-framed request whose *body* fails validation gets a
//     MALFORMED response and the connection lives on.
//
// Shutdown is drain-then-stop, tied to the engine's own drain: stop()
// closes the listener, lets every worker finish the requests it already
// submitted (waiting on the engine futures), flushes those responses, then
// closes connections and joins. Zero accepted requests are lost; stop the
// server *before* shutting the engine down.
//
// Observability (instruments live in ServerOptions::registry, default the
// engine's registry): wm_net_connections / wm_net_connections_total,
// wm_net_inflight, wm_net_requests_total, wm_net_responses_total,
// wm_net_shed_total, wm_net_timeout_total, wm_net_malformed_total, and the
// wm_net_request_latency_us histogram (receipt to response written); each
// request decode+submit runs under a "net.request" trace span. Drift
// monitoring needs no extra wiring: remote traffic flows through the
// engine, so an EngineOptions::monitor sees every remote prediction.
//
// Distributed tracing (WMWP v2): every request's TraceContext is peeked off
// the body before full decode — even a MALFORMED body keeps its trace — and
// forwarded into the engine; every response carries a StageTiming
// (total always; engine queue/batch/compute when the result is OK) so
// clients attribute latency per stage without sampling. Sampled requests
// additionally emit a "server.request" span (tagged with the trace id,
// with a 't' flow step binding it into the cross-process flow chain).
// Per-stage histograms: wm_stage_server_parse_us, wm_stage_server_write_us.
// Worker threads label their trace tracks "<name>.worker<i>" so a merged
// fleet trace reads role-first.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket_util.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "serve/inference_engine.hpp"

namespace wm::net {

struct ServerOptions {
  /// TCP port; 0 binds an ephemeral port (see port()).
  int port = 0;
  /// Listen address; the default accepts only loopback connections.
  std::string bind_address = "127.0.0.1";
  /// Kernel accept backlog (serve::ServerConfig fills it from
  /// WM_SERVE_BACKLOG).
  int backlog = 64;
  /// Connection-handling worker threads.
  int workers = 2;
  /// Per-socket send/receive timeout.
  int io_timeout_ms = 5000;
  /// Where the wm_net_* instruments live. nullptr = the engine's registry,
  /// so one scrape covers the whole serving stack.
  obs::Registry* registry = nullptr;
  /// Role label for trace exports: worker threads appear as
  /// "<name>.worker<i>" tracks. Fleet launchers set "replica0", "replica1"
  /// ... so merged traces identify the serving process at a glance.
  std::string name = "server";
};

class Server {
 public:
  /// Binds, listens, and starts the accept + worker threads; throws
  /// wm::IoError when the listener cannot be created. The engine must
  /// outlive the server and must not be shut down before Server::stop().
  Server(serve::InferenceEngine& engine, const ServerOptions& opts = {});

  /// Drains and stops (see stop()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Stops accepting, answers every request already read off a socket
  /// (waiting on the engine), closes all connections, joins all threads.
  /// Idempotent.
  void stop();

  /// False once stop() has begun.
  bool running() const;

  /// The bound TCP port (resolves the ephemeral port when opts.port == 0).
  int port() const { return port_; }

  /// Well-formed requests read off sockets so far (including ones answered
  /// TIMEOUT/OVERLOADED).
  std::uint64_t requests_received() const;
  /// Responses written so far (every received request ends up here).
  std::uint64_t responses_sent() const;
  /// Requests answered OVERLOADED because the engine queue was full.
  std::uint64_t shed() const;
  /// Requests answered TIMEOUT.
  std::uint64_t timeouts() const;

  const ServerOptions& options() const { return opts_; }

  /// The registry holding the wm_net_* instruments.
  obs::Registry& metrics_registry() const { return metrics_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One accepted request whose engine future is still outstanding.
  struct Pending {
    std::uint64_t id = 0;
    Clock::time_point received;
    std::int64_t received_ns = 0;  // obs::trace_clock_ns() at receipt
    Clock::time_point deadline;    // only meaningful when has_deadline
    bool has_deadline = false;
    obs::TraceContext trace{};
    /// Engine per-stage timestamps; shared because a TIMEOUT abandons the
    /// future while the engine still writes these later.
    std::shared_ptr<serve::RequestTiming> timing;
    std::future<SelectivePrediction> future;
  };

  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> in;  // unparsed bytes
    std::deque<Pending> pending;
    bool dead = false;  // close as soon as pending is empty
  };

  /// A worker thread plus the state it polls over.
  struct Worker {
    int index = 0;  // for the trace thread label
    std::thread thread;
    /// Shared with every completion hook still queued in the engine.
    std::shared_ptr<WakePipe> wake = std::make_shared<WakePipe>();
    std::mutex inbox_mutex;
    std::vector<int> inbox;  // fds accepted but not yet adopted
    std::deque<Conn> conns;  // deque: grows without relocating live Conns
  };

  void accept_loop();
  void worker_loop(Worker& w);
  /// Parses and handles every complete frame in c.in, submitting requests
  /// with the worker's completion hook `on_done`; returns false when the
  /// connection must be closed (framing violation or write failure).
  bool handle_input(Conn& c, const std::function<void()>& on_done);
  /// Answers ready/expired pending requests; `drain` waits for every
  /// future. Returns false on write failure.
  bool flush_pending(Conn& c, bool drain);
  bool send_response(Conn& c, const Pending& p, Status status,
                     const SelectivePrediction& pred);

  serve::InferenceEngine& engine_;
  const ServerOptions opts_;

  obs::Registry& metrics_;
  obs::Counter& connections_total_;
  obs::Counter& requests_total_;
  obs::Counter& responses_total_;
  obs::Counter& shed_total_;
  obs::Counter& timeout_total_;
  obs::Counter& malformed_total_;
  obs::Gauge& connections_gauge_;
  obs::Gauge& inflight_gauge_;
  obs::Histogram& latency_hist_;
  obs::Histogram& parse_hist_;
  obs::Histogram& write_hist_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::int64_t> inflight_{0};
  WakePipe accept_wake_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t next_worker_ = 0;
  std::mutex join_mutex_;  // serialises stop()
  std::thread acceptor_;   // started last: everything above is initialised
};

}  // namespace wm::net
