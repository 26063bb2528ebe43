// wm::net::Client — the caller side of the wm_net wire protocol.
//
// One Client owns one TCP connection plus a background IO thread, and
// multiplexes any number of in-flight calls over it (request pipelining:
// every frame carries a request id, responses may arrive out of order).
//
//   net::Client client({.port = server.port()});
//   CallResult r = client.predict(map);                  // sync
//   auto fut = client.predict_async(map, /*deadline_ms=*/50);  // async
//   if (fut.get().status == net::Status::kTimeout) ...
//
// Every call resolves with a typed CallResult — the server's wire status
// (OK / TIMEOUT / OVERLOADED / MALFORMED / SHUTTING_DOWN / INTERNAL_ERROR)
// or the client-side kConnectionError when the transport failed — never an
// exception for remote-side conditions.
//
// Connection management: the IO thread connects lazily, when it holds
// calls to send and has no connection, and dials once. A failed dial fails
// every queued call with kConnectionError at once and leaves the client
// idle; the next call dials again. Calls that were never written survive a
// broken connection and go out on the next dial; calls already on the wire
// when it broke fail with kConnectionError (the server may or may not have
// processed them — inference is idempotent, callers can simply retry). The
// client never re-dials on its own and never sleeps on a timer, so every
// dial either fails the calls it holds or writes them: a listener that
// accepts and drops at once costs one dial per call, never a loop. Retry
// policy belongs to the caller; behind a net::Router it is the router's
// failover and its /healthz-gated rejoin.
//
// Distributed tracing: predict_async() takes an optional obs::TraceContext
// that rides the WMWP v2 request to the server. Sampled calls emit a
// "client.call" span (enqueue -> completion, tagged with the trace id)
// bracketing the whole round trip, plus the 's' flow event that starts the
// request's cross-process arrow chain and the 'f' event that ends it. The
// span is emitted on EVERY completion path — response, disconnect,
// failed connect, close() — so no sampled call ever leaves an open span.
// Every CallResult carries the server's per-stage StageTiming verbatim.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket_util.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "wafermap/wafer_map.hpp"

namespace wm::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // required
  /// Connect and socket IO budget.
  int io_timeout_ms = 5000;
  /// Optional home for the wm_stage_client_e2e_us histogram (enqueue to
  /// completion, all statuses). nullptr = no client-side stage metric.
  obs::Registry* registry = nullptr;
  /// Trace track label for the IO thread ("<name>.io").
  std::string name = "client";
};

/// Outcome of one remote call.
struct CallResult {
  Status status = Status::kConnectionError;
  SelectivePrediction prediction{};  // valid only when status == kOk
  /// Server-side per-stage latency attribution, echoed off the response
  /// frame (zeros when the call never completed remotely).
  StageTiming server{};
  /// Dispatch attempts consumed: 1 for a direct client call; the router
  /// overwrites this with its failover attempt count.
  int attempts = 1;

  bool ok() const { return status == Status::kOk; }
};

class Client {
 public:
  /// Starts the IO thread; does NOT connect yet (the first call does).
  explicit Client(const ClientOptions& opts);

  /// Fails outstanding calls with kConnectionError and joins the IO thread.
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Enqueues one request. deadline_ms > 0 asks the server to answer
  /// TIMEOUT when the engine cannot produce a result within that budget
  /// (measured from server receipt); 0 = no deadline. The traced overload
  /// attaches a distributed-trace context carried to the server on the
  /// wire (see the header comment).
  ///
  /// `on_done`, when set, runs right after the returned future becomes
  /// ready, on every completion path, with the result the future holds. It
  /// runs without this client's mutex held — on the IO thread, or inside
  /// predict_async itself once the client is closed — so it may call back
  /// into this client or into another one; it must not throw or block.
  std::future<CallResult> predict_async(const WaferMap& map,
                                        std::uint32_t deadline_ms = 0);
  std::future<CallResult> predict_async(
      const WaferMap& map, std::uint32_t deadline_ms, obs::TraceContext trace,
      std::function<void(const CallResult&)> on_done = {});

  /// Blocking convenience: predict_async + wait.
  CallResult predict(const WaferMap& map, std::uint32_t deadline_ms = 0);

  /// Fails every outstanding call with kConnectionError, closes the
  /// connection, joins the IO thread. Idempotent; calls after close()
  /// resolve immediately with kConnectionError.
  void close();

  /// True while a TCP connection is established.
  bool connected() const { return connected_.load(); }

  /// Successful connections beyond the first (i.e. reconnects).
  std::uint64_t reconnects() const { return reconnects_.load(); }

  /// Calls written to the wire and still awaiting a response.
  std::size_t inflight() const;

  const ClientOptions& options() const { return opts_; }

 private:
  struct Unsent {
    std::uint64_t id = 0;
    std::vector<std::uint8_t> bytes;
  };

  /// One call awaiting its result: the promise plus what the completion
  /// paths need to close the call's span and run its hook.
  struct PendingCall {
    std::promise<CallResult> promise;
    std::int64_t enqueue_ns = 0;  // obs::trace_clock_ns() at predict_async
    obs::TraceContext trace{};
    std::function<void(const CallResult&)> on_done;
  };
  using PendingCalls = std::map<std::uint64_t, PendingCall>;  // by id

  void io_loop();
  /// Dials once; on failure fails every queued call and returns false.
  bool connect();
  // The failure paths take calls off promises_ under mutex_ and complete
  // them after releasing it, so no hook ever runs under the lock.
  /// Drops the connection and fails the calls already written to it.
  void disconnect();
  /// Fails every call, queued or on the wire.
  void fail_all();
  void fail_calls(PendingCalls& calls);  // with kConnectionError
  /// Fulfils one call: span + flow + stage histogram + promise + hook.
  void complete_call(PendingCall& pc, const CallResult& result);

  const ClientOptions opts_;

  mutable std::mutex mutex_;
  std::deque<Unsent> unsent_;
  PendingCalls promises_;
  std::uint64_t next_id_ = 1;
  bool stopping_ = false;

  int fd_ = -1;  // owned by the IO thread once it starts
  std::vector<std::uint8_t> in_;
  std::atomic<bool> connected_{false};
  std::atomic<std::uint64_t> reconnects_{0};
  bool ever_connected_ = false;  // IO thread only
  obs::Histogram* e2e_hist_ = nullptr;  // set iff opts_.registry != nullptr

  WakePipe wake_;
  std::mutex join_mutex_;
  std::thread io_;  // started last
};

}  // namespace wm::net
