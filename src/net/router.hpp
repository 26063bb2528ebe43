// wm::net::Router — the horizontal serving tier: a client-side routing
// layer over N wm_net replicas with health-aware failover.
//
//   net::Router router({.replicas = {{.port = p0, .health_port = h0},
//                                    {.port = p1, .health_port = h1},
//                                    {.port = p2, .health_port = h2}}});
//   CallResult r = router.predict(map);            // sync
//   auto fut = router.predict_async(map, 50);      // async, deadline 50 ms
//
// One Router owns one net::Client per replica (each with its own IO thread,
// pipelining and seeded-jitter backoff reconnect) plus two threads of its
// own:
//
//   * the dispatcher assigns calls to replicas and harvests completions.
//     Replica selection is least-outstanding: the healthy replica with the
//     fewest in-flight calls, ties broken by index;
//   * the prober drives the health/eject state machine. A replica is
//     HEALTHY until eject_threshold consecutive transport failures eject
//     it; an EJECTED replica receives no traffic and rejoins only when its
//     /healthz endpoint (the PR 4 HTTP exporter, RouterOptions::health_port)
//     answers 200 again. Replicas without a health port fall back to a
//     timed rejoin after blind_rejoin_ms (optimistic re-probe by traffic).
//
// Failover: a call that fails with CONNECTION_ERROR is re-dispatched to
// another healthy replica (inference is idempotent; requests never written
// survive inside the Client anyway) up to max_attempts times, so a replica
// crash mid-run costs retries, not errors. When every replica is ejected,
// calls resolve immediately with the typed Status::kNoReplica — never a
// hang — and the prober keeps watching for a replica to come back.
//
// Observability (RouterOptions::registry): wm_router_requests_total,
// wm_router_retries_total, wm_router_ejects_total, wm_router_rejoins_total,
// wm_router_no_replica_total, wm_router_probe_total /
// wm_router_probe_fail_total (health-probe traffic), the
// wm_router_healthy_replicas gauge, the wm_stage_router_dispatch_us
// histogram (router accept to first replica dispatch), and a per-replica
// wm_router_replica<i>_latency_us histogram (dispatch-to-result as the
// router observes it) behind ReplicaStats.
//
// Distributed tracing: predict_async() accepts an obs::TraceContext; the
// router stamps its own hop id into parent_span before forwarding, so the
// per-replica client emits a 't' flow step (not a second 's'). A router
// handed a fresh context (parent_span == 0) is the outermost hop and
// itself emits the unique 's'/'f' pair bracketing the flow chain. Sampled
// calls emit a "router.request" span (accept -> promise fulfilled, every
// status incl. NO_REPLICA and close-time failures) and
// CallResult::attempts reports the failover dispatches the call consumed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "obs/metrics.hpp"

namespace wm::net {

struct ReplicaEndpoint {
  std::string host = "127.0.0.1";
  int port = 0;  // wm_net wire port (required)
  /// HTTP exporter port whose /healthz gates rejoin; 0 = no probing
  /// (ejected replicas rejoin after blind_rejoin_ms instead).
  int health_port = 0;
};

struct RouterOptions {
  std::vector<ReplicaEndpoint> replicas;  // at least one

  /// Consecutive transport errors before a replica is ejected.
  int eject_threshold = 1;
  /// Transparent re-dispatches of a CONNECTION_ERROR call; <= 0 defaults
  /// to replicas.size() - 1 (one try per other replica).
  int max_attempts = 0;
  /// /healthz probe period for ejected replicas.
  int health_interval_ms = 100;
  /// Per-probe connect/read budget.
  int health_timeout_ms = 500;
  /// Rejoin delay for replicas without a health_port.
  int blind_rejoin_ms = 1000;
  /// Where the wm_router_* instruments live. nullptr = a router-private
  /// registry.
  obs::Registry* registry = nullptr;
  /// Trace track label for the dispatcher thread ("<name>.dispatch").
  std::string name = "router";
  /// Template for the per-replica clients (host/port are overwritten; the
  /// backoff knobs and timeouts apply to every replica connection).
  ClientOptions client;
};

class Router {
 public:
  explicit Router(const RouterOptions& opts);

  /// Fails outstanding calls with kConnectionError and joins all threads.
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Routes one request. Resolves with the replica's response, with
  /// kConnectionError after max_attempts transport failures, or with
  /// kNoReplica when no healthy replica exists at dispatch time. The traced
  /// overload forwards the context to the chosen replica (see the header
  /// comment).
  std::future<CallResult> predict_async(const WaferMap& map,
                                        std::uint32_t deadline_ms = 0);
  std::future<CallResult> predict_async(const WaferMap& map,
                                        std::uint32_t deadline_ms,
                                        obs::TraceContext trace);

  /// Blocking convenience: predict_async + wait.
  CallResult predict(const WaferMap& map, std::uint32_t deadline_ms = 0);

  /// Fails outstanding calls, stops the dispatcher/prober, closes every
  /// client. Idempotent.
  void close();

  /// Point-in-time view of one replica's health and counters.
  struct ReplicaStats {
    int index = 0;
    std::string host;
    int port = 0;
    bool healthy = true;
    std::size_t outstanding = 0;   // calls dispatched, result not harvested
    std::uint64_t dispatched = 0;  // calls sent (including re-dispatches)
    std::uint64_t ok = 0;
    std::uint64_t transport_errors = 0;
    std::uint64_t ejects = 0;
    std::uint64_t rejoins = 0;
    obs::HistogramSnapshot latency;  // dispatch-to-harvest, us
  };
  std::vector<ReplicaStats> stats() const;

  std::size_t healthy_count() const;
  std::size_t replica_count() const { return replicas_.size(); }

  /// Calls answered kNoReplica so far.
  std::uint64_t no_replica() const { return no_replica_total_.value(); }
  /// Transparent failover re-dispatches so far.
  std::uint64_t retries() const { return retries_total_.value(); }

  const RouterOptions& options() const { return opts_; }
  obs::Registry& metrics_registry() const { return metrics_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One routed call, from submission to promise fulfilment.
  struct Call {
    WaferMap map{3};
    std::uint32_t deadline_ms = 0;
    int attempts = 0;  // dispatches so far
    obs::TraceContext trace{};
    std::int64_t submit_ns = 0;  // obs::trace_clock_ns() at predict_async
    std::promise<CallResult> promise;
  };

  /// A call currently waiting on some replica's client future.
  struct Inflight {
    std::unique_ptr<Call> call;
    std::size_t replica = 0;
    Clock::time_point dispatched;
    std::future<CallResult> future;
  };

  struct Replica {
    ReplicaEndpoint endpoint;
    std::unique_ptr<Client> client;
    bool healthy = true;
    int consecutive_errors = 0;
    std::size_t outstanding = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t ok = 0;
    std::uint64_t transport_errors = 0;
    std::uint64_t ejects = 0;
    std::uint64_t rejoins = 0;
    Clock::time_point ejected_at{};
    obs::Histogram* latency = nullptr;  // owned by the registry
  };

  void dispatcher_loop();
  void prober_loop();
  /// Picks the healthy replica with the fewest calls in flight; returns
  /// replicas_.size() when none is healthy. Caller holds mutex_.
  std::size_t pick_replica_locked();
  /// Sends `call` to a replica or fails its promise (kNoReplica). Caller
  /// holds mutex_.
  void dispatch_locked(std::unique_ptr<Call> call);
  void note_error_locked(std::size_t idx);
  void note_ok_locked(std::size_t idx);
  std::size_t healthy_count_locked() const;
  /// Fulfils a call's promise: stamps CallResult::attempts, closes the
  /// "router.request" span (every status), sets the value.
  void finish_call(Call& call, CallResult result);

  const RouterOptions opts_;
  const int max_attempts_;

  mutable obs::Registry own_metrics_;
  obs::Registry& metrics_;
  obs::Counter& requests_total_;
  obs::Counter& retries_total_;
  obs::Counter& ejects_total_;
  obs::Counter& rejoins_total_;
  obs::Counter& no_replica_total_;
  obs::Counter& probe_total_;
  obs::Counter& probe_fail_total_;
  obs::Gauge& healthy_gauge_;
  obs::Histogram& dispatch_hist_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;  // wakes dispatcher (new call / close)
  std::deque<std::unique_ptr<Call>> queue_;
  std::vector<Inflight> inflight_;
  std::vector<Replica> replicas_;
  bool stopping_ = false;

  std::mutex join_mutex_;  // serialises close()
  std::thread prober_;
  std::thread dispatcher_;  // started last
};

/// Blocking GET /healthz against host:port; true only for an HTTP 200.
/// False on connect/IO failure or any other status — never throws.
bool probe_healthz(const std::string& host, int port, int timeout_ms);

}  // namespace wm::net
