#include "net/router.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"

namespace wm::net {

namespace {

/// Dispatcher/prober tick. The dispatcher polls its in-flight client
/// futures (std::future has no completion callback) at the same cadence the
/// server-side poll loop already uses; 1 ms bounds the added latency well
/// below the engine's batching delay.
constexpr int kTickMs = 1;

}  // namespace

bool probe_healthz(const std::string& host, int port, int timeout_ms) {
  int fd = -1;
  try {
    fd = connect_tcp(host, port, timeout_ms);
  } catch (const Error&) {
    return false;
  }
  const std::string req =
      "GET /healthz HTTP/1.1\r\nHost: " + host + "\r\nConnection: close\r\n\r\n";
  bool ok = false;
  if (write_all(fd, req)) {
    // Only the status line matters; the exporter answers "HTTP/1.1 200 OK".
    char buf[64];
    std::size_t got = 0;
    while (got < sizeof(buf) - 1) {
      const ssize_t n = ::read(fd, buf + got, sizeof(buf) - 1 - got);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
      if (std::memchr(buf, '\n', got) != nullptr) break;
    }
    buf[got] = '\0';
    ok = std::strncmp(buf, "HTTP/1.1 200", 12) == 0 ||
         std::strncmp(buf, "HTTP/1.0 200", 12) == 0;
  }
  ::close(fd);
  return ok;
}

Router::Router(const RouterOptions& opts)
    : opts_(opts),
      max_attempts_(opts.max_attempts > 0
                        ? opts.max_attempts
                        : std::max<int>(1, static_cast<int>(
                                               opts.replicas.size()))),
      metrics_(opts.registry != nullptr ? *opts.registry : own_metrics_),
      requests_total_(metrics_.counter("wm_router_requests_total",
                                       "calls accepted by the router")),
      retries_total_(metrics_.counter("wm_router_retries_total",
                                      "transparent failover re-dispatches")),
      ejects_total_(metrics_.counter("wm_router_ejects_total",
                                     "replica eject events")),
      rejoins_total_(metrics_.counter("wm_router_rejoins_total",
                                      "replica rejoin events")),
      no_replica_total_(metrics_.counter(
          "wm_router_no_replica_total",
          "calls failed because every replica was ejected")),
      probe_total_(metrics_.counter("wm_router_probe_total",
                                    "/healthz probes issued")),
      probe_fail_total_(metrics_.counter("wm_router_probe_fail_total",
                                         "/healthz probes that failed")),
      healthy_gauge_(metrics_.gauge("wm_router_healthy_replicas",
                                    "replicas currently accepting traffic")),
      dispatch_hist_(metrics_.histogram(
          "wm_stage_router_dispatch_us", obs::Histogram::latency_bounds_us(),
          "us", "router accept to first replica dispatch")) {
  WM_CHECK(!opts_.replicas.empty(), "router: no replicas configured");
  WM_CHECK(opts_.eject_threshold >= 1, "router: eject_threshold must be >= 1");
  replicas_.reserve(opts_.replicas.size());
  for (std::size_t i = 0; i < opts_.replicas.size(); ++i) {
    const ReplicaEndpoint& ep = opts_.replicas[i];
    WM_CHECK(ep.port > 0, "router: replica " + std::to_string(i) +
                              " has no port");
    ClientOptions copts = opts_.client;
    copts.host = ep.host;
    copts.port = ep.port;
    // Decorrelate the per-replica reconnect jitter streams.
    copts.backoff_seed = opts_.client.backoff_seed + i;
    Replica r;
    r.endpoint = ep;
    r.client = std::make_unique<Client>(copts);
    r.latency = &metrics_.histogram(
        "wm_router_replica" + std::to_string(i) + "_latency_us",
        obs::Histogram::latency_bounds_us(), "us",
        "router-observed dispatch-to-result latency, replica " +
            std::to_string(i));
    replicas_.push_back(std::move(r));
  }
  healthy_gauge_.set(static_cast<double>(replicas_.size()));
  prober_ = std::thread([this] { prober_loop(); });
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Router::~Router() { close(); }

std::future<CallResult> Router::predict_async(const WaferMap& map,
                                              std::uint32_t deadline_ms) {
  return predict_async(map, deadline_ms, obs::TraceContext{});
}

std::future<CallResult> Router::predict_async(const WaferMap& map,
                                              std::uint32_t deadline_ms,
                                              obs::TraceContext trace) {
  auto call = std::make_unique<Call>();
  call->map = map;
  call->deadline_ms = deadline_ms;
  call->trace = trace;
  call->submit_ns = obs::trace_clock_ns();
  std::future<CallResult> fut = call->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      finish_call(*call, {.status = Status::kConnectionError});
      return fut;
    }
    requests_total_.inc();
    queue_.push_back(std::move(call));
  }
  cv_.notify_all();
  return fut;
}

CallResult Router::predict(const WaferMap& map, std::uint32_t deadline_ms) {
  return predict_async(map, deadline_ms).get();
}

void Router::close() {
  std::lock_guard<std::mutex> join_lock(join_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  if (prober_.joinable()) prober_.join();
  // The dispatcher exits with queue_/inflight_ already failed; closing the
  // clients after it is gone needs no lock.
  for (Replica& r : replicas_) r.client->close();
}

std::size_t Router::pick_replica_locked() {
  const std::size_t n = replicas_.size();
  // Least-outstanding: full scan (replica counts are small), ties broken by
  // index so the choice is deterministic.
  std::size_t best = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (!replicas_[i].healthy) continue;
    if (best == n || replicas_[i].outstanding < replicas_[best].outstanding) {
      best = i;
    }
  }
  return best;
}

void Router::dispatch_locked(std::unique_ptr<Call> call) {
  const std::size_t idx = pick_replica_locked();
  if (idx == replicas_.size()) {
    no_replica_total_.inc();
    finish_call(*call, {.status = Status::kNoReplica});
    return;
  }
  Replica& r = replicas_[idx];
  if (call->attempts > 0) retries_total_.inc();
  call->attempts += 1;
  if (call->attempts == 1) {
    dispatch_hist_.record(
        std::max<std::int64_t>(0, obs::trace_clock_ns() - call->submit_ns) /
        1000);
  }
  r.outstanding += 1;
  r.dispatched += 1;
  // The router is a hop, not the origin: stamping its own hop id into
  // parent_span tells the replica client to emit a 't' flow step instead
  // of a second 's'/'f' pair (the origin keeps the only s/f).
  obs::TraceContext fwd = call->trace;
  if (fwd.trace_id != 0 && fwd.parent_span == 0) {
    fwd.parent_span = obs::new_trace_id();
  }
  Inflight inf;
  inf.replica = idx;
  inf.dispatched = Clock::now();
  inf.future = r.client->predict_async(call->map, call->deadline_ms, fwd);
  inf.call = std::move(call);
  inflight_.push_back(std::move(inf));
}

void Router::finish_call(Call& call, CallResult result) {
  result.attempts = call.attempts;
  if (call.trace.active()) {
    // Emitted whole at fulfilment, so NO_REPLICA / failover-exhausted /
    // close-time failures all close the span too. A router handed a fresh
    // context (parent_span == 0) is the outermost hop and brackets the
    // flow chain with the unique 's'/'f' pair; behind another hop it
    // contributes a 't' step. (dispatch_locked stamps the forwarded copy,
    // never call.trace, so this discrimination survives failover.)
    const std::int64_t done_ns = obs::trace_clock_ns();
    obs::trace_span_at("router.request", call.submit_ns, done_ns,
                       call.trace.trace_id);
    if (call.trace.parent_span == 0) {
      obs::trace_flow('s', call.trace.trace_id, call.submit_ns);
      obs::trace_flow('f', call.trace.trace_id, done_ns);
    } else {
      obs::trace_flow('t', call.trace.trace_id,
                      (call.submit_ns + done_ns) / 2);
    }
  }
  call.promise.set_value(result);
}

void Router::note_error_locked(std::size_t idx) {
  Replica& r = replicas_[idx];
  r.transport_errors += 1;
  r.consecutive_errors += 1;
  if (r.healthy && r.consecutive_errors >= opts_.eject_threshold) {
    r.healthy = false;
    r.ejected_at = Clock::now();
    r.ejects += 1;
    ejects_total_.inc();
    healthy_gauge_.set(static_cast<double>(healthy_count_locked()));
    log_warn("router: ejected replica ", idx, " (", r.endpoint.host, ":",
                  r.endpoint.port, ") after ", r.consecutive_errors,
                  " consecutive transport errors");
  }
}

void Router::note_ok_locked(std::size_t idx) {
  Replica& r = replicas_[idx];
  r.ok += 1;
  r.consecutive_errors = 0;
}

std::size_t Router::healthy_count_locked() const {
  std::size_t n = 0;
  for (const Replica& r : replicas_) n += r.healthy ? 1 : 0;
  return n;
}

void Router::dispatcher_loop() {
  obs::set_trace_thread_label(opts_.name + ".dispatch");
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    // Drain new submissions.
    while (!queue_.empty()) {
      std::unique_ptr<Call> call = std::move(queue_.front());
      queue_.pop_front();
      dispatch_locked(std::move(call));
    }
    // Harvest completed client futures.
    for (std::size_t i = 0; i < inflight_.size();) {
      Inflight& inf = inflight_[i];
      if (inf.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const CallResult result = inf.future.get();
      const std::size_t idx = inf.replica;
      Replica& r = replicas_[idx];
      r.outstanding -= 1;
      r.latency->record(std::chrono::duration_cast<std::chrono::microseconds>(
                            Clock::now() - inf.dispatched)
                            .count());
      std::unique_ptr<Call> call = std::move(inf.call);
      inflight_[i] = std::move(inflight_.back());
      inflight_.pop_back();
      if (result.status == Status::kConnectionError) {
        note_error_locked(idx);
        if (!stopping_ && call->attempts < max_attempts_) {
          dispatch_locked(std::move(call));  // transparent failover
        } else {
          finish_call(*call, result);
        }
      } else {
        note_ok_locked(idx);
        finish_call(*call, result);
      }
    }
    if (stopping_) break;
    if (queue_.empty()) {
      if (inflight_.empty()) {
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      } else {
        cv_.wait_for(lock, std::chrono::milliseconds(kTickMs));
      }
    }
  }
  // Stopping: fail everything still queued or in flight.
  for (auto& call : queue_) {
    finish_call(*call, {.status = Status::kConnectionError});
  }
  queue_.clear();
  for (Inflight& inf : inflight_) {
    replicas_[inf.replica].outstanding -= 1;
    finish_call(*inf.call, {.status = Status::kConnectionError});
  }
  inflight_.clear();
}

void Router::prober_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    // Collect ejected replicas due for a probe (work outside the lock: a
    // probe blocks up to health_timeout_ms and must not stall dispatch).
    std::vector<std::size_t> to_probe;
    const auto now = Clock::now();
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      Replica& r = replicas_[i];
      if (r.healthy) continue;
      if (r.endpoint.health_port > 0) {
        to_probe.push_back(i);
      } else if (now - r.ejected_at >=
                 std::chrono::milliseconds(opts_.blind_rejoin_ms)) {
        // No health endpoint: rejoin on a timer and let traffic re-probe.
        r.healthy = true;
        r.consecutive_errors = 0;
        r.rejoins += 1;
        rejoins_total_.inc();
        healthy_gauge_.set(static_cast<double>(healthy_count_locked()));
        log_info("router: blind-rejoined replica ", i, " after ",
                      opts_.blind_rejoin_ms, " ms");
      }
    }
    lock.unlock();
    std::vector<std::size_t> passed;
    for (const std::size_t i : to_probe) {
      const ReplicaEndpoint ep = replicas_[i].endpoint;  // endpoint is const
      probe_total_.inc();
      if (probe_healthz(ep.host, ep.health_port, opts_.health_timeout_ms)) {
        passed.push_back(i);
      } else {
        probe_fail_total_.inc();
      }
    }
    lock.lock();
    for (const std::size_t i : passed) {
      Replica& r = replicas_[i];
      if (r.healthy || stopping_) continue;
      r.healthy = true;
      r.consecutive_errors = 0;
      r.rejoins += 1;
      rejoins_total_.inc();
      healthy_gauge_.set(static_cast<double>(healthy_count_locked()));
      log_info("router: replica ", i, " (", r.endpoint.host, ":",
                    r.endpoint.port, ") passed /healthz, rejoining");
    }
    cv_.wait_for(lock, std::chrono::milliseconds(opts_.health_interval_ms),
                 [this] { return stopping_; });
  }
}

std::vector<Router::ReplicaStats> Router::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ReplicaStats> out;
  out.reserve(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const Replica& r = replicas_[i];
    ReplicaStats s;
    s.index = static_cast<int>(i);
    s.host = r.endpoint.host;
    s.port = r.endpoint.port;
    s.healthy = r.healthy;
    s.outstanding = r.outstanding;
    s.dispatched = r.dispatched;
    s.ok = r.ok;
    s.transport_errors = r.transport_errors;
    s.ejects = r.ejects;
    s.rejoins = r.rejoins;
    s.latency = r.latency->snapshot();
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t Router::healthy_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return healthy_count_locked();
}

}  // namespace wm::net
