#include "net/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace wm::net {

namespace {

using namespace std::chrono_literals;

constexpr std::size_t kReadChunk = 64 * 1024;

/// Nanoseconds -> saturating uint32 microseconds (the wire StageTiming
/// unit); negative deltas (clock re-reads across threads) clamp to 0.
std::uint32_t sat_us(std::int64_t ns) {
  if (ns <= 0) return 0;
  const std::int64_t us = ns / 1000;
  return us > 0xFFFFFFFFll ? 0xFFFFFFFFu : static_cast<std::uint32_t>(us);
}

}  // namespace

Server::Server(serve::InferenceEngine& engine, const ServerOptions& opts)
    : engine_(engine),
      opts_(opts),
      metrics_(opts_.registry != nullptr ? *opts_.registry
                                         : engine.metrics_registry()),
      connections_total_(metrics_.counter("wm_net_connections_total",
                                          "TCP connections accepted")),
      requests_total_(metrics_.counter("wm_net_requests_total",
                                       "request frames received (incl. "
                                       "rejected bodies)")),
      responses_total_(metrics_.counter("wm_net_responses_total",
                                        "responses written (any status)")),
      shed_total_(metrics_.counter("wm_net_shed_total",
                                   "requests answered OVERLOADED")),
      timeout_total_(metrics_.counter("wm_net_timeout_total",
                                      "requests answered TIMEOUT")),
      malformed_total_(metrics_.counter("wm_net_malformed_total",
                                        "malformed frames (rejected bodies + "
                                        "closed connections)")),
      connections_gauge_(metrics_.gauge("wm_net_connections",
                                        "currently open connections")),
      inflight_gauge_(metrics_.gauge("wm_net_inflight",
                                     "requests awaiting an engine result")),
      latency_hist_(metrics_.histogram("wm_net_request_latency_us",
                                       obs::Histogram::latency_bounds_us(),
                                       "us",
                                       "receipt-to-response-written latency")),
      parse_hist_(metrics_.histogram("wm_stage_server_parse_us",
                                     obs::Histogram::latency_bounds_us(), "us",
                                     "frame decode + engine submit time")),
      write_hist_(metrics_.histogram("wm_stage_server_write_us",
                                     obs::Histogram::latency_bounds_us(), "us",
                                     "response serialization + socket write "
                                     "time")) {
  WM_CHECK(opts_.workers > 0, "workers must be positive");
  listen_fd_ = listen_tcp(opts_.bind_address, opts_.port, opts_.backlog,
                          &port_);
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->index = i;
  }
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { worker_loop(*worker); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

void Server::stop() {
  stopping_.store(true);
  accept_wake_.wake();
  for (auto& w : workers_) w->wake->wake();
  const std::lock_guard<std::mutex> lock(join_mutex_);
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

bool Server::running() const { return !stopping_.load(); }

std::uint64_t Server::requests_received() const {
  return requests_total_.value();
}
std::uint64_t Server::responses_sent() const {
  return responses_total_.value();
}
std::uint64_t Server::shed() const { return shed_total_.value(); }
std::uint64_t Server::timeouts() const { return timeout_total_.value(); }

void Server::accept_loop() {
  while (!stopping_.load()) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {accept_wake_.read_fd(), POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0 || stopping_.load()) return;
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    set_io_timeouts(conn, opts_.io_timeout_ms);
    set_nodelay(conn);
    connections_total_.inc();

    Worker& w = *workers_[next_worker_];
    next_worker_ = (next_worker_ + 1) % workers_.size();
    {
      const std::lock_guard<std::mutex> lock(w.inbox_mutex);
      w.inbox.push_back(conn);
    }
    w.wake->wake();
  }
}

void Server::worker_loop(Worker& w) {
  obs::set_trace_thread_label(opts_.name + ".worker" +
                              std::to_string(w.index));
  // The engine runs this after fulfilling each request the worker submits,
  // also one a TIMEOUT abandoned, when this server may be gone: the hook
  // shares ownership of the pipe it wakes.
  const std::function<void()> on_done = [wake = w.wake] { wake->wake(); };
  std::vector<pollfd> fds;
  for (;;) {
    const bool draining = stopping_.load();

    // Adopt freshly accepted connections.
    {
      const std::lock_guard<std::mutex> lock(w.inbox_mutex);
      for (int fd : w.inbox) {
        w.conns.emplace_back();
        w.conns.back().fd = fd;
        connections_gauge_.inc();
      }
      w.inbox.clear();
    }

    if (draining) {
      // Answer everything already submitted, then close and exit. No new
      // bytes are read: the listener is gone and the contract is "every
      // *accepted* request is answered".
      for (Conn& c : w.conns) {
        (void)flush_pending(c, /*drain=*/true);
        ::close(c.fd);
        connections_gauge_.dec();
      }
      w.conns.clear();
      return;
    }

    // Sleep until a socket is readable, the engine completes one of this
    // worker's requests (its hook writes the wake pipe), or the earliest
    // pending deadline passes.
    std::optional<Clock::time_point> next_deadline;
    fds.clear();
    fds.push_back({w.wake->read_fd(), POLLIN, 0});
    for (const Conn& c : w.conns) {
      fds.push_back({c.fd, POLLIN, 0});
      for (const Pending& p : c.pending) {
        if (p.has_deadline && (!next_deadline || p.deadline < *next_deadline)) {
          next_deadline = p.deadline;
        }
      }
    }
    int timeout = -1;
    if (next_deadline) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          *next_deadline - Clock::now());
      timeout = static_cast<int>(
          std::clamp<std::int64_t>(left.count(), 0, INT32_MAX));
    }
    const int rc = ::poll(fds.data(), fds.size(), timeout);
    if (rc < 0 && errno != EINTR) return;
    w.wake->drain();

    for (std::size_t i = 0; i < w.conns.size(); ++i) {
      Conn& c = w.conns[i];
      const short revents = fds[i + 1].revents;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        if (!handle_input(c, on_done)) c.dead = true;
      }
      if (!c.dead && !flush_pending(c, /*drain=*/false)) c.dead = true;
    }

    // Reap dead connections (their pending futures are abandoned; the
    // engine still fulfils the promises, nobody is blocked).
    for (auto it = w.conns.begin(); it != w.conns.end();) {
      if (it->dead) {
        inflight_.fetch_sub(static_cast<std::int64_t>(it->pending.size()));
        ::close(it->fd);
        connections_gauge_.dec();
        it = w.conns.erase(it);
      } else {
        ++it;
      }
    }
    inflight_gauge_.set(static_cast<double>(inflight_.load()));
  }
}

bool Server::handle_input(Conn& c, const std::function<void()>& on_done) {
  std::uint8_t buf[kReadChunk];
  const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
  if (n == 0) return false;  // peer closed
  if (n < 0) {
    // A timeout on a blocking socket poll() said was readable, or a reset.
    return errno == EINTR;
  }
  c.in.insert(c.in.end(), buf, buf + n);

  std::size_t offset = 0;
  while (offset < c.in.size()) {
    const ParsedFrame frame =
        try_parse_frame(c.in.data() + offset, c.in.size() - offset);
    if (frame.status == DecodeStatus::kNeedMore) break;
    if (frame.status == DecodeStatus::kBad) {
      malformed_total_.inc();
      log_warn("wm_net server: closing connection: ", frame.error);
      return false;
    }
    offset += frame.consumed;

    if (frame.type != FrameType::kRequest) {
      // A response frame sent *to* the server is a protocol violation.
      malformed_total_.inc();
      log_warn("wm_net server: closing connection: unexpected frame type");
      return false;
    }

    WM_TRACE_SCOPE("net.request");
    Pending p;
    p.id = frame.request_id;
    p.received = Clock::now();
    p.received_ns = obs::trace_clock_ns();
    requests_total_.inc();

    RequestFrame req;
    try {
      req = decode_request_body(frame.request_id, frame.body, frame.body_len);
    } catch (const WireError& e) {
      // The frame itself was well-delimited, so the stream stays usable:
      // reject just this request. The trace context lives ahead of the
      // wafer in the body, so even this response stays attributable — and
      // its "server.request" span still closes (spans are emitted whole at
      // response time).
      if (const auto ctx = peek_request_trace(frame.body, frame.body_len)) {
        p.trace = *ctx;
      }
      malformed_total_.inc();
      log_warn("wm_net server: rejecting request ", frame.request_id, ": ",
               e.what());
      if (!send_response(c, p, Status::kMalformed, {})) return false;
      continue;
    }
    p.trace = req.trace;

    if (req.deadline_ms > 0) {
      p.has_deadline = true;
      p.deadline = p.received + std::chrono::milliseconds(req.deadline_ms);
    }

    p.timing = std::make_shared<serve::RequestTiming>();
    std::optional<std::future<SelectivePrediction>> fut;
    try {
      fut = engine_.try_submit(std::move(req.map), req.trace, p.timing,
                               on_done);
    } catch (const Error&) {
      // Engine already shut down under us: answer rather than drop.
      if (!send_response(c, p, Status::kShuttingDown, {})) return false;
      continue;
    }
    if (!fut) {
      shed_total_.inc();
      if (!send_response(c, p, Status::kOverloaded, {})) return false;
      continue;
    }
    parse_hist_.record(
        std::max<std::int64_t>(0, (obs::trace_clock_ns() - p.received_ns)) /
        1000);
    p.future = std::move(*fut);
    inflight_.fetch_add(1);
    c.pending.push_back(std::move(p));
  }
  c.in.erase(c.in.begin(),
             c.in.begin() + static_cast<std::ptrdiff_t>(offset));
  return true;
}

bool Server::flush_pending(Conn& c, bool drain) {
  const Clock::time_point now = Clock::now();
  for (std::size_t i = 0; i < c.pending.size();) {
    Pending& p = c.pending[i];
    if (drain) p.future.wait();
    const bool ready =
        p.future.wait_for(0s) == std::future_status::ready;
    bool answered = false;
    bool ok = true;
    if (ready) {
      // A result that arrived is delivered even when it is late — the
      // deadline gates *waiting*, not useful work already done.
      try {
        ok = send_response(c, p, Status::kOk, p.future.get());
      } catch (const std::exception&) {
        ok = send_response(c, p, Status::kInternal, {});
      }
      answered = true;
    } else if (p.has_deadline && now >= p.deadline) {
      timeout_total_.inc();
      ok = send_response(c, p, Status::kTimeout, {});
      answered = true;  // the future is abandoned; the engine's promise
                        // outlives it, so fulfilment stays safe
    }
    if (!ok) return false;
    if (answered) {
      inflight_.fetch_sub(1);
      c.pending.erase(c.pending.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  return true;
}

bool Server::send_response(Conn& c, const Pending& p, Status status,
                           const SelectivePrediction& pred) {
  ResponseFrame resp;
  resp.request_id = p.id;
  resp.status = status;
  resp.prediction = pred;
  const std::int64_t write_start_ns = obs::trace_clock_ns();
  resp.timing.total_us = sat_us(write_start_ns - p.received_ns);
  if (status == Status::kOk && p.timing != nullptr) {
    // The future was ready, so the engine's stores to *p.timing
    // happened-before this read.
    const serve::RequestTiming& t = *p.timing;
    const std::int64_t picked_ns = std::max(t.wake_ns, t.enqueue_ns);
    resp.timing.queue_us = sat_us(picked_ns - t.enqueue_ns);
    resp.timing.batch_us = sat_us(t.formed_ns - picked_ns);
    resp.timing.compute_us = sat_us(t.done_ns - t.formed_ns);
  }
  const std::vector<std::uint8_t> bytes = encode_response(resp);
  if (!write_all(c.fd, bytes.data(), bytes.size())) return false;
  responses_total_.inc();
  const std::int64_t done_ns = obs::trace_clock_ns();
  write_hist_.record(sat_us(done_ns - write_start_ns));
  latency_hist_.record(std::chrono::duration_cast<std::chrono::microseconds>(
                           Clock::now() - p.received)
                           .count());
  if (p.trace.active()) {
    // Whole-hop span emitted retroactively (so TIMEOUT/MALFORMED close it
    // too), with a flow step tying it into the request's arrow chain.
    obs::trace_span_at("server.request", p.received_ns, done_ns,
                       p.trace.trace_id);
    obs::trace_flow('t', p.trace.trace_id, (p.received_ns + done_ns) / 2);
  }
  return true;
}

}  // namespace wm::net
