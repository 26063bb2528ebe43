#include "net/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace wm::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

Client::Client(const ClientOptions& opts) : opts_(opts) {
  WM_CHECK(opts_.port > 0 && opts_.port <= 65535, "bad client port ",
           opts_.port);
  if (opts_.registry != nullptr) {
    e2e_hist_ = &opts_.registry->histogram(
        "wm_stage_client_e2e_us", obs::Histogram::latency_bounds_us(), "us",
        "client call enqueue-to-completion latency (all statuses)");
  }
  io_ = std::thread([this] { io_loop(); });
}

Client::~Client() { close(); }

std::future<CallResult> Client::predict_async(const WaferMap& map,
                                              std::uint32_t deadline_ms) {
  return predict_async(map, deadline_ms, obs::TraceContext{});
}

std::future<CallResult> Client::predict_async(
    const WaferMap& map, std::uint32_t deadline_ms, obs::TraceContext trace,
    std::function<void(const CallResult&)> on_done) {
  PendingCall pc;
  pc.enqueue_ns = obs::trace_clock_ns();
  pc.trace = trace;
  pc.on_done = std::move(on_done);
  std::future<CallResult> fut = pc.promise.get_future();

  RequestFrame req;
  req.deadline_ms = deadline_ms;
  req.trace = trace;
  req.map = map;
  bool closed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed = stopping_;
    if (!closed) {
      req.request_id = next_id_++;
      unsent_.push_back(Unsent{req.request_id, encode_request(req)});
      promises_.emplace(req.request_id, std::move(pc));
    }
  }
  if (closed) {
    complete_call(pc, CallResult{Status::kConnectionError, {}, {}, 1});
    return fut;
  }
  wake_.wake();
  return fut;
}

CallResult Client::predict(const WaferMap& map, std::uint32_t deadline_ms) {
  return predict_async(map, deadline_ms).get();
}

void Client::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.wake();
  const std::lock_guard<std::mutex> join_lock(join_mutex_);
  if (io_.joinable()) io_.join();
}

std::size_t Client::inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return promises_.size() - unsent_.size();
}

void Client::io_loop() {
  obs::set_trace_thread_label(opts_.name + ".io");
  for (;;) {
    bool have_unsent = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) break;
      have_unsent = !unsent_.empty();
    }

    if (fd_ < 0) {
      if (!have_unsent) {
        // Idle and disconnected: sleep until a call or close() arrives.
        pollfd wfd{wake_.read_fd(), POLLIN, 0};
        (void)::poll(&wfd, 1, -1);
        wake_.drain();
        continue;
      }
      if (!connect()) continue;
    }

    // Flush the unsent queue. A write failure breaks the connection; the
    // half-written call fails (its bytes may have reached the server).
    for (;;) {
      Unsent u;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (unsent_.empty()) break;
        u = std::move(unsent_.front());
        unsent_.pop_front();
      }
      if (!write_all(fd_, u.bytes.data(), u.bytes.size())) {
        disconnect();
        break;
      }
    }
    if (fd_ < 0) continue;

    pollfd fds[2];
    fds[0] = {fd_, POLLIN, 0};
    fds[1] = {wake_.read_fd(), POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    wake_.drain();
    if (rc < 0 && errno != EINTR) {
      disconnect();
      continue;
    }
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

    std::uint8_t buf[kReadChunk];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      disconnect();
      continue;
    }
    in_.insert(in_.end(), buf, buf + n);

    std::size_t offset = 0;
    bool broken = false;
    while (offset < in_.size()) {
      const ParsedFrame frame =
          try_parse_frame(in_.data() + offset, in_.size() - offset);
      if (frame.status == DecodeStatus::kNeedMore) break;
      if (frame.status == DecodeStatus::kBad ||
          frame.type != FrameType::kResponse) {
        log_warn("wm_net client: protocol error from server",
                 frame.error.empty() ? "" : ": ", frame.error);
        broken = true;
        break;
      }
      offset += frame.consumed;
      ResponseFrame resp;
      try {
        resp = decode_response_body(frame.request_id, frame.body,
                                    frame.body_len);
      } catch (const WireError& e) {
        log_warn("wm_net client: bad response body: ", e.what());
        broken = true;
        break;
      }
      PendingCalls::node_type call;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        call = promises_.extract(resp.request_id);
      }
      // Unknown id: a response to a call that already failed — ignore.
      if (call.empty()) continue;
      complete_call(call.mapped(),
                    CallResult{resp.status, resp.prediction, resp.timing, 1});
    }
    in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(offset));
    if (broken) disconnect();
  }
  // Stopping: predict_async queues nothing more, so every call still here
  // fails now.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  connected_.store(false);
  fail_all();
}

bool Client::connect() {
  try {
    fd_ = connect_tcp(opts_.host, opts_.port, opts_.io_timeout_ms);
  } catch (const IoError& e) {
    log_warn("wm_net client: connect failed, failing queued calls: ",
             e.what());
    fail_all();
    return false;
  }
  set_nodelay(fd_);
  connected_.store(true);
  if (ever_connected_) reconnects_.fetch_add(1);
  ever_connected_ = true;
  return true;
}

void Client::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  connected_.store(false);
  in_.clear();
  // Calls already on the wire can never be answered now; calls still queued
  // locally survive and go out on the next dial.
  PendingCalls failed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PendingCalls queued;
    for (const Unsent& u : unsent_) queued.insert(promises_.extract(u.id));
    failed = std::exchange(promises_, std::move(queued));
  }
  fail_calls(failed);
}

void Client::fail_all() {
  PendingCalls failed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    unsent_.clear();
    failed = std::exchange(promises_, {});
  }
  fail_calls(failed);
}

void Client::fail_calls(PendingCalls& calls) {
  for (auto& [id, pc] : calls) {
    complete_call(pc, CallResult{Status::kConnectionError, {}, {}, 1});
  }
}

void Client::complete_call(PendingCall& pc, const CallResult& result) {
  const std::int64_t done_ns = obs::trace_clock_ns();
  if (e2e_hist_ != nullptr) {
    e2e_hist_->record(std::max<std::int64_t>(0, done_ns - pc.enqueue_ns) /
                      1000);
  }
  if (pc.trace.active()) {
    // The span is emitted whole at completion, so every path — response,
    // disconnect, failed connect, close() — closes it. An origin client
    // (parent_span == 0) brackets the whole flow chain with the unique
    // 's'/'f' pair; a mid-chain client (e.g. a router's per-replica
    // client) contributes a 't' step instead.
    obs::trace_span_at("client.call", pc.enqueue_ns, done_ns,
                       pc.trace.trace_id);
    if (pc.trace.parent_span == 0) {
      obs::trace_flow('s', pc.trace.trace_id, pc.enqueue_ns);
      obs::trace_flow('f', pc.trace.trace_id, done_ns);
    } else {
      obs::trace_flow('t', pc.trace.trace_id, (pc.enqueue_ns + done_ns) / 2);
    }
  }
  pc.promise.set_value(result);
  if (pc.on_done) pc.on_done(result);
}

}  // namespace wm::net
