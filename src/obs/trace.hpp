// wm::obs tracing — RAII scoped spans with Perfetto/chrome://tracing export.
//
//   void conv_forward(...) {
//     WM_TRACE_SCOPE("conv2d.fwd");
//     ...
//   }
//
// Spans are recorded into per-thread ring buffers (default 65536 events per
// thread, env WM_TRACE_BUFFER) and exported as Chrome trace JSON "X"
// (complete) events — load trace.json in https://ui.perfetto.dev or
// chrome://tracing.
//
// Tracing is off unless the WM_TRACE env var is set truthy at first use or
// set_trace_enabled(true) is called. When off, a span costs one relaxed
// atomic load and two branches (no allocation, no clock read): 0.64 ns per
// span in one timing run on one thread of a 4-vCPU AVX-512 Xeon. The
// instrumented hot paths can therefore stay instrumented in production
// builds. When on, a span costs two clock reads plus a short uncontended
// mutex on its own thread's buffer (75 ns in the same run).
//
// Span names must be string literals (or otherwise outlive the export):
// the ring stores the pointer, not a copy.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace wm::obs {

namespace detail {
// -1 = not yet initialised from WM_TRACE, 0 = off, 1 = on.
extern std::atomic<int> g_trace_state;
bool trace_init_from_env();
std::int64_t trace_now_ns();
void trace_record(const char* name, std::int64_t start_ns,
                  std::int64_t end_ns);
void trace_record_counter(const char* name, std::int64_t ts_ns, double value);
void trace_record_span(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t trace_id);
void trace_record_flow(char phase, std::uint64_t flow_id, std::int64_t ts_ns);
}  // namespace detail

/// Fast runtime gate; safe to call at any frequency from any thread.
inline bool trace_enabled() {
  const int s = detail::g_trace_state.load(std::memory_order_relaxed);
  return s < 0 ? detail::trace_init_from_env() : s != 0;
}

/// Overrides the WM_TRACE env var from code.
void set_trace_enabled(bool on);

/// Samples a named counter track (Perfetto "C" event): queue depth,
/// coverage, ... — values render as a stepped graph alongside the span
/// tracks. Costs the same one-load gate as a disabled span when tracing is
/// off. `name` must be a string literal (the ring stores the pointer).
inline void trace_counter(const char* name, double value) {
  if (trace_enabled()) {
    detail::trace_record_counter(name, detail::trace_now_ns(), value);
  }
}

/// Timestamps on the span clock (CLOCK_MONOTONIC). Comparable across
/// processes on one host, which is what makes merged multi-process traces
/// line up (see trace_merge.hpp).
inline std::int64_t trace_clock_ns() { return detail::trace_now_ns(); }

/// Records a completed span with explicit timestamps — for request-shaped
/// work whose start was observed on another thread or earlier in a queue.
/// A non-zero `trace_id` is exported in the event args (hex) so spans of
/// one distributed request can be grouped across processes. `name` must be
/// a string literal.
inline void trace_span_at(const char* name, std::int64_t start_ns,
                          std::int64_t end_ns, std::uint64_t trace_id = 0) {
  if (trace_enabled()) {
    detail::trace_record_span(name, start_ns, end_ns, trace_id);
  }
}

/// Perfetto flow event: phase 's' (start), 't' (step) or 'f' (end). Events
/// sharing `flow_id` draw an arrow chain between the "X" slices enclosing
/// them (same thread, ts inside the slice) — this is what visually links a
/// request's client/router/server/engine spans across threads and, after
/// trace-merge, across processes.
inline void trace_flow(char phase, std::uint64_t flow_id,
                       std::int64_t ts_ns) {
  if (trace_enabled()) {
    detail::trace_record_flow(phase, flow_id, ts_ns);
  }
}

/// Names this process's track in the export (default "wm"). The exported
/// pid is always the OS pid, so merged traces from several processes stay
/// distinct.
void set_trace_process_name(const std::string& name);

/// Labels the calling thread's track in the export (default "thread-N").
/// Servers label worker threads with their replica name so a merged fleet
/// trace reads role-first.
void set_trace_thread_label(const std::string& label);

/// Ring capacity (events) for thread buffers created after this call.
/// Existing buffers keep their capacity. Also settable via WM_TRACE_BUFFER.
void set_trace_buffer_capacity(std::size_t events);

/// Events currently buffered across all threads (live and exited).
std::size_t trace_event_count();
/// Events overwritten by ring wrap-around since start / last clear().
std::uint64_t trace_dropped_count();

/// Drops all buffered events (buffers stay registered).
void trace_clear();

/// Chrome trace / Perfetto JSON: {"traceEvents":[...]} with one "X" event
/// per span and "M" metadata events naming the process and threads.
std::string trace_to_json();
/// trace_to_json() to a file; throws wm::IoError on failure.
void trace_write_json(const std::string& path);

class TraceScope {
 public:
  explicit TraceScope(const char* name)
      : name_(trace_enabled() ? name : nullptr),
        start_ns_(name_ != nullptr ? detail::trace_now_ns() : 0) {}
  ~TraceScope() {
    if (name_ != nullptr) {
      detail::trace_record(name_, start_ns_, detail::trace_now_ns());
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_;
  std::int64_t start_ns_;
};

#define WM_OBS_CONCAT2(a, b) a##b
#define WM_OBS_CONCAT(a, b) WM_OBS_CONCAT2(a, b)
/// RAII span covering the rest of the enclosing block; name must be a
/// string literal.
#define WM_TRACE_SCOPE(name) \
  ::wm::obs::TraceScope WM_OBS_CONCAT(wm_trace_scope_, __LINE__)(name)

}  // namespace wm::obs
