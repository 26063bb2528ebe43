// Online inference: a dynamic micro-batching engine in front of a
// wm::Classifier.
//
// Many client threads submit() single wafer maps; requests land in a bounded
// FIFO queue (submit blocks when the queue is full — backpressure instead of
// unbounded memory growth) and a dedicated batcher thread flushes a
// micro-batch to Classifier::predict_batch as soon as it is free. Batching
// is work-conserving: each batch is whatever queued while the previous
// predict_batch ran, up to max_batch, and nothing holds a batch open.
//
// Results come back through std::future<SelectivePrediction>; try_submit()
// also takes a completion hook the batcher runs right after it fulfils the
// future, so an event loop can sleep until its results land. Because the
// Classifier contract guarantees per-sample results independent of batch
// composition, engine results are bit-identical to calling predict_batch
// directly on the same wafers.
//
// Observability: the engine publishes its counters through wm::obs
// instruments (wm_serve_requests_total, wm_serve_queue_depth,
// wm_serve_batch_size, wm_serve_request_latency_us, ...) — by default into
// an engine-private registry, or into one you pass via
// EngineOptions::registry (e.g. &obs::Registry::global() to merge with
// trainer metrics in a single dump). stats() returns a consistent
// EngineStats snapshot as before; stats_text() renders the registry in
// Prometheus exposition format. Each flush is traced as a "serve.flush"
// span (see obs/trace.hpp).
//
// Shutdown is drain-then-stop: shutdown() (and the destructor) rejects new
// submissions, flushes everything already queued, then joins the batcher.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_context.hpp"
#include "serve/classifier.hpp"
#include "wafermap/wafer_map.hpp"

namespace wm::serve {

class SelectiveMonitor;
class SampleTap;

struct EngineOptions {
  /// Largest batch one predict_batch call takes.
  int max_batch = 32;
  /// submit() blocks while this many requests are already queued.
  std::size_t queue_capacity = 256;
  /// Where the wm_serve_* instruments live. nullptr = an engine-private
  /// registry (each engine gets its own counters). Point several engines at
  /// one registry and they share (aggregate) the same instruments.
  obs::Registry* registry = nullptr;
  /// Drift monitor fed every prediction the engine fulfils (after each
  /// successful flush, in request order). Must outlive the engine; errored
  /// batches are not observed. nullptr = no monitoring.
  SelectiveMonitor* monitor = nullptr;
  /// Sample tap fed every (wafer, prediction) pair the engine fulfils —
  /// same cadence and ordering as the monitor feed, right after it. Must
  /// outlive the engine; errored batches are not tapped. The adaptation
  /// layer's sliding sample buffer plugs in here (see serve/sample_tap.hpp).
  /// nullptr = no tap.
  SampleTap* sample_tap = nullptr;
};

/// Per-request engine timestamps (obs::trace_clock_ns() values), written by
/// the batcher thread and published to the submitter through the future's
/// happens-before — read them only once the request's future is ready.
/// Held by shared_ptr because net::Server abandons timed-out futures while
/// the engine still completes them later.
struct RequestTiming {
  std::int64_t enqueue_ns = 0;  // set at submit
  std::int64_t wake_ns = 0;     // batcher cycle that took the request began
  std::int64_t formed_ns = 0;   // batch formed; compute started
  std::int64_t done_ns = 0;     // predict_batch returned
};

/// Counters since engine construction. A consistent snapshot is returned by
/// InferenceEngine::stats().
struct EngineStats {
  std::uint64_t requests = 0;          // completed (futures fulfilled)
  std::uint64_t batches = 0;           // predict_batch calls issued
  std::uint64_t abstained = 0;         // results with selected == false
  std::uint64_t full_flushes = 0;      // batches flushed at max_batch
  std::uint64_t timer_flushes = 0;     // flushed below max_batch
  std::uint64_t shed = 0;              // try_submit() rejections (queue full)
  obs::HistogramSnapshot latency;      // per-request enqueue -> result, us

  double mean_batch_size() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(requests) /
                              static_cast<double>(batches);
  }

  /// Multi-line human-readable dump of every counter above.
  std::string to_string() const;
};

class InferenceEngine {
 public:
  /// The classifier must outlive the engine and satisfy the Classifier
  /// thread-safety contract. Starts the batcher thread immediately.
  explicit InferenceEngine(const Classifier& classifier,
                           const EngineOptions& opts = {});

  /// Drains and stops (see shutdown()).
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Enqueues one wafer; blocks while the queue is at capacity. The future
  /// resolves with the prediction, or with the classifier's exception if the
  /// batch containing this wafer failed. Throws wm::Error after shutdown().
  ///
  /// The traced overload attaches a distributed-trace context (spans are
  /// emitted per stage when trace.active()) and optionally a RequestTiming
  /// the batcher fills with per-stage timestamps for every request,
  /// sampled or not.
  std::future<SelectivePrediction> submit(WaferMap map);
  std::future<SelectivePrediction> submit(
      WaferMap map, obs::TraceContext trace,
      std::shared_ptr<RequestTiming> timing = nullptr);

  /// Non-blocking submit for load-shedding front-ends (net::Server): when
  /// the queue is at capacity this returns std::nullopt immediately —
  /// bumping wm_serve_shed_total — instead of blocking the producer.
  /// Otherwise identical to submit(), including the throw after shutdown().
  ///
  /// `on_done`, when set, runs on the batcher thread right after this
  /// request's future becomes ready (value or exception), also when the
  /// caller has abandoned the future. It must not throw or block, and it
  /// must own whatever it touches: it can run after its submitter is gone.
  std::optional<std::future<SelectivePrediction>> try_submit(WaferMap map);
  std::optional<std::future<SelectivePrediction>> try_submit(
      WaferMap map, obs::TraceContext trace,
      std::shared_ptr<RequestTiming> timing = nullptr,
      std::function<void()> on_done = {});

  /// Blocking convenience: submit + wait.
  SelectivePrediction predict(const WaferMap& map);

  /// Stops accepting new requests, flushes everything already queued, then
  /// joins the batcher thread. Idempotent.
  void shutdown();

  /// False once shutdown() has begun.
  bool accepting() const;

  /// Requests currently queued (excluding the batch in flight).
  std::size_t queue_depth() const;

  const EngineOptions& options() const { return opts_; }

  /// Consistent snapshot of the counters.
  EngineStats stats() const;

  /// Prometheus exposition dump of the engine's registry (every wm_serve_*
  /// instrument; plus whatever else lives there when a shared registry was
  /// passed in EngineOptions).
  std::string stats_text() const;

  /// The registry holding this engine's instruments.
  obs::Registry& metrics_registry() const { return metrics_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    WaferMap map;
    std::promise<SelectivePrediction> promise;
    Clock::time_point enqueued;
    obs::TraceContext trace{};
    std::shared_ptr<RequestTiming> timing;  // usually null (in-process path)
    std::function<void()> on_done;          // try_submit's completion hook
  };

  /// Queues one request under `lock` (capacity already checked), then
  /// releases it and wakes the batcher.
  std::future<SelectivePrediction> enqueue(
      std::unique_lock<std::mutex>& lock, WaferMap map,
      obs::TraceContext trace, std::shared_ptr<RequestTiming> timing,
      std::function<void()> on_done);
  void batcher_loop();

  const Classifier& classifier_;
  const EngineOptions opts_;

  mutable obs::Registry own_metrics_;  // used when opts_.registry == nullptr
  obs::Registry& metrics_;
  obs::Counter& requests_total_;
  obs::Counter& batches_total_;
  obs::Counter& abstained_total_;
  obs::Counter& full_flushes_total_;
  obs::Counter& timer_flushes_total_;
  obs::Counter& shed_total_;
  obs::Gauge& queue_depth_gauge_;
  obs::Histogram& batch_size_hist_;
  obs::Histogram& latency_hist_;
  obs::Histogram& stage_queue_hist_;
  obs::Histogram& stage_batch_hist_;
  obs::Histogram& stage_compute_hist_;

  mutable std::mutex mutex_;
  std::mutex join_mutex_;             // serialises shutdown()'s join
  std::condition_variable queue_cv_;  // batcher waits: work available / stop
  std::condition_variable space_cv_;  // producers wait: queue below capacity
  std::deque<Request> queue_;
  bool stopping_ = false;

  std::thread batcher_;  // started last: everything above is initialised
};

}  // namespace wm::serve
