#include "serve/inference_engine.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "serve/monitor.hpp"
#include "serve/sample_tap.hpp"

namespace wm::serve {

namespace {

/// steady_clock epoch offset in ns — the same timeline as
/// obs::trace_clock_ns(), so RequestTiming stamps align with trace spans.
std::int64_t to_ns(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

}  // namespace

std::string EngineStats::to_string() const {
  std::ostringstream os;
  os << "requests:  " << requests << " (abstained " << abstained << ", shed "
     << shed << ")\n";
  os << "batches:   " << batches << " (mean size ";
  os.precision(2);
  os << std::fixed << mean_batch_size() << ", full " << full_flushes
     << ", timer " << timer_flushes << ")\n";
  os << "latency:   mean " << static_cast<std::int64_t>(latency.mean())
     << " us, p50 <= " << latency.quantile(0.50) << " us, p95 <= "
     << latency.quantile(0.95) << " us, p99 <= " << latency.quantile(0.99)
     << " us\n";
  os << latency.to_string();
  return os.str();
}

InferenceEngine::InferenceEngine(const Classifier& classifier,
                                 const EngineOptions& opts)
    : classifier_(classifier),
      opts_(opts),
      metrics_(opts_.registry != nullptr ? *opts_.registry : own_metrics_),
      requests_total_(metrics_.counter("wm_serve_requests_total",
                                       "completed requests (futures fulfilled)")),
      batches_total_(metrics_.counter("wm_serve_batches_total",
                                      "predict_batch calls issued")),
      abstained_total_(metrics_.counter("wm_serve_abstained_total",
                                        "results with selected == false")),
      full_flushes_total_(metrics_.counter("wm_serve_full_flushes_total",
                                           "batches flushed at max_batch")),
      timer_flushes_total_(metrics_.counter(
          "wm_serve_timer_flushes_total", "batches flushed below max_batch")),
      shed_total_(metrics_.counter("wm_serve_shed_total",
                                   "try_submit() rejections (queue full)")),
      queue_depth_gauge_(metrics_.gauge("wm_serve_queue_depth",
                                        "requests queued, batch in flight excluded")),
      batch_size_hist_(metrics_.histogram("wm_serve_batch_size",
                                          obs::Histogram::size_bounds(), "",
                                          "requests per flushed batch")),
      latency_hist_(metrics_.histogram("wm_serve_request_latency_us",
                                       obs::Histogram::latency_bounds_us(),
                                       "us",
                                       "per-request enqueue-to-result latency")),
      stage_queue_hist_(metrics_.histogram(
          "wm_stage_queue_wait_us", obs::Histogram::latency_bounds_us(), "us",
          "engine stage: enqueue to batcher pickup")),
      stage_batch_hist_(metrics_.histogram(
          "wm_stage_batch_wait_us", obs::Histogram::latency_bounds_us(), "us",
          "engine stage: batcher forming the batch")),
      stage_compute_hist_(metrics_.histogram(
          "wm_stage_compute_us", obs::Histogram::latency_bounds_us(), "us",
          "engine stage: predict_batch compute")) {
  WM_CHECK(opts.max_batch > 0, "max_batch must be positive");
  WM_CHECK(opts.queue_capacity > 0, "queue_capacity must be positive");
  batcher_ = std::thread([this] { batcher_loop(); });
}

InferenceEngine::~InferenceEngine() { shutdown(); }

std::future<SelectivePrediction> InferenceEngine::submit(WaferMap map) {
  return submit(std::move(map), obs::TraceContext{}, nullptr);
}

std::future<SelectivePrediction> InferenceEngine::submit(
    WaferMap map, obs::TraceContext trace,
    std::shared_ptr<RequestTiming> timing) {
  std::unique_lock<std::mutex> lock(mutex_);
  space_cv_.wait(lock, [&] {
    return stopping_ || queue_.size() < opts_.queue_capacity;
  });
  WM_CHECK(!stopping_, "submit() on a shut-down engine");
  return enqueue(lock, std::move(map), trace, std::move(timing), {});
}

std::optional<std::future<SelectivePrediction>> InferenceEngine::try_submit(
    WaferMap map) {
  return try_submit(std::move(map), obs::TraceContext{}, nullptr);
}

std::optional<std::future<SelectivePrediction>> InferenceEngine::try_submit(
    WaferMap map, obs::TraceContext trace,
    std::shared_ptr<RequestTiming> timing, std::function<void()> on_done) {
  std::unique_lock<std::mutex> lock(mutex_);
  WM_CHECK(!stopping_, "try_submit() on a shut-down engine");
  if (queue_.size() >= opts_.queue_capacity) {
    shed_total_.inc();
    return std::nullopt;
  }
  return enqueue(lock, std::move(map), trace, std::move(timing),
                 std::move(on_done));
}

std::future<SelectivePrediction> InferenceEngine::enqueue(
    std::unique_lock<std::mutex>& lock, WaferMap map, obs::TraceContext trace,
    std::shared_ptr<RequestTiming> timing, std::function<void()> on_done) {
  const Clock::time_point now = Clock::now();
  if (timing) timing->enqueue_ns = to_ns(now);
  queue_.push_back(Request{std::move(map), {}, now, trace, std::move(timing),
                           std::move(on_done)});
  std::future<SelectivePrediction> fut = queue_.back().promise.get_future();
  queue_depth_gauge_.set(static_cast<double>(queue_.size()));
  obs::trace_counter("serve.queue_depth", static_cast<double>(queue_.size()));
  lock.unlock();
  queue_cv_.notify_one();
  return fut;
}

SelectivePrediction InferenceEngine::predict(const WaferMap& map) {
  return submit(map).get();
}

void InferenceEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  // Serialise the join so concurrent shutdown()/destructor calls are safe.
  std::lock_guard<std::mutex> join_lock(join_mutex_);
  if (batcher_.joinable()) batcher_.join();
}

bool InferenceEngine::accepting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !stopping_;
}

std::size_t InferenceEngine::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

EngineStats InferenceEngine::stats() const {
  // The batcher updates all instruments while holding mutex_, so reading
  // them under the same lock yields a consistent snapshot (e.g. requests
  // always equals latency.count()).
  std::lock_guard<std::mutex> lock(mutex_);
  EngineStats s;
  s.requests = requests_total_.value();
  s.batches = batches_total_.value();
  s.abstained = abstained_total_.value();
  s.full_flushes = full_flushes_total_.value();
  s.timer_flushes = timer_flushes_total_.value();
  s.shed = shed_total_.value();
  s.latency = latency_hist_.snapshot();
  return s;
}

void InferenceEngine::batcher_loop() {
  const auto max_batch = static_cast<std::size_t>(opts_.max_batch);
  for (;;) {
    std::vector<Request> batch;
    bool full_flush = false;
    std::int64_t wake_ns = 0;
    std::int64_t formed_ns = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      // enqueue() stamps under mutex_ too, so every request in this batch
      // was enqueued at or before wake_ns.
      wake_ns = to_ns(Clock::now());
      const std::size_t take = std::min(queue_.size(), max_batch);
      full_flush = take == max_batch;
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      formed_ns = to_ns(Clock::now());
      queue_depth_gauge_.set(static_cast<double>(queue_.size()));
      obs::trace_counter("serve.queue_depth",
                         static_cast<double>(queue_.size()));
    }
    space_cv_.notify_all();  // queue shrank: unblock producers

    std::vector<WaferMap> maps;
    maps.reserve(batch.size());
    for (Request& r : batch) maps.push_back(std::move(r.map));
    std::vector<SelectivePrediction> preds;
    std::exception_ptr error;
    try {
      WM_TRACE_SCOPE("serve.flush");
      preds = classifier_.predict_batch(maps);
      WM_CHECK(preds.size() == batch.size(),
               "classifier broke the predict_batch contract: ", preds.size(),
               " results for ", batch.size(), " maps");
    } catch (...) {
      error = std::current_exception();
    }
    const Clock::time_point done = Clock::now();
    const std::int64_t done_ns = to_ns(done);

    {
      std::lock_guard<std::mutex> lock(mutex_);
      batches_total_.inc();
      (full_flush ? full_flushes_total_ : timer_flushes_total_).inc();
      batch_size_hist_.record(static_cast<std::int64_t>(batch.size()));
      requests_total_.inc(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!error) abstained_total_.inc(!preds[i].selected);
        latency_hist_.record(
            std::chrono::duration_cast<std::chrono::microseconds>(
                done - batch[i].enqueued)
                .count());
        stage_queue_hist_.record((wake_ns - to_ns(batch[i].enqueued)) / 1000);
        stage_batch_hist_.record((formed_ns - wake_ns) / 1000);
        stage_compute_hist_.record((done_ns - formed_ns) / 1000);
      }
    }
    // Monitor before fulfilling the futures so a caller that polls the
    // monitor right after .get() already sees its own prediction counted.
    if (opts_.monitor != nullptr && !error) {
      bool any_trace = false;
      for (const Request& r : batch) any_trace |= r.trace.trace_id != 0;
      if (any_trace) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          opts_.monitor->observe(preds[i], batch[i].trace.trace_id);
        }
      } else {
        opts_.monitor->observe_batch(preds);
      }
    }
    // Sample tap after the monitor: a tap consumer reacting to a monitor
    // alarm already finds the triggering wafer in its buffer. The maps
    // vector still owns every wafer (moved out of the requests above).
    if (opts_.sample_tap != nullptr && !error) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        opts_.sample_tap->on_sample(maps[i], preds[i]);
      }
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // Publish stage timestamps before set_value: the future's readiness
      // is the release/acquire edge a remote front-end reads them through.
      if (batch[i].timing) {
        batch[i].timing->wake_ns = wake_ns;
        batch[i].timing->formed_ns = formed_ns;
        batch[i].timing->done_ns = done_ns;
      }
      if (batch[i].trace.active()) {
        const std::uint64_t id = batch[i].trace.trace_id;
        obs::trace_span_at("engine.queue", to_ns(batch[i].enqueued), wake_ns,
                           id);
        obs::trace_span_at("engine.batch", wake_ns, formed_ns, id);
        obs::trace_span_at("engine.compute", formed_ns, done_ns, id);
        obs::trace_flow('t', id, (formed_ns + done_ns) / 2);
      }
      if (error) {
        batch[i].promise.set_exception(error);
      } else {
        batch[i].promise.set_value(preds[i]);
      }
      if (batch[i].on_done) batch[i].on_done();
    }
  }
}

}  // namespace wm::serve
