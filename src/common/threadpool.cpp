#include "common/threadpool.hpp"

#include <atomic>
#include <exception>
#include <memory>
#include <string>

#include "common/env.hpp"

namespace wm {

namespace {

// Set for the lifetime of each worker thread; lets parallel_for detect a
// nested call from inside one of its own workers (or any pool's worker —
// nesting pools inside pools is equally deadlock-prone) and run inline.
thread_local const ThreadPool* current_worker_pool = nullptr;

std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> slot;
  return slot;
}

std::mutex& global_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

std::size_t ThreadPool::default_worker_count() {
  // Hardened parse: "8x", "-3", or an overflowing value warns and falls
  // back to auto instead of silently configuring a surprise thread count.
  if (const auto threads = env_int("WM_THREADS", 1, 1 << 16)) {
    return static_cast<std::size_t>(*threads - 1);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 1 ? hc - 1 : 0;
}

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == kAutoWorkers) workers = default_worker_count();
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  current_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

bool ThreadPool::on_worker_thread() const {
  return current_worker_pool != nullptr;
}

void ThreadPool::parallel_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  // Serial fast path: no workers, a single chunk, or a nested call from a
  // worker thread. Enqueueing from a worker and blocking on completion can
  // deadlock (all workers stuck in the wait, nobody left to drain the
  // queue), so nested calls degrade to inline execution.
  if (workers_.empty() || n == 1 || on_worker_thread()) {
    fn(begin, end);
    return;
  }

  const std::size_t chunks = chunk_count(n);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;

  std::atomic<std::size_t> remaining(chunks);
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  auto run_chunk = [&](std::size_t c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    try {
      if (lo < hi) fn(lo, hi);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
    // Decrement and notify under done_mutex: the caller returns (and these
    // stack locals die) as soon as it sees remaining == 0, so the last
    // worker must be done touching done_mutex/done_cv before that can
    // happen.
    const std::lock_guard<std::mutex> lock(done_mutex);
    if (remaining.fetch_sub(1) == 1) done_cv.notify_one();
  };

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t c = 1; c < chunks; ++c) {
      tasks_.push([run_chunk, c] { run_chunk(c); });
    }
  }
  cv_.notify_all();
  run_chunk(0);  // caller participates

  {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return remaining.load() == 0; });
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  parallel_chunks(begin, end, [&fn](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

ThreadPool& ThreadPool::global() {
  const std::lock_guard<std::mutex> lock(global_mutex());
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>();
  return *slot;
}

void ThreadPool::configure_global(std::size_t total_threads) {
  const std::lock_guard<std::mutex> lock(global_mutex());
  auto& slot = global_slot();
  slot.reset();  // join old workers before spawning replacements
  slot = std::make_unique<ThreadPool>(
      total_threads == 0 ? kAutoWorkers : total_threads - 1);
}

}  // namespace wm
