// Fixed-size thread pool with blocking parallel loops.
//
// The pool is the process-wide compute substrate: conv/GEMM batch loops,
// predictor fan-out and augmentation all schedule through global(). Sizing:
//
//   * WM_THREADS env (read once, at first use of global()) sets the *total*
//     number of compute threads including the calling thread. WM_THREADS=1
//     forces fully serial, bit-reproducible execution with zero scheduling
//     overhead.
//   * Unset, the pool uses hardware_concurrency - 1 workers (the caller
//     participates, so all cores are busy). On a single-core host this
//     degenerates to inline execution.
//
// parallel_for / parallel_chunks are re-entrant: a call made from inside a
// pool worker runs inline on that worker instead of enqueueing (a nested
// enqueue-and-wait could deadlock once every worker blocks in the wait).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace wm {

class ThreadPool {
 public:
  /// Sentinel worker count meaning "size from WM_THREADS / the hardware".
  static constexpr std::size_t kAutoWorkers = static_cast<std::size_t>(-1);

  /// Creates exactly `workers` worker threads; 0 workers executes every
  /// parallel loop inline on the caller. kAutoWorkers (the default) resolves
  /// via default_worker_count().
  explicit ThreadPool(std::size_t workers = kAutoWorkers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Runs fn(i) for i in [begin, end), partitioned into contiguous chunks,
  /// and blocks until all iterations complete. Exceptions from fn propagate
  /// (first one wins). Runs inline when called from a worker of this pool.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Chunked variant for callers that set up scratch once per chunk: runs
  /// fn(lo, hi) over a partition of [begin, end) into at most one contiguous
  /// chunk per thread (workers + caller), each on one thread. Which chunk a
  /// thread runs is not part of the contract, so nothing may be reduced per
  /// chunk: results must not depend on the pool size.
  void parallel_chunks(std::size_t begin, std::size_t end,
                       const std::function<void(std::size_t, std::size_t)>& fn);

  /// Process-wide pool shared by the nn library. First use sizes it from
  /// WM_THREADS (see file comment).
  static ThreadPool& global();

  /// Rebuilds the global pool with the given total thread count (0 = auto,
  /// 1 = serial, n = caller + n-1 workers). Test/bench hook; must not be
  /// called while parallel work is in flight.
  static void configure_global(std::size_t total_threads);

  /// Worker count "auto" resolves to: WM_THREADS - 1 when the env var is set
  /// (clamped at >= 0), hardware_concurrency - 1 otherwise.
  static std::size_t default_worker_count();

 private:
  /// Upper bound on concurrently running chunks (workers + caller).
  std::size_t max_chunks() const { return workers_.size() + 1; }

  /// Number of chunks parallel_chunks() uses for a range of n items.
  std::size_t chunk_count(std::size_t n) const {
    return n < max_chunks() ? n : max_chunks();
  }

  void worker_loop();

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace wm
