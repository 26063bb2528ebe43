#include "common/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace wm {
namespace {

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);  // explicitly serial: every index runs on the caller
  EXPECT_EQ(pool.worker_count(), 0u);
  int chunks = 0;
  pool.parallel_chunks(0, 100, [&](std::size_t, std::size_t) { ++chunks; });
  EXPECT_EQ(chunks, 1);
  std::vector<int> hits(100, 0);  // plain ints: inline execution, no races
  pool.parallel_for(0, 100, [&](std::size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndicesWithWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  pool.parallel_for(6, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, NonZeroBegin) {
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(10, 20, [&](std::size_t i) { total += i; });
  EXPECT_EQ(total.load(), std::size_t(145));  // 10+...+19
}

TEST(ThreadPoolTest, ExceptionsPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 10,
                        [&](std::size_t i) {
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 50, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 50);
  }
}

// Regression test: the last worker used to lock the caller's stack-local
// done_mutex after the caller had already seen remaining == 0 and returned
// (a use-after-scope TSan reports and that aborted ctest now and then).
// Two callers hammering tiny loops on one pool make that window common.
TEST(ThreadPoolTest, ConcurrentCallersNeverOutliveTheirCompletionState) {
  ThreadPool pool(3);
  constexpr int kCalls = 50000;
  std::atomic<long> total{0};
  auto caller = [&] {
    for (int call = 0; call < kCalls; ++call) {
      pool.parallel_for(0, 4, [&](std::size_t) { total++; });
    }
  };
  std::thread other(caller);
  caller();
  other.join();
  EXPECT_EQ(total.load(), 2L * kCalls * 4);
}

// Regression test: a parallel_for issued from inside a worker used to
// deadlock (all workers blocked waiting on the inner loop's completion).
// Nested calls must run inline on the worker instead.
TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64 * 16);
  pool.parallel_for(0, 64, [&](std::size_t outer) {
    pool.parallel_for(0, 16, [&](std::size_t inner) {
      hits[outer * 16 + inner]++;
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelChunksPartitionsRange) {
  ThreadPool pool(3);
  const auto chunks_for = [&](std::size_t n) {
    std::atomic<int> chunks{0};
    pool.parallel_chunks(0, n, [&](std::size_t, std::size_t) { chunks++; });
    return chunks.load();
  };
  EXPECT_EQ(chunks_for(2), 2);    // never more chunks than items
  EXPECT_EQ(chunks_for(100), 4);  // one per thread: 3 workers + the caller
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_chunks(0, 100, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelChunksSerialIsSingleChunk) {
  ThreadPool pool(0);
  int calls = 0;
  pool.parallel_chunks(3, 40, [&](std::size_t lo, std::size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 3u);
    EXPECT_EQ(hi, 40u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, GlobalPoolSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadPoolTest, ConfigureGlobalSetsWorkerCount) {
  ThreadPool::configure_global(1);  // WM_THREADS=1 equivalent: serial
  EXPECT_EQ(ThreadPool::global().worker_count(), 0u);
  ThreadPool::configure_global(3);  // caller + 2 workers
  EXPECT_EQ(ThreadPool::global().worker_count(), 2u);
  ThreadPool::configure_global(0);  // back to the WM_THREADS/auto default
  EXPECT_EQ(ThreadPool::global().worker_count(),
            ThreadPool::default_worker_count());
}

TEST(ThreadPoolTest, DefaultWorkerCountHonoursEnv) {
  const char* saved = std::getenv("WM_THREADS");
  const std::string saved_value = saved ? saved : "";
  setenv("WM_THREADS", "1", 1);
  EXPECT_EQ(ThreadPool::default_worker_count(), 0u);
  setenv("WM_THREADS", "4", 1);
  EXPECT_EQ(ThreadPool::default_worker_count(), 3u);
  if (saved) {
    setenv("WM_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("WM_THREADS");
  }
}

}  // namespace
}  // namespace wm
