// wm::obs metrics — a lock-cheap registry of named instruments.
//
// Three instrument kinds, all safe to update from any thread:
//
//   * Counter   — monotonically increasing uint64 (relaxed atomic add).
//   * Gauge     — a double that can be set or adjusted (atomic store / CAS).
//   * Histogram — log-bucketed value distribution; every field is an atomic,
//                 so record() never takes a lock.
//
// The Registry owns instruments by name and hands out stable references:
// hot paths look an instrument up once (e.g. into a function-local static)
// and then touch only atomics. Snapshots/exports walk the registry under a
// mutex but read instruments with relaxed loads, so exporting never stalls
// writers.
//
// Naming convention: wm_<subsystem>_<name>, with counters suffixed _total
// (Prometheus style), e.g. wm_tensor_gemm_calls_total, wm_serve_queue_depth.
//
// Exporters: prometheus_text() emits the Prometheus exposition format
// (cumulative histogram buckets, # HELP/# TYPE headers); json_text() emits
// one JSON object for programmatic consumption.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace wm::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  void inc() { add(1.0); }
  void dec() { add(-1.0); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time copy of a Histogram; plain data plus quantile helpers.
struct HistogramSnapshot {
  std::vector<std::int64_t> bounds;    // upper bucket bounds, ascending
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (last = overflow)
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t max = 0;
  std::string unit;  // printed after values in to_string(), e.g. "us"

  double mean() const;
  /// q-quantile estimate, q in [0, 1]; 0 when empty. The target rank is
  /// located in its bucket and the value is interpolated *geometrically*
  /// between the bucket's bounds (log-bucketed schemes spread mass
  /// log-uniformly, so lo*(hi/lo)^frac is the natural mid-bucket estimate;
  /// the first bucket, whose lower bound is 0, interpolates linearly).
  /// Never exceeds the observed maximum; ranks landing in the overflow
  /// bucket report that maximum.
  std::int64_t quantile(double q) const;
  /// One "  <= bound unit: count" line per non-empty bucket.
  std::string to_string() const;
};

/// Concurrent log-bucketed histogram of non-negative integer values
/// (negative records clamp to 0). Bucket bounds are fixed at construction.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds, std::string unit = "");

  void record(std::int64_t v);
  HistogramSnapshot snapshot() const;

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  const std::vector<std::int64_t>& bounds() const { return bounds_; }
  const std::string& unit() const { return unit_; }

  /// 1-2-5 decades from 50us to 5s: the serving-latency scheme
  /// (serve::EngineStats::latency uses it).
  static std::vector<std::int64_t> latency_bounds_us();
  /// Powers of two 1..512, for batch sizes and queue depths.
  static std::vector<std::int64_t> size_bounds();

 private:
  std::vector<std::int64_t> bounds_;
  std::string unit_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Named instrument store. Lookup methods create on first use and return the
/// existing instrument afterwards; a name is bound to one kind for the
/// registry's lifetime (re-requesting it as another kind throws), and a
/// histogram's bounds must match on every lookup.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name,
                       std::vector<std::int64_t> bounds,
                       const std::string& unit = "",
                       const std::string& help = "");

  /// Info-style metric: a constant 1 whose label pairs carry the payload
  /// (Prometheus `name{key="value",...} 1` convention, e.g. wm_build_info).
  /// Re-setting an existing name replaces its labels; label order is kept.
  void set_info(const std::string& name,
                std::vector<std::pair<std::string, std::string>> labels,
                const std::string& help = "");

  /// Prometheus exposition format (counters, gauges, then histograms with
  /// cumulative buckets), names sorted within each kind.
  std::string prometheus_text() const;
  /// {"counters":{...},"gauges":{...},"histograms":{name:{...}}}.
  std::string json_text() const;

  /// Process-wide registry. Intentionally never destroyed so instruments
  /// cached by hot paths stay valid through static teardown.
  static Registry& global();

 private:
  template <typename T>
  struct Entry {
    std::unique_ptr<T> instrument;
    std::string help;
  };

  void check_name_free(const std::string& name, const char* kind) const;

  struct InfoEntry {
    std::vector<std::pair<std::string, std::string>> labels;
    std::string help;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
  std::map<std::string, InfoEntry> infos_;
};

/// Bumps a counter in the global registry, resolving it once per call site
/// (function-local static); `name` and `help` must be string literals.
#define WM_COUNTER_INC(name, help)                                       \
  do {                                                                   \
    static ::wm::obs::Counter& wm_counter_inc_ref =                      \
        ::wm::obs::Registry::global().counter(name, help);               \
    wm_counter_inc_ref.inc();                                            \
  } while (false)

}  // namespace wm::obs
