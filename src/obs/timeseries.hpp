// wm::obs time-series store — fixed-capacity history for scraped samples.
//
// The collector feeds one PromDump per (target, scrape) into a
// TimeSeriesStore. The store keeps, per target, what aggregate() reads:
//
//   * a SeriesRing per counter, holding *reset-corrected* cumulative values:
//     a raw value lower than the previous one means the replica restarted,
//     so the previous raw total is folded into a monotonic offset (the
//     standard Prometheus counter-reset rule) and the corrected series keeps
//     increasing across restarts; the ring is what windowed rates need;
//   * the latest value per gauge;
//   * the latest histogram state per name, with count-regression treated as
//     a restart (reset counted);
//   * scalar health — up, last scrape duration, staleness, attempt/failure
//     counts, up-transition and counter-reset totals.
//
// Counter rings have a fixed capacity; pushing past it drops the oldest
// sample. Nothing here allocates on the scrape path beyond first sight of a
// new series name.
//
// aggregate() folds the latest samples of every *live* target (up, and
// scraped within the staleness horizon) into a FleetAggregate:
//
//   counters   → fleet sum of corrected values + windowed per-second rate
//   gauges     → min / mean / max across targets
//   histograms → bucket-wise sum. Every process uses the same log-bucket
//                layouts (Histogram::latency_bounds_us() etc.), so merging
//                per-bucket counts is *exact*: fleet quantiles computed from
//                the merged snapshot equal quantiles of the union of the
//                per-target samples at bucket resolution. Mismatched bounds
//                are never merged — the name lands in mismatched_histograms.
//
// The store is NOT thread-safe; the Collector serialises access.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/prom_parse.hpp"

namespace wm::obs {

/// Fixed-capacity ring of (timestamp, value) samples, oldest dropped first.
class SeriesRing {
 public:
  struct Sample {
    std::int64_t t_ms = 0;
    double value = 0.0;
  };

  explicit SeriesRing(std::size_t capacity);

  void push(std::int64_t t_ms, double value);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// i-th sample, oldest first; i must be < size().
  const Sample& at(std::size_t i) const;
  const Sample& latest() const { return at(size_ - 1); }

 private:
  std::vector<Sample> buf_;
  std::size_t head_ = 0;  // index of the oldest sample
  std::size_t size_ = 0;
};

/// Reset-corrected cumulative counter history.
struct CounterSeries {
  explicit CounterSeries(std::size_t capacity) : ring(capacity) {}

  /// Feeds one raw scrape; applies the counter-reset rule.
  void observe(std::int64_t t_ms, std::uint64_t raw);
  /// Corrected cumulative value of the newest sample (0 when empty).
  double latest() const { return ring.empty() ? 0.0 : ring.latest().value; }
  /// Per-second increase over the trailing window (0 without two samples).
  double rate(std::int64_t now_ms, std::int64_t window_ms) const;

  SeriesRing ring;
  std::uint64_t last_raw = 0;
  double offset = 0.0;      // accumulated pre-restart totals
  std::uint64_t resets = 0;
  bool seen = false;
};

/// Latest histogram state; a count regression means the process restarted.
struct HistogramSeries {
  void observe(const PromHistogram& h);

  PromHistogram latest;
  std::uint64_t resets = 0;
  bool seen = false;
};

/// Scalar per-target health, maintained across scrape attempts.
struct TargetHealth {
  bool up = false;
  bool ever_scraped = false;
  std::int64_t last_attempt_ms = 0;
  std::int64_t last_success_ms = 0;
  double last_scrape_duration_ms = 0.0;
  std::uint64_t scrapes = 0;        // attempts
  std::uint64_t failures = 0;
  std::uint64_t up_transitions = 0;  // up<->down edges observed
  std::uint64_t counter_resets = 0;  // summed over this target's series
};

struct GaugeStats {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  int n = 0;
};

/// One merged view of the fleet at aggregation time.
struct FleetAggregate {
  std::int64_t at_ms = 0;
  int targets_total = 0;
  int targets_up = 0;  // up AND fresh (within the staleness horizon)

  std::map<std::string, double> counters;        // fleet sums (corrected)
  std::map<std::string, double> counter_rates;   // fleet per-second rates
  std::map<std::string, GaugeStats> gauges;
  std::map<std::string, HistogramSnapshot> histograms;  // bucket-wise merged
  std::vector<std::string> mismatched_histograms;       // refused to merge

  std::map<std::string, TargetHealth> health;  // every known target
  /// Latest parsed dump per *live* target — the exact inputs the merged
  /// views above were computed from, so one aggregate is self-consistent
  /// (Σ per-target counts == merged count, always).
  std::map<std::string, PromDump> per_target;
};

struct TimeSeriesStoreOptions {
  /// Targets with no successful scrape within this horizon are excluded
  /// from aggregation even if their last attempt succeeded.
  std::int64_t staleness_ms = 10'000;
  /// Trailing window for counter rates in aggregate().
  std::int64_t rate_window_ms = 10'000;
};

class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(TimeSeriesStoreOptions opts = {});

  /// Records one successful scrape of `target`.
  void observe(const std::string& target, std::int64_t t_ms,
               double scrape_duration_ms, const PromDump& dump);
  /// Records a failed scrape attempt (target down / parse error).
  void observe_failure(const std::string& target, std::int64_t t_ms);

  FleetAggregate aggregate(std::int64_t now_ms) const;

  const TimeSeriesStoreOptions& options() const { return opts_; }
  /// Health for one target; nullptr if never seen.
  const TargetHealth* health(const std::string& target) const;

 private:
  struct Target {
    TargetHealth health;
    std::map<std::string, CounterSeries> counters;
    std::map<std::string, double> gauges;  // latest value
    std::map<std::string, HistogramSeries> histograms;
    PromDump latest;  // last successfully parsed dump
  };

  void note_transition(Target& t, bool now_up, std::int64_t t_ms);

  TimeSeriesStoreOptions opts_;
  std::map<std::string, Target> targets_;
};

}  // namespace wm::obs
