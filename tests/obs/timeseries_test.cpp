// obs/timeseries: ring semantics, counter-reset correction, staleness, and
// the exactness of the bucket-wise fleet histogram merge.
#include "obs/timeseries.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/prom_parse.hpp"

namespace wm::obs {
namespace {

PromDump dump_of(Registry& r) {
  return parse_prometheus_text(r.prometheus_text());
}

TEST(SeriesRingTest, FixedCapacityDropsOldest) {
  SeriesRing ring(3);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 5; ++i) ring.push(i * 10, i);
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_DOUBLE_EQ(ring.at(0).value, 2.0);  // 0 and 1 fell off
  EXPECT_DOUBLE_EQ(ring.at(2).value, 4.0);
  EXPECT_EQ(ring.latest().t_ms, 40);
}

TEST(CounterSeriesTest, ResetDetectionKeepsSeriesMonotone) {
  CounterSeries c(16);
  c.observe(0, 100);
  c.observe(1000, 250);
  // Replica restarts: raw counter starts over from 30.
  c.observe(2000, 30);
  c.observe(3000, 80);
  EXPECT_EQ(c.resets, 1u);
  // Corrected: 250 (pre-restart total) + 80.
  EXPECT_DOUBLE_EQ(c.latest(), 330.0);
  for (std::size_t i = 1; i < c.ring.size(); ++i) {
    EXPECT_GE(c.ring.at(i).value, c.ring.at(i - 1).value);
  }
  // Rate over the full window: (330 - 100) / 3s.
  EXPECT_NEAR(c.rate(3000, 10'000), 230.0 / 3.0, 1e-9);
}

TEST(TimeSeriesStoreTest, UpTransitionsAndFailureTracking) {
  TimeSeriesStore store;
  Registry r;
  r.counter("wm_x_total").inc(5);
  store.observe("t1", 0, 0.5, dump_of(r));
  store.observe_failure("t1", 1000);
  store.observe_failure("t1", 2000);
  store.observe("t1", 3000, 0.4, dump_of(r));
  const TargetHealth* h = store.health("t1");
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->up);
  EXPECT_EQ(h->scrapes, 4u);
  EXPECT_EQ(h->failures, 2u);
  // up (first scrape), up->down, down->up.
  EXPECT_EQ(h->up_transitions, 3u);
}

TEST(TimeSeriesStoreTest, AggregateSumsCountersAndStatsGauges) {
  TimeSeriesStore store;
  Registry a, b, c;
  a.counter("wm_req_total").inc(100);
  b.counter("wm_req_total").inc(50);
  c.counter("wm_req_total").inc(7);
  a.gauge("wm_cov").set(0.5);
  b.gauge("wm_cov").set(0.7);
  c.gauge("wm_cov").set(0.3);
  store.observe("a", 1000, 0.1, dump_of(a));
  store.observe("b", 1000, 0.1, dump_of(b));
  store.observe("c", 1000, 0.1, dump_of(c));

  const FleetAggregate agg = store.aggregate(1500);
  EXPECT_EQ(agg.targets_total, 3);
  EXPECT_EQ(agg.targets_up, 3);
  EXPECT_DOUBLE_EQ(agg.counters.at("wm_req_total"), 157.0);
  const GaugeStats& g = agg.gauges.at("wm_cov");
  EXPECT_DOUBLE_EQ(g.min, 0.3);
  EXPECT_DOUBLE_EQ(g.max, 0.7);
  EXPECT_NEAR(g.mean, 0.5, 1e-12);
  EXPECT_EQ(g.n, 3);
}

TEST(TimeSeriesStoreTest, StaleAndDownTargetsAreExcluded) {
  TimeSeriesStoreOptions opts;
  opts.staleness_ms = 1000;
  TimeSeriesStore store(opts);
  Registry a, b;
  a.counter("wm_req_total").inc(10);
  b.counter("wm_req_total").inc(20);
  store.observe("fresh", 5000, 0.1, dump_of(a));
  store.observe("stale", 1000, 0.1, dump_of(b));
  store.observe_failure("down", 5000);

  const FleetAggregate agg = store.aggregate(5100);
  EXPECT_EQ(agg.targets_total, 3);
  EXPECT_EQ(agg.targets_up, 1);
  EXPECT_DOUBLE_EQ(agg.counters.at("wm_req_total"), 10.0);
  EXPECT_EQ(agg.per_target.count("fresh"), 1u);
  EXPECT_EQ(agg.per_target.count("stale"), 0u);
  EXPECT_FALSE(agg.health.at("down").up);
}

TEST(TimeSeriesStoreTest, HistogramMergeIsExactVsUnion) {
  // Three replicas record disjoint sample sets into identical layouts; the
  // merged fleet histogram must equal one histogram fed the union.
  Registry a, b, c, all;
  const std::string name = "wm_lat_us";
  Histogram& ha = a.histogram(name, Histogram::latency_bounds_us(), "us");
  Histogram& hb = b.histogram(name, Histogram::latency_bounds_us(), "us");
  Histogram& hc = c.histogram(name, Histogram::latency_bounds_us(), "us");
  Histogram& hu = all.histogram(name, Histogram::latency_bounds_us(), "us");
  for (int i = 1; i <= 300; ++i) {
    const std::int64_t v = 37 * i;  // spans several buckets
    (i % 3 == 0 ? ha : i % 3 == 1 ? hb : hc).record(v);
    hu.record(v);
  }
  TimeSeriesStore store;
  store.observe("a", 1000, 0.1, dump_of(a));
  store.observe("b", 1000, 0.1, dump_of(b));
  store.observe("c", 1000, 0.1, dump_of(c));

  const FleetAggregate agg = store.aggregate(1100);
  const HistogramSnapshot& merged = agg.histograms.at(name);
  // Union snapshot through the same parse path (so max degrades equally).
  const HistogramSnapshot union_snap =
      dump_of(all).histograms.at(name).to_snapshot();
  EXPECT_EQ(merged.bounds, union_snap.bounds);
  EXPECT_EQ(merged.buckets, union_snap.buckets);
  EXPECT_EQ(merged.count, union_snap.count);
  EXPECT_EQ(merged.sum, union_snap.sum);
  for (const double q : {0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(merged.quantile(q), union_snap.quantile(q)) << "q=" << q;
  }
  // Sanity: merged count equals the sum over per-target views.
  std::uint64_t sum = 0;
  for (const auto& [t, dump] : agg.per_target) {
    sum += dump.histograms.at(name).count;
  }
  EXPECT_EQ(merged.count, sum);
}

TEST(TimeSeriesStoreTest, MismatchedBucketLayoutsAreRefused) {
  Registry a, b;
  a.histogram("wm_h", {10, 100}, "us").record(5);
  b.histogram("wm_h", {10, 100, 1000}, "us").record(5);
  TimeSeriesStore store;
  store.observe("a", 0, 0.1, dump_of(a));
  store.observe("b", 0, 0.1, dump_of(b));
  const FleetAggregate agg = store.aggregate(100);
  EXPECT_EQ(agg.histograms.count("wm_h"), 0u);
  ASSERT_EQ(agg.mismatched_histograms.size(), 1u);
  EXPECT_EQ(agg.mismatched_histograms[0], "wm_h");
}

TEST(TimeSeriesStoreTest, HistogramCountRegressionCountsAsReset) {
  Registry big, small;
  big.histogram("wm_h", {10, 100}, "us").record(5);
  big.histogram("wm_h", {10, 100}, "us").record(50);
  small.histogram("wm_h", {10, 100}, "us").record(5);
  TimeSeriesStore store;
  store.observe("t", 0, 0.1, dump_of(big));
  store.observe("t", 1000, 0.1, dump_of(small));  // restarted replica
  EXPECT_EQ(store.health("t")->counter_resets, 1u);
  const FleetAggregate agg = store.aggregate(1100);
  EXPECT_EQ(agg.histograms.at("wm_h").count, 1u);  // post-restart state
}

}  // namespace
}  // namespace wm::obs
