#include "obs/timeseries.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace wm::obs {

namespace {

/// Samples kept per counter: rate() reads back across its trailing window.
constexpr std::size_t kCounterRingCapacity = 512;

}  // namespace

SeriesRing::SeriesRing(std::size_t capacity) : buf_(std::max<std::size_t>(capacity, 1)) {}

void SeriesRing::push(std::int64_t t_ms, double value) {
  const std::size_t slot = (head_ + size_) % buf_.size();
  buf_[slot] = Sample{t_ms, value};
  if (size_ < buf_.size()) {
    ++size_;
  } else {
    head_ = (head_ + 1) % buf_.size();  // overwrote the oldest
  }
}

const SeriesRing::Sample& SeriesRing::at(std::size_t i) const {
  WM_CHECK(i < size_, "SeriesRing index ", i, " out of range ", size_);
  return buf_[(head_ + i) % buf_.size()];
}

void CounterSeries::observe(std::int64_t t_ms, std::uint64_t raw) {
  if (seen && raw < last_raw) {
    // Counter went backwards: the process restarted and the counter began
    // again from zero. Fold the whole pre-restart total into the offset so
    // the corrected series stays monotone (Prometheus reset rule).
    offset += static_cast<double>(last_raw);
    ++resets;
  }
  last_raw = raw;
  seen = true;
  ring.push(t_ms, offset + static_cast<double>(raw));
}

double CounterSeries::rate(std::int64_t now_ms, std::int64_t window_ms) const {
  if (ring.size() < 2) return 0.0;
  const SeriesRing::Sample& newest = ring.latest();
  // Oldest sample still inside the window; fall back to the oldest kept
  // sample when the ring doesn't reach back that far.
  const SeriesRing::Sample* oldest = &ring.at(0);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const SeriesRing::Sample& s = ring.at(i);
    if (s.t_ms >= now_ms - window_ms) {
      oldest = &s;
      break;
    }
  }
  if (oldest->t_ms >= newest.t_ms) return 0.0;
  const double dv = newest.value - oldest->value;
  const double dt_s = static_cast<double>(newest.t_ms - oldest->t_ms) / 1000.0;
  return dv / dt_s;
}

void HistogramSeries::observe(const PromHistogram& h) {
  if (seen && h.count < latest.count) ++resets;
  latest = h;
  seen = true;
}

TimeSeriesStore::TimeSeriesStore(TimeSeriesStoreOptions opts) : opts_(opts) {}

void TimeSeriesStore::note_transition(Target& t, bool now_up,
                                      std::int64_t t_ms) {
  if (t.health.ever_scraped && t.health.up != now_up) {
    ++t.health.up_transitions;
  } else if (!t.health.ever_scraped && now_up) {
    // First ever successful scrape counts as the down->up edge.
    ++t.health.up_transitions;
  }
  t.health.up = now_up;
  t.health.last_attempt_ms = t_ms;
  ++t.health.scrapes;
}

void TimeSeriesStore::observe(const std::string& name, std::int64_t t_ms,
                              double scrape_duration_ms,
                              const PromDump& dump) {
  Target& t = targets_[name];
  note_transition(t, /*now_up=*/true, t_ms);
  t.health.ever_scraped = true;
  t.health.last_success_ms = t_ms;
  t.health.last_scrape_duration_ms = scrape_duration_ms;

  for (const auto& [cname, sample] : dump.counters) {
    CounterSeries& series =
        t.counters.try_emplace(cname, kCounterRingCapacity).first->second;
    const std::uint64_t before = series.resets;
    series.observe(t_ms, sample.value);
    t.health.counter_resets += series.resets - before;
  }
  for (const auto& [gname, sample] : dump.gauges) {
    t.gauges[gname] = sample.value;
  }
  for (const auto& [hname, h] : dump.histograms) {
    HistogramSeries& series = t.histograms[hname];
    const std::uint64_t before = series.resets;
    series.observe(h);
    t.health.counter_resets += series.resets - before;
  }
  t.latest = dump;
}

void TimeSeriesStore::observe_failure(const std::string& name,
                                      std::int64_t t_ms) {
  Target& t = targets_[name];
  note_transition(t, /*now_up=*/false, t_ms);
  ++t.health.failures;
}

const TargetHealth* TimeSeriesStore::health(const std::string& name) const {
  const auto it = targets_.find(name);
  return it == targets_.end() ? nullptr : &it->second.health;
}

FleetAggregate TimeSeriesStore::aggregate(std::int64_t now_ms) const {
  FleetAggregate agg;
  agg.at_ms = now_ms;
  agg.targets_total = static_cast<int>(targets_.size());

  for (const auto& [name, t] : targets_) {
    agg.health[name] = t.health;
    const bool fresh = t.health.up && t.health.ever_scraped &&
                       now_ms - t.health.last_success_ms <= opts_.staleness_ms;
    if (!fresh) continue;
    ++agg.targets_up;
    agg.per_target[name] = t.latest;

    for (const auto& [cname, series] : t.counters) {
      agg.counters[cname] += series.latest();
      agg.counter_rates[cname] += series.rate(now_ms, opts_.rate_window_ms);
    }
    for (const auto& [gname, v] : t.gauges) {
      GaugeStats& s = agg.gauges[gname];
      if (s.n == 0) {
        s.min = s.max = v;
      } else {
        s.min = std::min(s.min, v);
        s.max = std::max(s.max, v);
      }
      s.mean += v;  // running sum; divided by n below
      ++s.n;
    }
    for (const auto& [hname, series] : t.histograms) {
      if (!series.seen) continue;
      if (std::find(agg.mismatched_histograms.begin(),
                    agg.mismatched_histograms.end(),
                    hname) != agg.mismatched_histograms.end()) {
        continue;  // already refused for layout mismatch
      }
      const HistogramSnapshot snap = series.latest.to_snapshot();
      auto it = agg.histograms.find(hname);
      if (it == agg.histograms.end()) {
        agg.histograms.emplace(hname, snap);
        continue;
      }
      HistogramSnapshot& merged = it->second;
      if (merged.bounds != snap.bounds) {
        // Refuse to merge different layouts — an approximate merge would
        // silently poison the "exact fleet quantiles" guarantee.
        agg.mismatched_histograms.push_back(hname);
        agg.histograms.erase(it);
        continue;
      }
      for (std::size_t b = 0; b < merged.buckets.size(); ++b) {
        merged.buckets[b] += snap.buckets[b];
      }
      merged.count += snap.count;
      merged.sum += snap.sum;
      merged.max = std::max(merged.max, snap.max);
    }
  }
  for (auto& [gname, s] : agg.gauges) {
    (void)gname;
    if (s.n > 0) s.mean /= s.n;
  }
  return agg;
}

}  // namespace wm::obs
