// wm::obs SLO engine — declarative objectives over the fleet aggregate,
// evaluated with multi-window burn rates and hysteretic alerting.
//
// Each SloRule names an objective the fleet must hold:
//
//   kAvailability  — bad requests (shed + timeout + NO_REPLICA) must stay
//                    under the error budget 1-objective of total requests;
//   kLatencyP99    — at most 1-objective of requests may exceed
//                    latency_threshold_us, measured on the bucket-merged
//                    fleet histogram (counting the buckets above the
//                    threshold — exact, no quantile estimation involved);
//   kRiskCeiling   — the fleet-mean wm_monitor_selective_risk gauge must
//                    stay below `objective` (the paper's guaranteed
//                    selective risk, now enforced fleet-wide);
//   kCoverageFloor — the fleet-mean coverage gauge must stay above
//                    `objective`.
//
// Every evaluate() tick computes a *burn rate* per rule — consumed error
// budget as a multiple of the allowed budget (burn 1.0 = exactly on
// budget) — over two trailing windows: a fast window that reacts to sharp
// regressions and a slow window that filters blips (Google SRE multi-window
// multi-burn-rate alerting). The alarm fires only when BOTH windows exceed
// fire_burn for fire_count consecutive ticks, and clears only after both
// stay under clear_fraction x fire_burn for clear_count ticks.
// serve::SelectiveMonitor's drift alarm has the same clear_fraction band but
// no streaks — it fires and clears on a single update — so under flapping
// inputs the monitor's alarm toggles with each crossing while this engine
// waits out fire_count / clear_count ticks.
//
// Side effects per tick: wm_slo_<rule>_burn_fast/_burn_slow/_firing gauges,
// wm_slo_fires_total / wm_slo_clears_total counters, slo_burn / slo_clear
// run-log events, and Perfetto counter tracks (slo.<kind>.burn) that line
// up with the serve/net spans in a merged trace.
//
// Not thread-safe; the Collector serialises evaluate() with its scrape
// loop.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/run_log.hpp"
#include "obs/timeseries.hpp"

namespace wm::obs {

enum class SloKind { kAvailability, kLatencyP99, kRiskCeiling, kCoverageFloor };

const char* slo_kind_name(SloKind kind);

struct SloRule {
  /// Metric-name-safe identifier ([A-Za-z_][A-Za-z0-9_]*): becomes the
  /// wm_slo_<name>_* gauge family and the run-log event's rule field.
  std::string name;
  SloKind kind = SloKind::kAvailability;
  /// kAvailability/kLatencyP99: success objective in (0,1), e.g. 0.999
  /// leaves a 0.1% error budget. kRiskCeiling: max tolerable fleet-mean
  /// risk. kCoverageFloor: min tolerable fleet-mean coverage.
  double objective = 0.999;

  // kAvailability sources.
  std::vector<std::string> bad_counters = {
      "wm_net_shed_total", "wm_net_timeout_total",
      "wm_router_no_replica_total"};
  std::string total_counter = "wm_net_requests_total";

  // kLatencyP99 sources.
  std::string histogram = "wm_net_request_latency_us";
  std::int64_t latency_threshold_us = 50'000;

  // kRiskCeiling / kCoverageFloor source (fleet-mean of this gauge).
  std::string gauge;

  /// Trailing windows in evaluate() ticks.
  std::size_t fast_window = 3;
  std::size_t slow_window = 12;
  /// Burn both windows must exceed to arm the alarm; 1.0 = on budget.
  double fire_burn = 1.0;
  /// Consecutive over-burn ticks before the alarm fires.
  int fire_count = 2;
  /// Clears when both burns < clear_fraction x fire_burn ...
  double clear_fraction = 0.5;
  /// ... for this many consecutive ticks.
  int clear_count = 3;
};

/// Point-in-time state of one rule.
struct SloStatus {
  std::string name;
  SloKind kind = SloKind::kAvailability;
  double objective = 0.0;
  double burn_fast = 0.0;
  double burn_slow = 0.0;
  bool firing = false;
  std::uint64_t fires = 0;
  std::uint64_t clears = 0;
  std::uint64_t ticks = 0;
};

struct SloEngineOptions {
  /// Where wm_slo_* instruments live; nullptr = engine-private registry.
  Registry* registry = nullptr;
  /// Sink for slo_burn / slo_clear events; nullptr = run_log_global().
  RunLog* run_log = nullptr;
};

class SloEngine {
 public:
  explicit SloEngine(std::vector<SloRule> rules, SloEngineOptions opts = {});

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// One evaluation tick against the current fleet aggregate.
  void evaluate(const FleetAggregate& agg);

  std::vector<SloStatus> status() const;
  bool any_firing() const;
  const std::vector<SloRule>& rules() const { return rules_; }

  /// The standard rule set: 99.9% availability, p99 <= 50ms request
  /// latency, selective risk <= risk_ceiling, coverage >= coverage_floor.
  static std::vector<SloRule> default_rules(double risk_ceiling = 0.05,
                                            double coverage_floor = 0.3);

 private:
  struct RuleState {
    // Cumulative (bad, total) pairs per tick for budget-counter rules,
    // instantaneous values for gauge rules; bounded by slow_window + 1.
    std::deque<double> bad;
    std::deque<double> total;
    std::deque<double> value;
    int over_streak = 0;
    int under_streak = 0;
    bool firing = false;
    std::uint64_t fires = 0;
    std::uint64_t clears = 0;
    std::uint64_t ticks = 0;
    double burn_fast = 0.0;
    double burn_slow = 0.0;
    Gauge* burn_fast_gauge = nullptr;
    Gauge* burn_slow_gauge = nullptr;
    Gauge* firing_gauge = nullptr;
  };

  double burn_over(const SloRule& rule, const RuleState& st,
                   std::size_t window) const;

  std::vector<SloRule> rules_;
  mutable Registry own_metrics_;
  Registry& metrics_;
  RunLog& run_log_;
  Counter& fires_total_;
  Counter& clears_total_;
  std::vector<RuleState> states_;
};

}  // namespace wm::obs
