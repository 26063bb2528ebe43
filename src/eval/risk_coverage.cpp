#include "eval/risk_coverage.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace wm::eval {

std::vector<RiskCoveragePoint> risk_coverage_curve(
    const std::vector<SelectivePrediction>& preds,
    const std::vector<int>& labels) {
  WM_CHECK(preds.size() == labels.size(), "prediction/label size mismatch");
  WM_CHECK(!preds.empty(), "empty prediction set");
  const std::size_t n = preds.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return preds[a].g > preds[b].g;
  });

  std::vector<RiskCoveragePoint> curve;
  curve.reserve(n);
  std::size_t errors = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = order[k];
    errors += (preds[i].label != labels[i]);
    curve.push_back({.coverage = static_cast<double>(k + 1) / n,
                     .risk = static_cast<double>(errors) / (k + 1),
                     .threshold = preds[i].g});
  }
  return curve;
}

double aurc(const std::vector<RiskCoveragePoint>& curve) {
  WM_CHECK(!curve.empty(), "empty curve");
  double area = 0.0;
  double prev_cov = 0.0;
  double prev_risk = 0.0;  // empty selection: zero risk by convention
  for (const auto& pt : curve) {
    area += 0.5 * (pt.risk + prev_risk) * (pt.coverage - prev_cov);
    prev_cov = pt.coverage;
    prev_risk = pt.risk;
  }
  return area;
}

double risk_at_coverage(const std::vector<RiskCoveragePoint>& curve,
                        double coverage) {
  WM_CHECK(!curve.empty(), "empty curve");
  WM_CHECK(coverage >= 0.0 && coverage <= 1.0, "coverage out of [0,1]");
  for (const auto& pt : curve) {
    if (pt.coverage >= coverage) return pt.risk;
  }
  return curve.back().risk;
}

}  // namespace wm::eval
