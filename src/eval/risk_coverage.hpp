// Risk-coverage analysis: the full curve traced by sweeping the abstention
// threshold over a prediction set, and its area summary (AURC). This extends
// the paper's Fig 5 (which samples four c0 values) to the complete
// post-hoc trade-off of a single trained model.
#pragma once

#include <vector>

#include "serve/classifier.hpp"

namespace wm::eval {

struct RiskCoveragePoint {
  double coverage = 0.0;  // fraction of samples selected
  double risk = 0.0;      // error rate among selected samples
  float threshold = 0.0f; // g threshold realising this point
};

/// Sorts samples by decreasing selection score and emits one point per
/// prefix: selecting the k most-confident samples gives coverage k/N and
/// risk = errors(k)/k. Points are ordered by increasing coverage.
std::vector<RiskCoveragePoint> risk_coverage_curve(
    const std::vector<SelectivePrediction>& preds,
    const std::vector<int>& labels);

/// Area under the risk-coverage curve (trapezoidal, over coverage in [0,1];
/// the empty-selection endpoint has risk 0 by convention). Lower is better.
double aurc(const std::vector<RiskCoveragePoint>& curve);

/// Risk at the smallest curve point with coverage >= the target
/// (1.0/full risk when the target exceeds the achievable coverage range).
double risk_at_coverage(const std::vector<RiskCoveragePoint>& curve,
                        double coverage);

}  // namespace wm::eval
