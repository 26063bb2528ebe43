#include "selective/calibrate.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "selective/batched_inference.hpp"
#include "selective/inference_plan.hpp"

namespace wm::selective {

float refit_threshold(std::span<const float> g_scores,
                      double target_coverage) {
  WM_CHECK(target_coverage > 0.0 && target_coverage <= 1.0,
           "target coverage out of (0,1]");
  WM_CHECK(!g_scores.empty(), "refit_threshold: empty score window");

  std::vector<float> gs(g_scores.begin(), g_scores.end());
  std::sort(gs.begin(), gs.end(), std::greater<float>());

  // Selecting the k highest-g samples gives coverage k/N; pick k for the
  // target, then cut just below the k-th score so ties stay selected.
  const std::size_t n = gs.size();
  std::size_t k = static_cast<std::size_t>(
      std::llround(target_coverage * static_cast<double>(n)));
  k = std::clamp<std::size_t>(k, 1, n);
  const float kth = gs[k - 1];
  // Nudge below the k-th value; clamp into [0,1].
  return std::clamp(kth - 1e-6f, 0.0f, 1.0f);
}

double coverage_at(std::span<const float> g_scores, float tau) {
  if (g_scores.empty()) return 0.0;
  std::size_t selected = 0;
  for (const float g : g_scores) selected += g >= tau;
  return static_cast<double>(selected) / static_cast<double>(g_scores.size());
}

float calibrate_threshold(const SelectiveNet& net, const Dataset& validation,
                          double target_coverage, int eval_batch) {
  WM_CHECK(!validation.empty(), "empty calibration set");
  WM_CHECK(eval_batch > 0, "bad eval batch size");

  // Scored through a plan compiled from the net, as a classifier loaded
  // from it would score, without a copy of the net.
  const InferencePlan plan(net);
  std::vector<WaferMap> maps;
  maps.reserve(validation.size());
  for (std::size_t i = 0; i < validation.size(); ++i) {
    maps.push_back(validation[i].map);
  }
  const auto preds = detail::predict_batched(
      [&plan](const Tensor& images) { return plan.infer(images); },
      plan.options().map_size, 0.0f, eval_batch, maps);
  std::vector<float> gs(preds.size());
  for (std::size_t i = 0; i < preds.size(); ++i) gs[i] = preds[i].g;
  return refit_threshold(gs, target_coverage);
}

}  // namespace wm::selective
