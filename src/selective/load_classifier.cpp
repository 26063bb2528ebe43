#include "selective/load_classifier.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "selective/batched_inference.hpp"
#include "selective/inference_plan.hpp"
#include "selective/model_file.hpp"

namespace wm {

namespace {

/// The selective classifier over a compiled InferencePlan of either
/// precision. It shares the plan with its re-cuts and references no net.
class PlanClassifier final : public LoadedClassifier {
 public:
  PlanClassifier(std::shared_ptr<const selective::InferencePlan> plan,
                 const ClassifierLoadOptions& opts)
      : plan_(std::move(plan)), opts_(opts) {
    WM_CHECK(!std::isnan(opts.threshold) && opts.threshold >= 0.0f &&
                 opts.threshold <= 1.0f,
             "threshold out of [0,1]");
    WM_CHECK(opts.eval_batch > 0, "bad eval batch size");
  }

  std::vector<SelectivePrediction> predict_batch(
      std::span<const WaferMap> maps) const override {
    return selective::detail::predict_batched(
        [this](const Tensor& images) { return plan_->infer(images); },
        map_size(), opts_.threshold, opts_.eval_batch, maps);
  }
  int num_classes() const override { return plan_->options().num_classes; }
  int map_size() const override { return plan_->options().map_size; }
  bool is_quantized() const override { return plan_->is_quantized(); }
  float threshold() const override { return opts_.threshold; }
  std::unique_ptr<LoadedClassifier> with_threshold(float tau) const override {
    ClassifierLoadOptions opts = opts_;
    opts.threshold = tau;
    return std::make_unique<PlanClassifier>(plan_, opts);
  }

 private:
  const std::shared_ptr<const selective::InferencePlan> plan_;
  ClassifierLoadOptions opts_;
};

/// Compiles the net into a plan the classifier owns; the net is not kept.
template <typename Net>
std::unique_ptr<LoadedClassifier> compiled(const Net& net,
                                           const ClassifierLoadOptions& opts) {
  return std::make_unique<PlanClassifier>(
      std::make_shared<const selective::InferencePlan>(net), opts);
}

}  // namespace

std::unique_ptr<LoadedClassifier> load_classifier(
    const std::string& path, const ClassifierLoadOptions& opts) {
  if (selective::probe_model_file(path) == selective::ModelFileKind::kFloat) {
    return compiled(*selective::load_model(path), opts);
  }
  return compiled(*selective::load_quantized_model(path), opts);
}

std::unique_ptr<LoadedClassifier> load_classifier(
    const selective::SelectiveNet& net, const ClassifierLoadOptions& opts) {
  return compiled(net, opts);
}

std::unique_ptr<LoadedClassifier> load_classifier(
    std::unique_ptr<selective::SelectiveNet> net,
    const ClassifierLoadOptions& opts) {
  WM_CHECK(net != nullptr, "load_classifier: null net");
  return compiled(*net, opts);
}

std::unique_ptr<LoadedClassifier> load_classifier(
    const selective::QuantizedSelectiveNet& net,
    const ClassifierLoadOptions& opts) {
  return compiled(net, opts);
}

}  // namespace wm
