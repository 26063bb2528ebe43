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
/// precision. It shares the plan, and the fp32 weights the plan was compiled
/// from, with its re-cuts.
class PlanClassifier final : public LoadedClassifier {
 public:
  PlanClassifier(std::shared_ptr<const selective::InferencePlan> plan,
                 std::shared_ptr<const selective::SelectiveNet> net,
                 const ClassifierLoadOptions& opts)
      : plan_(std::move(plan)), net_(std::move(net)), opts_(opts) {
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
    return std::make_unique<PlanClassifier>(plan_, net_, opts);
  }
  std::unique_ptr<selective::SelectiveNet> clone_net() const override {
    return net_ != nullptr ? net_->clone() : nullptr;
  }

 private:
  const std::shared_ptr<const selective::InferencePlan> plan_;
  /// nullptr when the plan is int8.
  const std::shared_ptr<const selective::SelectiveNet> net_;
  ClassifierLoadOptions opts_;
};

/// Compiles the fp32 net into a plan; the classifier keeps both. `net` must
/// hold no forward caches: a freshly loaded net or a clone.
std::unique_ptr<LoadedClassifier> compiled(
    std::shared_ptr<const selective::SelectiveNet> net,
    const ClassifierLoadOptions& opts) {
  auto plan = std::make_shared<const selective::InferencePlan>(*net);
  return std::make_unique<PlanClassifier>(std::move(plan), std::move(net),
                                          opts);
}

}  // namespace

std::unique_ptr<LoadedClassifier> load_classifier(
    const std::string& path, const ClassifierLoadOptions& opts) {
  if (selective::probe_model_file(path) == selective::ModelFileKind::kFloat) {
    return compiled(selective::load_model(path), opts);
  }
  return load_classifier(*selective::load_quantized_model(path), opts);
}

std::unique_ptr<LoadedClassifier> load_classifier(
    const selective::SelectiveNet& net, const ClassifierLoadOptions& opts) {
  return compiled(net.clone(), opts);
}

std::unique_ptr<LoadedClassifier> load_classifier(
    std::unique_ptr<selective::SelectiveNet> net,
    const ClassifierLoadOptions& opts) {
  WM_CHECK(net != nullptr, "load_classifier: null net");
  return load_classifier(*net, opts);
}

std::unique_ptr<LoadedClassifier> load_classifier(
    const selective::QuantizedSelectiveNet& net,
    const ClassifierLoadOptions& opts) {
  return std::make_unique<PlanClassifier>(
      std::make_shared<const selective::InferencePlan>(net), nullptr, opts);
}

}  // namespace wm
