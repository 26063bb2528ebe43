#include "selective/load_classifier.hpp"

#include <cmath>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "selective/batched_inference.hpp"
#include "selective/inference_plan.hpp"
#include "selective/model_file.hpp"

namespace wm {

namespace {

/// The selective classifier over a compiled fp32 InferencePlan or a
/// QuantizedSelectiveNet. It references `model` and, when `owned` holds it,
/// keeps it alive.
template <typename Model>
class SelectiveClassifier final : public LoadedClassifier {
 public:
  SelectiveClassifier(const Model& model, std::unique_ptr<const Model> owned,
                      const ClassifierLoadOptions& opts)
      : model_(model), owned_(std::move(owned)), opts_(opts) {
    WM_CHECK(!std::isnan(opts.threshold) && opts.threshold >= 0.0f &&
                 opts.threshold <= 1.0f,
             "threshold out of [0,1]");
    WM_CHECK(opts.eval_batch > 0, "bad eval batch size");
  }

  std::vector<SelectivePrediction> predict_batch(
      std::span<const WaferMap> maps) const override {
    return selective::detail::predict_batched(
        [this](const Tensor& images) { return model_.infer(images); },
        map_size(), opts_.threshold, opts_.eval_batch, maps);
  }
  int num_classes() const override { return model_.options().num_classes; }
  int map_size() const override { return model_.options().map_size; }
  bool is_quantized() const override {
    return std::is_same_v<Model, selective::QuantizedSelectiveNet>;
  }
  float threshold() const override { return opts_.threshold; }

 private:
  const Model& model_;
  std::unique_ptr<const Model> owned_;
  ClassifierLoadOptions opts_;
};

template <typename Model>
std::unique_ptr<LoadedClassifier> owning(std::unique_ptr<Model> model,
                                         const ClassifierLoadOptions& opts) {
  WM_CHECK(model != nullptr, "load_classifier: null net");
  const Model& ref = *model;
  return std::make_unique<SelectiveClassifier<Model>>(ref, std::move(model),
                                                      opts);
}

/// Compiles the net into a plan the classifier owns; the net is not kept.
std::unique_ptr<LoadedClassifier> compiled(const selective::SelectiveNet& net,
                                           const ClassifierLoadOptions& opts) {
  return owning(std::make_unique<selective::InferencePlan>(net), opts);
}

}  // namespace

std::unique_ptr<LoadedClassifier> load_classifier(
    const std::string& path, const ClassifierLoadOptions& opts) {
  if (selective::probe_model_file(path) == selective::ModelFileKind::kFloat) {
    return compiled(*selective::load_model(path), opts);
  }
  return owning(selective::load_quantized_model(path), opts);
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
  return std::make_unique<SelectiveClassifier<selective::QuantizedSelectiveNet>>(
      net, nullptr, opts);
}

}  // namespace wm
