#include "selective/load_classifier.hpp"

#include <cmath>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "selective/batched_inference.hpp"
#include "selective/model_file.hpp"

namespace wm {

namespace {

/// The selective classifier over a SelectiveNet or a QuantizedSelectiveNet.
/// It references `net` and, when `owned` holds it, keeps it alive.
template <typename Net>
class SelectiveClassifier final : public LoadedClassifier {
 public:
  SelectiveClassifier(const Net& net, std::unique_ptr<const Net> owned,
                      const ClassifierLoadOptions& opts)
      : net_(net), owned_(std::move(owned)), opts_(opts) {
    WM_CHECK(!std::isnan(opts.threshold) && opts.threshold >= 0.0f &&
                 opts.threshold <= 1.0f,
             "threshold out of [0,1]");
    WM_CHECK(opts.eval_batch > 0, "bad eval batch size");
  }

  std::vector<SelectivePrediction> predict_batch(
      std::span<const WaferMap> maps) const override {
    return selective::detail::predict_batched(
        [this](const Tensor& images) { return net_.infer(images); },
        map_size(), opts_.threshold, opts_.eval_batch, maps);
  }
  int num_classes() const override { return net_.options().num_classes; }
  int map_size() const override { return net_.options().map_size; }
  bool is_quantized() const override {
    return std::is_same_v<Net, selective::QuantizedSelectiveNet>;
  }
  float threshold() const override { return opts_.threshold; }

 private:
  const Net& net_;
  std::unique_ptr<const Net> owned_;
  ClassifierLoadOptions opts_;
};

template <typename Net>
std::unique_ptr<LoadedClassifier> borrowing(const Net& net,
                                            const ClassifierLoadOptions& opts) {
  return std::make_unique<SelectiveClassifier<Net>>(net, nullptr, opts);
}

template <typename Net>
std::unique_ptr<LoadedClassifier> owning(std::unique_ptr<Net> net,
                                         const ClassifierLoadOptions& opts) {
  WM_CHECK(net != nullptr, "load_classifier: null net");
  const Net& ref = *net;
  return std::make_unique<SelectiveClassifier<Net>>(ref, std::move(net), opts);
}

}  // namespace

std::unique_ptr<LoadedClassifier> load_classifier(
    const std::string& path, const ClassifierLoadOptions& opts) {
  if (selective::probe_model_file(path) == selective::ModelFileKind::kFloat) {
    return owning(selective::load_model(path), opts);
  }
  return owning(selective::load_quantized_model(path), opts);
}

std::unique_ptr<LoadedClassifier> load_classifier(
    const selective::SelectiveNet& net, const ClassifierLoadOptions& opts) {
  return borrowing(net, opts);
}

std::unique_ptr<LoadedClassifier> load_classifier(
    std::unique_ptr<selective::SelectiveNet> net,
    const ClassifierLoadOptions& opts) {
  return owning(std::move(net), opts);
}

std::unique_ptr<LoadedClassifier> load_classifier(
    const selective::QuantizedSelectiveNet& net,
    const ClassifierLoadOptions& opts) {
  return borrowing(net, opts);
}

}  // namespace wm
