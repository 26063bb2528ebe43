// The one way to build a selective classifier: wm::load_classifier turns a
// model file or an in-memory net of either precision into the model of
// Eq. 2 — predict f(x) when g(x) >= threshold, abstain otherwise.
//
//   auto clf = wm::load_classifier("model.wsn", {.threshold = 0.7f});
//   engine = serve::InferenceEngine(*clf, ...);
//
// The file overload probes the artifact version (WSN1 fp32 / WSN2 int8 via
// selective::probe_model_file) and returns the matching implementation —
// callers never dispatch on the format themselves. The in-memory overloads
// wrap an already-constructed net (no file involved) behind the same
// interface, so examples and benches that train a model in-process use the
// identical vocabulary as the tools that load one from disk.
//
// The returned LoadedClassifier IS-A wm::Classifier (drop it into the
// inference engine, the TCP server, the hot-swap wrapper, the router fleet)
// and additionally reports the artifact metadata serving paths need:
// the wafer edge the model expects, whether the int8 fast path is active,
// and the abstention threshold it was built with. Eval-mode forwards are
// reentrant, so one classifier may serve concurrent predict_batch calls;
// results are bit-identical for any thread count and batch grouping.
//
// Ownership: a net of either precision is compiled into a
// selective::InferencePlan at load time. An fp32 classifier also keeps the
// weights it was compiled from, so clone_net() can hand a trainable copy of
// exactly what serves to the adaptation loop; an int8 one keeps only the
// plan. Every overload copies or takes what it keeps: the caller may destroy
// or keep training its net afterwards without changing the classifier's
// predictions (load again to serve new weights). with_threshold() re-cuts a
// classifier without compiling anything: the plan and the kept weights are
// const, so the re-cut classifier shares both and keeps them alive for as
// long as either serves.
#pragma once

#include <memory>
#include <string>

#include "selective/quant_net.hpp"
#include "selective/selective_net.hpp"
#include "serve/classifier.hpp"

namespace wm {

struct ClassifierLoadOptions {
  /// Abstention cut on g (Eq. 2), in [0, 1]; 0.5 matches the trained
  /// sigmoid boundary. selective::calibrate_threshold picks one for a
  /// target coverage instead.
  float threshold = 0.5f;
  /// Upper bound on the per-forward micro-batch inside the classifier (> 0).
  int eval_batch = 256;
};

/// A Classifier that carries its compiled model (an fp32 or int8 plan), the
/// fp32 weights behind an fp32 plan, plus artifact metadata.
class LoadedClassifier : public Classifier {
 public:
  /// Wafer edge length the model was trained for (resize inputs to this).
  virtual int map_size() const = 0;
  /// True when the int8 (WSN2) fast path serves the predictions.
  virtual bool is_quantized() const = 0;
  /// The abstention threshold the classifier applies to g.
  virtual float threshold() const = 0;
  /// The same compiled model at abstention cut `tau`, sharing this
  /// classifier's plan. Throws wm::InvalidArgument when `tau` is outside
  /// [0, 1].
  virtual std::unique_ptr<LoadedClassifier> with_threshold(float tau) const = 0;
  /// A trainable copy of the fp32 weights this classifier was compiled
  /// from, or nullptr when an int8 plan serves. Training the copy leaves
  /// this classifier's predictions unchanged.
  virtual std::unique_ptr<selective::SelectiveNet> clone_net() const = 0;
};

/// Loads a model file of either version (WSN1 fp32 / WSN2 quantized),
/// dispatching on the header, and returns it behind the classifier
/// interface. Throws wm::IoError on unreadable/truncated/unknown-version
/// files; the error names the problem. Every overload throws
/// wm::InvalidArgument on options outside the ranges above.
std::unique_ptr<LoadedClassifier> load_classifier(
    const std::string& path, const ClassifierLoadOptions& opts = {});

/// Compiles an in-memory fp32 net as it is now and keeps a clone of it; the
/// classifier does not reference `net` afterwards.
std::unique_ptr<LoadedClassifier> load_classifier(
    const selective::SelectiveNet& net, const ClassifierLoadOptions& opts = {});

/// Compiles an in-memory fp32 net, keeps a clone of its weights and drops
/// the net, with the forward caches a trained net still holds (tens of MiB
/// at a fine-tune's batch size). The drift-adaptation path builds hot-swap
/// candidates this way: a fine-tuned clone goes in, a self-contained
/// shared_ptr<const Classifier> comes out of swap_to's hands.
std::unique_ptr<LoadedClassifier> load_classifier(
    std::unique_ptr<selective::SelectiveNet> net,
    const ClassifierLoadOptions& opts = {});

/// Compiles an in-memory quantized net; the classifier does not reference
/// `net` afterwards.
std::unique_ptr<LoadedClassifier> load_classifier(
    const selective::QuantizedSelectiveNet& net,
    const ClassifierLoadOptions& opts = {});

}  // namespace wm
