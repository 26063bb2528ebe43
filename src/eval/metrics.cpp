#include "eval/metrics.hpp"

#include "common/error.hpp"

namespace wm::eval {

ConfusionMatrix::ConfusionMatrix(int num_classes) : num_classes_(num_classes) {
  WM_CHECK(num_classes >= 2, "need at least two classes");
  counts_.assign(static_cast<std::size_t>(num_classes) * num_classes, 0);
}

void ConfusionMatrix::check_class(int cls) const {
  WM_CHECK(cls >= 0 && cls < num_classes_, "class ", cls, " out of [0,",
           num_classes_, ")");
}

void ConfusionMatrix::add(int truth, int predicted) {
  check_class(truth);
  check_class(predicted);
  counts_[static_cast<std::size_t>(truth) * num_classes_ + predicted]++;
  ++total_;
}

int ConfusionMatrix::at(int truth, int predicted) const {
  check_class(truth);
  check_class(predicted);
  return counts_[static_cast<std::size_t>(truth) * num_classes_ + predicted];
}

int ConfusionMatrix::support(int cls) const {
  check_class(cls);
  int n = 0;
  for (int p = 0; p < num_classes_; ++p) n += at(cls, p);
  return n;
}

int ConfusionMatrix::predicted_count(int cls) const {
  check_class(cls);
  int n = 0;
  for (int t = 0; t < num_classes_; ++t) n += at(t, cls);
  return n;
}

double ConfusionMatrix::accuracy() const {
  if (total_ == 0) return 0.0;
  int correct = 0;
  for (int c = 0; c < num_classes_; ++c) correct += at(c, c);
  return static_cast<double>(correct) / total_;
}

double ConfusionMatrix::accuracy_excluding(int excluded) const {
  check_class(excluded);
  int correct = 0;
  int total = 0;
  for (int t = 0; t < num_classes_; ++t) {
    if (t == excluded) continue;
    total += support(t);
    correct += at(t, t);
  }
  return total == 0 ? 0.0 : static_cast<double>(correct) / total;
}

double ConfusionMatrix::precision(int cls) const {
  const int denom = predicted_count(cls);
  return denom == 0 ? 0.0 : static_cast<double>(at(cls, cls)) / denom;
}

double ConfusionMatrix::recall(int cls) const {
  const int denom = support(cls);
  return denom == 0 ? 0.0 : static_cast<double>(at(cls, cls)) / denom;
}

double ConfusionMatrix::f1(int cls) const {
  const double p = precision(cls);
  const double r = recall(cls);
  return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

ConfusionMatrix confusion_from_labels(const std::vector<int>& truth,
                                      const std::vector<int>& predicted,
                                      int num_classes) {
  WM_CHECK(truth.size() == predicted.size(), "label vector size mismatch");
  ConfusionMatrix cm(num_classes);
  for (std::size_t i = 0; i < truth.size(); ++i) cm.add(truth[i], predicted[i]);
  return cm;
}

ConfusionMatrix selective_confusion(
    const std::vector<SelectivePrediction>& preds,
    const std::vector<int>& labels, int num_classes) {
  WM_CHECK(preds.size() == labels.size(), "prediction/label size mismatch");
  ConfusionMatrix cm(num_classes);
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i].selected) cm.add(labels[i], preds[i].label);
  }
  return cm;
}

SelectiveClassReport selective_report(
    const std::vector<SelectivePrediction>& preds,
    const std::vector<int>& labels, int num_classes) {
  WM_CHECK(preds.size() == labels.size(), "prediction/label size mismatch");
  const ConfusionMatrix cm = selective_confusion(preds, labels, num_classes);
  SelectiveClassReport report;
  report.precision.resize(static_cast<std::size_t>(num_classes));
  report.recall.resize(static_cast<std::size_t>(num_classes));
  report.f1.resize(static_cast<std::size_t>(num_classes));
  report.covered.resize(static_cast<std::size_t>(num_classes), 0);
  report.support.resize(static_cast<std::size_t>(num_classes), 0);
  for (int c = 0; c < num_classes; ++c) {
    const std::size_t sc = static_cast<std::size_t>(c);
    report.precision[sc] = cm.precision(c);
    report.recall[sc] = cm.recall(c);
    report.f1[sc] = cm.f1(c);
    report.covered[sc] = cm.support(c);
  }
  for (std::size_t i = 0; i < labels.size(); ++i) {
    WM_CHECK(labels[i] >= 0 && labels[i] < num_classes, "label out of range");
    report.support[static_cast<std::size_t>(labels[i])]++;
  }
  report.total_covered = cm.total();
  report.coverage = preds.empty()
                        ? 0.0
                        : static_cast<double>(cm.total()) /
                              static_cast<double>(preds.size());
  report.overall_accuracy = cm.total() == 0 ? 1.0 : cm.accuracy();
  return report;
}

}  // namespace wm::eval
