// Evaluation metrics: confusion matrices, per-class precision/recall/F1,
// and selective (reject-option) statistics matching the paper's tables.
#pragma once

#include <vector>

#include "serve/classifier.hpp"

namespace wm::eval {

class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(int num_classes);

  void add(int truth, int predicted);

  int num_classes() const { return num_classes_; }
  int at(int truth, int predicted) const;
  int total() const { return total_; }

  /// Row sum: number of samples whose true class is cls.
  int support(int cls) const;
  /// Column sum: number of samples predicted as cls.
  int predicted_count(int cls) const;

  double accuracy() const;

  /// Accuracy over samples whose true class is NOT `excluded` — the paper's
  /// "defect detection rate" excludes the None class.
  double accuracy_excluding(int excluded) const;

  /// Per-class metrics; 0 when undefined (no predictions / no support).
  double precision(int cls) const;
  double recall(int cls) const;
  double f1(int cls) const;

 private:
  void check_class(int cls) const;

  int num_classes_;
  int total_ = 0;
  std::vector<int> counts_;  // row-major truth x predicted
};

/// Builds a confusion matrix from plain label vectors.
ConfusionMatrix confusion_from_labels(const std::vector<int>& truth,
                                      const std::vector<int>& predicted,
                                      int num_classes);

/// Per-class selective statistics for one prediction run (Table II columns).
struct SelectiveClassReport {
  std::vector<double> precision;  // over selected samples
  std::vector<double> recall;
  std::vector<double> f1;
  std::vector<int> covered;       // selected sample count per true class
  std::vector<int> support;       // total sample count per true class
  double overall_accuracy = 0.0;  // on selected samples
  int total_covered = 0;
  double coverage = 0.0;          // total_covered / N
};

SelectiveClassReport selective_report(
    const std::vector<SelectivePrediction>& preds,
    const std::vector<int>& labels, int num_classes);

/// Confusion matrix over the *selected* samples only.
ConfusionMatrix selective_confusion(
    const std::vector<SelectivePrediction>& preds,
    const std::vector<int>& labels, int num_classes);

}  // namespace wm::eval
