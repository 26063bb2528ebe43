#include "eval/metrics.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace wm::eval {
namespace {

TEST(ConfusionMatrixTest, CountsAndTotals) {
  ConfusionMatrix cm(3);
  cm.add(0, 0);
  cm.add(0, 1);
  cm.add(1, 1);
  cm.add(2, 1);
  EXPECT_EQ(cm.total(), 4);
  EXPECT_EQ(cm.at(0, 1), 1);
  EXPECT_EQ(cm.support(0), 2);
  EXPECT_EQ(cm.predicted_count(1), 3);
}

TEST(ConfusionMatrixTest, Accuracy) {
  ConfusionMatrix cm(2);
  cm.add(0, 0);
  cm.add(0, 0);
  cm.add(1, 0);
  cm.add(1, 1);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.75);
}

TEST(ConfusionMatrixTest, AccuracyExcludingClass) {
  // Mirrors the paper's defect-detection rate which ignores the dominant
  // None class.
  ConfusionMatrix cm(3);
  for (int i = 0; i < 10; ++i) cm.add(2, 2);  // "None" all correct
  cm.add(0, 0);
  cm.add(0, 2);  // defect misread as None
  cm.add(1, 1);
  EXPECT_NEAR(cm.accuracy(), 12.0 / 13.0, 1e-12);
  EXPECT_NEAR(cm.accuracy_excluding(2), 2.0 / 3.0, 1e-12);
}

TEST(ConfusionMatrixTest, PrecisionRecallF1) {
  ConfusionMatrix cm(2);
  // class 0: tp=3, fn=1; predictions for 0: tp=3, fp=2.
  cm.add(0, 0);
  cm.add(0, 0);
  cm.add(0, 0);
  cm.add(0, 1);
  cm.add(1, 0);
  cm.add(1, 0);
  EXPECT_DOUBLE_EQ(cm.precision(0), 0.6);
  EXPECT_DOUBLE_EQ(cm.recall(0), 0.75);
  const double f1 = 2 * 0.6 * 0.75 / (0.6 + 0.75);
  EXPECT_DOUBLE_EQ(cm.f1(0), f1);
}

TEST(ConfusionMatrixTest, UndefinedMetricsAreZero) {
  ConfusionMatrix cm(3);
  cm.add(0, 0);
  EXPECT_DOUBLE_EQ(cm.precision(1), 0.0);  // nothing predicted as 1
  EXPECT_DOUBLE_EQ(cm.recall(1), 0.0);     // no support for 1
  EXPECT_DOUBLE_EQ(cm.f1(1), 0.0);
}

TEST(ConfusionMatrixTest, BoundsChecked) {
  ConfusionMatrix cm(2);
  EXPECT_THROW(cm.add(2, 0), InvalidArgument);
  EXPECT_THROW(cm.add(0, -1), InvalidArgument);
  EXPECT_THROW(cm.at(0, 2), InvalidArgument);
  EXPECT_THROW(ConfusionMatrix(1), InvalidArgument);
}

TEST(ConfusionFromLabelsTest, BuildsMatrix) {
  const auto cm = confusion_from_labels({0, 1, 1}, {0, 1, 0}, 2);
  EXPECT_EQ(cm.total(), 3);
  EXPECT_EQ(cm.at(1, 0), 1);
  EXPECT_THROW(confusion_from_labels({0}, {0, 1}, 2), InvalidArgument);
}

std::vector<SelectivePrediction> make_preds(
    const std::vector<std::pair<int, bool>>& spec) {
  std::vector<SelectivePrediction> preds;
  for (const auto& [label, selected] : spec) {
    SelectivePrediction p;
    p.label = label;
    p.selected = selected;
    preds.push_back(p);
  }
  return preds;
}

TEST(SelectiveReportTest, CoverageAndAccuracyOverSelectedOnly) {
  // 4 samples, 3 selected; of those, 2 correct.
  const auto preds = make_preds({{0, true}, {1, true}, {0, true}, {1, false}});
  const std::vector<int> labels = {0, 1, 1, 1};
  const auto report = selective_report(preds, labels, 2);
  EXPECT_EQ(report.total_covered, 3);
  EXPECT_DOUBLE_EQ(report.coverage, 0.75);
  EXPECT_NEAR(report.overall_accuracy, 2.0 / 3.0, 1e-12);
  // Per true class covered counts.
  EXPECT_EQ(report.covered[0], 1);
  EXPECT_EQ(report.covered[1], 2);
  EXPECT_EQ(report.support[1], 3);
}

TEST(SelectiveReportTest, EmptySelectionHasUnitAccuracyConvention) {
  const auto preds = make_preds({{0, false}, {1, false}});
  const auto report = selective_report(preds, {0, 1}, 2);
  EXPECT_EQ(report.total_covered, 0);
  EXPECT_DOUBLE_EQ(report.overall_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(report.coverage, 0.0);
}

TEST(SelectiveConfusionTest, IgnoresRejectedSamples) {
  const auto preds = make_preds({{0, true}, {1, false}});
  const auto cm = selective_confusion(preds, {0, 0}, 2);
  EXPECT_EQ(cm.total(), 1);
  EXPECT_EQ(cm.at(0, 0), 1);
}

}  // namespace
}  // namespace wm::eval
