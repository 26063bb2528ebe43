#include "eval/risk_coverage.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace wm::eval {
namespace {

SelectivePrediction pred(int label, float g) {
  SelectivePrediction p;
  p.label = label;
  p.g = g;
  return p;
}

TEST(RiskCoverageTest, PerfectRankingGivesStepCurve) {
  // Two correct high-g predictions, one wrong low-g one.
  const std::vector<SelectivePrediction> preds = {
      pred(0, 0.9f), pred(1, 0.8f), pred(2, 0.1f)};
  const std::vector<int> labels = {0, 1, 0};  // third is wrong
  const auto curve = risk_coverage_curve(preds, labels);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve[0].coverage, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(curve[0].risk, 0.0);
  EXPECT_DOUBLE_EQ(curve[1].risk, 0.0);
  EXPECT_NEAR(curve[2].risk, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(curve[2].coverage, 1.0);
}

TEST(RiskCoverageTest, CurveIsSortedByG) {
  const std::vector<SelectivePrediction> preds = {
      pred(0, 0.1f), pred(1, 0.9f), pred(2, 0.5f)};
  const std::vector<int> labels = {0, 1, 2};
  const auto curve = risk_coverage_curve(preds, labels);
  EXPECT_FLOAT_EQ(curve[0].threshold, 0.9f);
  EXPECT_FLOAT_EQ(curve[1].threshold, 0.5f);
  EXPECT_FLOAT_EQ(curve[2].threshold, 0.1f);
}

TEST(RiskCoverageTest, AllCorrectGivesZeroAurc) {
  const std::vector<SelectivePrediction> preds = {pred(0, 0.9f), pred(1, 0.2f)};
  const std::vector<int> labels = {0, 1};
  const auto curve = risk_coverage_curve(preds, labels);
  EXPECT_DOUBLE_EQ(aurc(curve), 0.0);
}

TEST(RiskCoverageTest, AllWrongGivesAurcNearOne) {
  const std::vector<SelectivePrediction> preds = {pred(0, 0.9f), pred(1, 0.2f)};
  const std::vector<int> labels = {5, 6};
  const auto curve = risk_coverage_curve(preds, labels);
  // Risk is 1 at every point; trapezoid from (0,0) start loses a little.
  EXPECT_GT(aurc(curve), 0.7);
  EXPECT_LE(aurc(curve), 1.0);
}

TEST(RiskCoverageTest, GoodRankingBeatsBadRanking) {
  // Same predictions/labels, opposite confidence orderings.
  const std::vector<int> labels = {0, 0, 0, 0};
  std::vector<SelectivePrediction> good = {pred(0, 0.9f), pred(0, 0.8f),
                                           pred(1, 0.2f), pred(1, 0.1f)};
  std::vector<SelectivePrediction> bad = {pred(0, 0.1f), pred(0, 0.2f),
                                          pred(1, 0.8f), pred(1, 0.9f)};
  EXPECT_LT(aurc(risk_coverage_curve(good, labels)),
            aurc(risk_coverage_curve(bad, labels)));
}

TEST(RiskCoverageTest, RiskAtCoverageLookup) {
  const std::vector<SelectivePrediction> preds = {
      pred(0, 0.9f), pred(1, 0.8f), pred(2, 0.1f)};
  const std::vector<int> labels = {0, 1, 0};
  const auto curve = risk_coverage_curve(preds, labels);
  EXPECT_DOUBLE_EQ(risk_at_coverage(curve, 0.3), 0.0);
  EXPECT_DOUBLE_EQ(risk_at_coverage(curve, 0.6), 0.0);
  EXPECT_NEAR(risk_at_coverage(curve, 1.0), 1.0 / 3.0, 1e-12);
}

TEST(RiskCoverageTest, RejectsBadInputs) {
  EXPECT_THROW(risk_coverage_curve({}, {}), InvalidArgument);
  EXPECT_THROW(risk_coverage_curve({pred(0, 0.5f)}, {0, 1}), InvalidArgument);
  EXPECT_THROW(aurc({}), InvalidArgument);
  const auto curve = risk_coverage_curve({pred(0, 0.5f)}, {0});
  EXPECT_THROW(risk_at_coverage(curve, 1.5), InvalidArgument);
}

}  // namespace
}  // namespace wm::eval
