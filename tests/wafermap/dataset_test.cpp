#include "wafermap/dataset.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm {
namespace {

Dataset tiny_dataset(int per_class, int size = 16) {
  Rng rng(1);
  synth::DatasetSpec spec;
  spec.map_size = size;
  spec.class_counts.fill(per_class);
  return synth::generate_dataset(spec, rng);
}

TEST(DatasetTest, AddAndAccess) {
  Dataset d;
  EXPECT_TRUE(d.empty());
  d.add(Sample{.map = WaferMap(9), .label = DefectType::kDonut, .weight = 0.5f,
               .synthetic = true});
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].label, DefectType::kDonut);
  EXPECT_FLOAT_EQ(d[0].weight, 0.5f);
  EXPECT_TRUE(d[0].synthetic);
  EXPECT_THROW(d[1], InvalidArgument);
}

TEST(DatasetTest, ClassCounts) {
  const Dataset d = tiny_dataset(4);
  const auto counts = d.class_counts();
  for (int c : counts) EXPECT_EQ(c, 4);
  EXPECT_EQ(d.size(), 4u * kNumDefectTypes);
}

TEST(DatasetTest, MapSizeConsistencyEnforced) {
  Dataset d;
  d.add(Sample{.map = WaferMap(9), .label = DefectType::kNone});
  d.add(Sample{.map = WaferMap(11), .label = DefectType::kNone});
  EXPECT_THROW(d.map_size(), InvalidArgument);
  EXPECT_THROW(Dataset().map_size(), InvalidArgument);
}

TEST(DatasetTest, ShufflePreservesContents) {
  Dataset d = tiny_dataset(3);
  const auto before = d.class_counts();
  Rng rng(2);
  d.shuffle(rng);
  EXPECT_EQ(d.class_counts(), before);
}

TEST(DatasetTest, StratifiedSplitRespectsClassFractions) {
  const Dataset d = tiny_dataset(10);
  Rng rng(3);
  const auto [train, test] = d.stratified_split(0.8, rng);
  const auto tc = train.class_counts();
  const auto sc = test.class_counts();
  for (int i = 0; i < kNumDefectTypes; ++i) {
    EXPECT_EQ(tc[static_cast<std::size_t>(i)], 8);
    EXPECT_EQ(sc[static_cast<std::size_t>(i)], 2);
  }
}

TEST(DatasetTest, SplitEdgeFractions) {
  const Dataset d = tiny_dataset(5);
  Rng rng(4);
  const auto [all, none] = d.stratified_split(1.0, rng);
  EXPECT_EQ(all.size(), d.size());
  EXPECT_TRUE(none.empty());
  EXPECT_THROW(d.stratified_split(1.5, rng), InvalidArgument);
}

TEST(DatasetTest, FilterAndWithout) {
  const Dataset d = tiny_dataset(3);
  const Dataset donuts = d.filter(DefectType::kDonut);
  EXPECT_EQ(donuts.size(), 3u);
  for (std::size_t i = 0; i < donuts.size(); ++i) {
    EXPECT_EQ(donuts[i].label, DefectType::kDonut);
  }
  const Dataset rest = d.without(DefectType::kDonut);
  EXPECT_EQ(rest.size(), d.size() - 3u);
  EXPECT_EQ(rest.class_counts()[static_cast<std::size_t>(DefectType::kDonut)], 0);
}

TEST(DatasetTest, AppendMerges) {
  Dataset a = tiny_dataset(2);
  const Dataset b = tiny_dataset(3);
  a.append(b);
  EXPECT_EQ(a.size(), 5u * kNumDefectTypes);
}

TEST(DatasetTest, MakeBatchLayout) {
  const Dataset d = tiny_dataset(2, 16);
  const Batch batch = d.make_batch({0, 5, 10});
  EXPECT_EQ(batch.images.shape(), Shape({3, 1, 16, 16}));
  EXPECT_EQ(batch.labels.size(), 3u);
  EXPECT_EQ(batch.weights.size(), 3u);
  EXPECT_EQ(batch.size(), 3);
  // Image content matches the sample's own tensor.
  const Tensor t = d[5].map.to_tensor();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(batch.images[t.numel() + i], t[i]);
  }
  EXPECT_EQ(batch.labels[1], static_cast<int>(d[5].label));
}

TEST(DatasetTest, FullBatchCoversAll) {
  const Dataset d = tiny_dataset(2, 16);
  const Batch batch = d.full_batch();
  EXPECT_EQ(batch.size(), static_cast<std::int64_t>(d.size()));
}

TEST(DatasetTest, BatchIndicesPartitionDataset) {
  Rng rng(5);
  const auto batches = Dataset::batch_indices(10, 3, rng);
  ASSERT_EQ(batches.size(), 4u);
  EXPECT_EQ(batches.back().size(), 1u);
  std::vector<bool> seen(10, false);
  for (const auto& b : batches) {
    for (std::size_t i : b) {
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(GeneratorTest, Table2CountsMatchPaper) {
  const auto train = synth::table2_training_counts();
  int total = 0;
  for (int c : train) total += c;
  EXPECT_EQ(total, 43484);
  const auto test = synth::table2_testing_counts();
  total = 0;
  for (int c : test) total += c;
  EXPECT_EQ(total, 10871);
  // None dominates; Near-Full is rarest — the imbalance the paper targets.
  EXPECT_EQ(train[static_cast<std::size_t>(DefectType::kNone)], 29357);
  EXPECT_EQ(train[static_cast<std::size_t>(DefectType::kNearFull)], 49);
}

TEST(GeneratorTest, ScaleCountsClampsRareClasses) {
  const auto scaled = synth::scale_counts(synth::table2_training_counts(), 0.01, 3);
  EXPECT_GE(scaled[static_cast<std::size_t>(DefectType::kNearFull)], 3);
  EXPECT_EQ(scaled[static_cast<std::size_t>(DefectType::kNone)], 294);
  EXPECT_THROW(synth::scale_counts(synth::table2_training_counts(), 1e300),
               InvalidArgument);
}

TEST(GeneratorTest, GeneratedDatasetMatchesSpec) {
  Rng rng(6);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const Dataset d = synth::generate_dataset(spec, rng);
  EXPECT_EQ(d.size(), 45u);
  const auto counts = d.class_counts();
  for (int i = 0; i < kNumDefectTypes; ++i) {
    EXPECT_EQ(counts[static_cast<std::size_t>(i)], i + 1);
  }
  EXPECT_EQ(d.map_size(), 16);
}

}  // namespace
}  // namespace wm
