// SelectiveNet with the optional BatchNorm trunk (the reproduction's
// reduced-epoch-budget configuration; DESIGN.md §1).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "selective/trainer.hpp"
#include "tensor/tensor_ops.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm::selective {
namespace {

SelectiveNetOptions bn_net() {
  return {.map_size = 16, .num_classes = 9, .conv1_filters = 8,
          .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32,
          .use_batchnorm = true};
}

TEST(BatchNormNetTest, HasMoreParametersThanPlainNet) {
  Rng rng(1);
  SelectiveNet bn(bn_net(), rng);
  SelectiveNetOptions plain_opts = bn_net();
  plain_opts.use_batchnorm = false;
  SelectiveNet plain(plain_opts, rng);
  // 3 BN layers x (gamma + beta) x 8 channels = 48 extra scalars.
  EXPECT_EQ(bn.parameter_count(), plain.parameter_count() + 48);
}

TEST(BatchNormNetTest, ForwardShapesUnchanged) {
  Rng rng(2);
  SelectiveNet net(bn_net(), rng);
  const Tensor x = Tensor::uniform(Shape{4, 1, 16, 16}, rng);
  const SelectiveOutput out = net.forward(x, true);
  EXPECT_EQ(out.logits.shape(), Shape({4, 9}));
  EXPECT_EQ(out.g.shape(), Shape({4, 1}));
}

TEST(BatchNormNetTest, TrainingConvergesFasterThanPlain) {
  // Same data, same budget: the BN trunk must reach a lower training loss.
  Rng data_rng(3);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts[static_cast<std::size_t>(DefectType::kCenter)] = 30;
  spec.class_counts[static_cast<std::size_t>(DefectType::kEdgeRing)] = 30;
  spec.class_counts[static_cast<std::size_t>(DefectType::kNone)] = 30;
  Dataset data = synth::generate_dataset(spec, data_rng);
  data.shuffle(data_rng);
  const TrainerOptions topts{.epochs = 6, .batch_size = 16,
                             .learning_rate = 2e-3, .target_coverage = 1.0};

  Rng rng_a(7);
  SelectiveNet bn(bn_net(), rng_a);
  const auto bn_log = SelectiveTrainer(topts).train(bn, data, nullptr, rng_a);

  Rng rng_b(7);
  SelectiveNetOptions plain_opts = bn_net();
  plain_opts.use_batchnorm = false;
  SelectiveNet plain(plain_opts, rng_b);
  const auto plain_log =
      SelectiveTrainer(topts).train(plain, data, nullptr, rng_b);

  EXPECT_LT(bn_log.final_epoch().loss, plain_log.final_epoch().loss);
}

TEST(BatchNormNetTest, InferenceIsDeterministicAfterTraining) {
  Rng rng(4);
  SelectiveNet net(bn_net(), rng);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts.fill(6);
  Dataset data = synth::generate_dataset(spec, rng);
  SelectiveTrainer trainer({.epochs = 2, .batch_size = 8,
                            .learning_rate = 1e-3, .target_coverage = 1.0});
  trainer.train(net, data, nullptr, rng);
  // Two inference passes over the same batch must agree exactly (running
  // stats must not move outside training).
  const Batch batch = data.full_batch();
  const SelectiveOutput a = net.forward(batch.images, false);
  const SelectiveOutput b = net.forward(batch.images, false);
  EXPECT_FLOAT_EQ(max_abs_diff(a.logits, b.logits), 0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(a.g, b.g), 0.0f);
}

}  // namespace
}  // namespace wm::selective
