// AdaptConfig's defaults: the values the controller runs with when code or
// a wm_tool flag sets nothing.
#include "adapt/adapt_config.hpp"

#include <gtest/gtest.h>

namespace wm::adapt {
namespace {

TEST(AdaptConfigTest, DefaultsResolveWithNothingSet) {
  const AdaptConfig c;
  EXPECT_EQ(c.buffer_capacity, 1024u);
  EXPECT_EQ(c.min_samples, 64u);
  EXPECT_EQ(c.refit_window, 256u);
  EXPECT_EQ(c.cooldown_ms, 5000);
  EXPECT_EQ(c.eval_ms, 2000);
  EXPECT_EQ(c.fine_tune_epochs, 4);
  EXPECT_EQ(c.fine_tune_batch, 32);
  EXPECT_DOUBLE_EQ(c.fine_tune_lr, 5e-4);
  EXPECT_EQ(c.augment_target, 0);
  EXPECT_EQ(c.cae_epochs, 8);
  EXPECT_TRUE(c.use_pseudo_labels);
  EXPECT_EQ(c.max_retrains, 8u);
}

}  // namespace
}  // namespace wm::adapt
