#include "nn/optim/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace wm::nn {
namespace {

/// Fills grads with the gradient of f(w) = 0.5 * ||w - target||^2.
void quadratic_grad(Parameter& p, const Tensor& target) {
  for (std::int64_t i = 0; i < p.value.numel(); ++i) {
    p.grad[i] = p.value[i] - target[i];
  }
}

TEST(AdamTest, ConvergesOnQuadraticBowl) {
  Parameter p("w", Tensor(Shape{4}, {50.0f, -50.0f, 10.0f, 0.0f}));
  const Tensor target(Shape{4}, {1.0f, -1.0f, 0.5f, 2.0f});
  Adam opt({&p}, {.lr = 0.5});
  for (int i = 0; i < 500; ++i) {
    opt.zero_grad();
    quadratic_grad(p, target);
    opt.step();
  }
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_NEAR(p.value[i], target[i], 1e-2f);
}

TEST(AdamTest, FirstStepIsApproxLrSigned) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Parameter p("w", Tensor(Shape{2}, {0.0f, 0.0f}));
  Adam opt({&p}, {.lr = 0.1});
  p.grad[0] = 1e-3f;
  p.grad[1] = -7.0f;
  opt.step();
  EXPECT_NEAR(p.value[0], -0.1f, 1e-3f);
  EXPECT_NEAR(p.value[1], 0.1f, 1e-3f);
}

TEST(AdamTest, HandlesBadlyScaledGradients) {
  // Adam should make similar progress on dimensions with wildly different
  // gradient scales — the point of the adaptive denominator.
  Parameter p("w", Tensor(Shape{2}, {1.0f, 1.0f}));
  Adam opt({&p}, {.lr = 0.05});
  for (int i = 0; i < 100; ++i) {
    opt.zero_grad();
    p.grad[0] = 1000.0f * p.value[0];
    p.grad[1] = 0.001f * p.value[1];
    opt.step();
  }
  EXPECT_LT(std::fabs(p.value[0]), 0.1f);
  EXPECT_LT(std::fabs(p.value[1]), 0.1f);
}

TEST(AdamTest, StepCountAdvances) {
  Parameter p("w", Tensor(Shape{1}));
  Adam opt({&p}, {});
  EXPECT_EQ(opt.step_count(), 0);
  opt.step();
  opt.step();
  EXPECT_EQ(opt.step_count(), 2);
}

TEST(OptimizerTest, ZeroGradClearsAll) {
  Parameter a("a", Tensor(Shape{2}));
  Parameter b("b", Tensor(Shape{3}));
  a.grad.fill(5.0f);
  b.grad.fill(-1.0f);
  Adam opt({&a, &b}, {.lr = 0.1});
  opt.zero_grad();
  for (std::int64_t i = 0; i < 2; ++i) EXPECT_EQ(a.grad[i], 0.0f);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_EQ(b.grad[i], 0.0f);
}

TEST(OptimizerTest, RejectsBadHyperparameters) {
  Parameter p("w", Tensor(Shape{1}));
  EXPECT_THROW(Adam({&p}, {.lr = 0.0}), InvalidArgument);
  EXPECT_THROW(Adam({&p}, {.lr = -1.0}), InvalidArgument);
  EXPECT_THROW(Adam({&p}, {.lr = 0.1, .beta1 = 1.0}), InvalidArgument);
  EXPECT_THROW(Adam({&p}, {.lr = 0.1, .eps = 0.0}), InvalidArgument);
}

}  // namespace
}  // namespace wm::nn
