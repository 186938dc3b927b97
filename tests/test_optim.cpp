#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "optim/optimizer.h"
#include "optim/schedule.h"

namespace {

namespace ag = adept::ag;
namespace optim = adept::optim;
using ag::Tensor;

// Quadratic bowl: loss = sum((x - target)^2)
double optimize_quadratic(optim::Adam& opt, Tensor& x, const Tensor& target,
                          int steps) {
  double final_loss = 0;
  for (int i = 0; i < steps; ++i) {
    Tensor loss = ag::sum(ag::square(ag::sub(x, target)));
    opt.zero_grad();
    loss.backward();
    opt.step();
    final_loss = loss.item();
  }
  return final_loss;
}

TEST(Adam, ConvergesOnQuadratic) {
  Tensor x = Tensor::zeros({4}, true);
  Tensor target = Tensor::from_data({4}, {1, -2, 3, 0.5f});
  optim::Adam opt({x}, 0.05);
  const double loss = optimize_quadratic(opt, x, target, 400);
  EXPECT_LT(loss, 1e-4);
}

TEST(Adam, HandlesIllConditionedScales) {
  // One coordinate's gradient is 100x the other; Adam normalizes per-coord.
  Tensor x = Tensor::zeros({2}, true);
  optim::Adam opt({x}, 0.05);
  for (int i = 0; i < 500; ++i) {
    Tensor scale = Tensor::from_data({2}, {100.0f, 1.0f});
    Tensor target = Tensor::from_data({2}, {1.0f, 1.0f});
    Tensor loss = ag::sum(ag::mul(scale, ag::square(ag::sub(x, target))));
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  EXPECT_NEAR(x.data()[0], 1.0f, 0.05);
  EXPECT_NEAR(x.data()[1], 1.0f, 0.05);
}

TEST(Optimizer, SkipsParamsWithoutGrad) {
  Tensor x = Tensor::full({2}, 3.0f, true);
  optim::Adam opt({x}, 1.0);
  opt.step();  // no backward ran; data must be untouched
  EXPECT_FLOAT_EQ(x.data()[0], 3.0f);
}

TEST(Optimizer, LrAccessors) {
  Tensor x = Tensor::zeros({1}, true);
  optim::Adam opt({x}, 0.5);
  EXPECT_DOUBLE_EQ(opt.lr(), 0.5);
  opt.set_lr(0.25);
  EXPECT_DOUBLE_EQ(opt.lr(), 0.25);
}

TEST(CosineLr, EndpointsAndMonotoneDecay) {
  optim::CosineLr schedule(1.0, 100, 0.1);
  EXPECT_NEAR(schedule.at(0), 1.0, 1e-9);
  EXPECT_NEAR(schedule.at(100), 0.1, 1e-9);
  EXPECT_NEAR(schedule.at(50), 0.55, 1e-9);
  for (int t = 1; t <= 100; ++t) EXPECT_LE(schedule.at(t), schedule.at(t - 1) + 1e-12);
  // Clamps beyond the horizon.
  EXPECT_NEAR(schedule.at(150), 0.1, 1e-9);
}

TEST(ExponentialDecay, PaperTemperatureSchedule) {
  // tau: 5 -> 0.5 exponentially (paper Sec. 4.1).
  optim::ExponentialDecay schedule(5.0, 0.5, 90);
  EXPECT_NEAR(schedule.at(0), 5.0, 1e-9);
  EXPECT_NEAR(schedule.at(90), 0.5, 1e-9);
  EXPECT_NEAR(schedule.at(45), std::sqrt(5.0 * 0.5), 1e-6);  // geometric midpoint
}

}  // namespace
