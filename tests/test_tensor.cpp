#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/tensor.h"

namespace {

namespace ag = adept::ag;
using ag::Tensor;

TEST(Tensor, Factories) {
  Tensor z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  EXPECT_EQ(z.dim(0), 2);
  EXPECT_EQ(z.dim(1), 3);
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);

  Tensor f = Tensor::full({4}, 2.5f);
  for (float v : f.data()) EXPECT_EQ(v, 2.5f);

  Tensor e = Tensor::eye(3);
  EXPECT_EQ(e.at(0, 0), 1.0f);
  EXPECT_EQ(e.at(0, 1), 0.0f);
  EXPECT_EQ(e.at(2, 2), 1.0f);

  Tensor s = Tensor::scalar(7.0f);
  EXPECT_EQ(s.item(), 7.0f);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_THROW(Tensor::from_data({2, 2}, {1.0f, 2.0f}), std::invalid_argument);
  Tensor t = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(1, 0), 3.0f);
}

TEST(Tensor, ItemRequiresScalar) {
  Tensor t = Tensor::zeros({2});
  EXPECT_THROW(t.item(), std::invalid_argument);
}

TEST(Tensor, BackwardSimpleChain) {
  // y = (x * 3) + 2, dy/dx = 3
  Tensor x = Tensor::scalar(5.0f, true);
  Tensor y = ag::add_scalar(ag::mul_scalar(x, 3.0f), 2.0f);
  EXPECT_FLOAT_EQ(y.item(), 17.0f);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 3.0f);
}

TEST(Tensor, GradAccumulatesOverSharedSubexpression) {
  // y = x + x -> dy/dx = 2
  Tensor x = Tensor::scalar(1.0f, true);
  Tensor y = ag::add(x, x);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
}

TEST(Tensor, DiamondGraphBackward) {
  // a = x*2 ; b = x*3 ; y = a*b = 6x^2 ; dy/dx = 12x
  Tensor x = Tensor::scalar(2.0f, true);
  Tensor a = ag::mul_scalar(x, 2.0f);
  Tensor b = ag::mul_scalar(x, 3.0f);
  Tensor y = ag::mul(a, b);
  y.backward();
  EXPECT_FLOAT_EQ(y.item(), 24.0f);
  EXPECT_FLOAT_EQ(x.grad()[0], 24.0f);
}

TEST(Tensor, BackwardTwiceAccumulates) {
  Tensor x = Tensor::scalar(1.0f, true);
  Tensor y = ag::mul_scalar(x, 4.0f);
  y.backward();
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 8.0f);
  x.zero_grad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(Tensor, NonScalarBackwardNeedsSeed) {
  Tensor x = Tensor::from_data({2}, {1, 2}, true);
  Tensor y = ag::mul_scalar(x, 2.0f);
  EXPECT_THROW(y.backward(), std::invalid_argument);
  std::vector<float> seed = {1.0f, 10.0f};
  y.backward(&seed);
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 20.0f);
}

TEST(Tensor, MultiRootBackwardRunsSharedNodeOnce) {
  // s = 2x feeds both roots: r1 = 3s, r2 = 4s. s's closure must run once,
  // seeing the grad of both roots (3 + 4), so dx = 2 * 7.
  Tensor x = Tensor::scalar(1.5f, true);
  int calls = 0;
  float seen = 0.0f;
  Tensor s = ag::make_op({2.0f * x.item()}, {1}, {x}, [&](ag::TensorImpl& self) {
    ++calls;
    seen = self.grad[0];
    auto& in = *self.parents[0].impl();
    in.ensure_grad();
    in.grad[0] += 2.0f * self.grad[0];
  });
  Tensor r1 = ag::mul_scalar(s, 3.0f);
  Tensor r2 = ag::mul_scalar(s, 4.0f);
  ag::backward({r1, r2}, {nullptr, nullptr});
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, 7.0f);
  EXPECT_EQ(x.grad()[0], 14.0f);
}

TEST(Tensor, MultiRootBackwardSeedsEveryRoot) {
  // r2 = 3 * r1 with r1 = 2x: r1 is a root and also an input of r2, so its
  // grad is its own seed plus r2's contribution.
  Tensor x = Tensor::from_data({2}, {1, 2}, true);
  Tensor r1 = ag::mul_scalar(x, 2.0f);
  Tensor r2 = ag::mul_scalar(r1, 3.0f);
  const std::vector<float> s1 = {1.0f, 10.0f}, s2 = {100.0f, 1000.0f};
  ag::backward({r2, r1}, {&s2, &s1});
  EXPECT_EQ(x.grad()[0], 2.0f * (1.0f + 3.0f * 100.0f));
  EXPECT_EQ(x.grad()[1], 2.0f * (10.0f + 3.0f * 1000.0f));
  EXPECT_THROW(ag::backward({r1, r1}, {&s1, &s1}), std::invalid_argument);
  EXPECT_THROW(ag::backward({r1}, {}), std::invalid_argument);
  ag::backward({}, {});  // no roots: nothing to do
}

TEST(Tensor, NoGradGuardDisablesGraph) {
  Tensor x = Tensor::scalar(1.0f, true);
  {
    ag::NoGradGuard guard;
    Tensor y = ag::mul_scalar(x, 2.0f);
    EXPECT_FALSE(y.requires_grad());
  }
  Tensor y = ag::mul_scalar(x, 2.0f);
  EXPECT_TRUE(y.requires_grad());
}

TEST(Tensor, DetachClearsGraph) {
  Tensor x = Tensor::scalar(1.0f, true);
  Tensor y = ag::mul_scalar(x, 2.0f);
  y.detach_();
  y.backward();  // no-op into x
  EXPECT_FALSE(x.has_grad());
}

TEST(Tensor, DeepChainBackwardDoesNotOverflow) {
  // Iterative topo sort must handle long chains (SuperMesh depth).
  Tensor x = Tensor::scalar(1.0f, true);
  Tensor y = x;
  for (int i = 0; i < 5000; ++i) y = ag::add_scalar(y, 0.0f);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 1.0f);
}

}  // namespace
