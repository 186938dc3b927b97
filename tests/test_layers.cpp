#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "nn/layers.h"
#include "nn/onn_layers.h"

namespace {

namespace ag = adept::ag;
namespace nn = adept::nn;
using adept::Rng;
using ag::Tensor;

Tensor random_input(std::vector<std::int64_t> shape, Rng& rng, bool rg = false) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  std::vector<float> data(static_cast<std::size_t>(n));
  for (auto& v : data) v = static_cast<float>(rng.uniform(-1, 1));
  return ag::make_tensor(std::move(data), std::move(shape), rg);
}

// Dense layers are ONNLinear / ONNConv2d bound to PtcBinding::dense().

TEST(Linear, ShapeAndBias) {
  Rng rng(1);
  nn::ONNLinear fc(6, 3, nn::PtcBinding::dense(), rng);
  Tensor x = random_input({4, 6}, rng);
  Tensor y = fc.forward(x);
  EXPECT_EQ(y.dim(0), 4);
  EXPECT_EQ(y.dim(1), 3);
  EXPECT_EQ(fc.parameters().size(), 2u);
  nn::ONNLinear no_bias(6, 3, nn::PtcBinding::dense(), rng, /*bias=*/false);
  EXPECT_EQ(no_bias.parameters().size(), 1u);
}

TEST(Linear, GradientsFlowToWeightAndBias) {
  Rng rng(2);
  nn::ONNLinear fc(3, 2, nn::PtcBinding::dense(), rng);
  Tensor x = random_input({5, 3}, rng);
  Tensor loss = ag::sum(ag::square(fc.forward(x)));
  loss.backward();
  for (auto& p : fc.parameters()) EXPECT_TRUE(p.has_grad());
}

TEST(Conv2d, OutputGeometry) {
  Rng rng(3);
  nn::ONNConv2d conv(3, 8, 5, nn::PtcBinding::dense(), rng, /*stride=*/1,
                     /*pad=*/0);
  Tensor x = random_input({2, 3, 28, 28}, rng);
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 8);
  EXPECT_EQ(y.dim(2), 24);
  EXPECT_EQ(y.dim(3), 24);
}

TEST(BatchNorm2d, TrainEvalConsistency) {
  Rng rng(6);
  nn::BatchNorm2d bn(3);
  Tensor x = random_input({8, 3, 4, 4}, rng);
  bn.set_training(true);
  for (int i = 0; i < 20; ++i) bn.forward(x);  // accumulate running stats
  bn.set_training(false);
  Tensor y = bn.forward(x);
  // After many identical batches, eval output ~ train output stats: mean ~0.
  double s = 0;
  for (float v : y.data()) s += v;
  EXPECT_NEAR(s / static_cast<double>(y.numel()), 0.0, 0.05);
}

TEST(ReLUAndPools, Shapes) {
  Rng rng(7);
  Tensor x = random_input({2, 3, 8, 8}, rng);
  nn::ReLU relu;
  Tensor r = relu.forward(x);
  for (float v : r.data()) EXPECT_GE(v, 0.0f);
  nn::MaxPool2d pool(2, 2);
  EXPECT_EQ(pool.forward(x).dim(2), 4);
  nn::AdaptiveAvgPool2d apool(5, 5);
  EXPECT_EQ(apool.forward(x).dim(3), 5);
  nn::Flatten flatten;
  Tensor f = flatten.forward(x);
  EXPECT_EQ(f.dim(0), 2);
  EXPECT_EQ(f.dim(1), 3 * 8 * 8);
}

TEST(Sequential, ComposesAndCollectsParams) {
  Rng rng(8);
  nn::Sequential seq;
  seq.add(std::make_shared<nn::ONNLinear>(4, 8, nn::PtcBinding::dense(), rng));
  seq.add(std::make_shared<nn::ReLU>());
  seq.add(std::make_shared<nn::ONNLinear>(8, 2, nn::PtcBinding::dense(), rng));
  Tensor x = random_input({3, 4}, rng);
  Tensor y = seq.forward(x);
  EXPECT_EQ(y.dim(1), 2);
  EXPECT_EQ(seq.parameters().size(), 4u);
  seq.set_training(false);
  EXPECT_FALSE(seq.modules()[0]->training());
}

TEST(KaimingInit, BoundScalesWithFanIn) {
  Rng rng(9);
  Tensor w1 = nn::kaiming_uniform({100, 10}, 100, rng);
  Tensor w2 = nn::kaiming_uniform({100, 10}, 10000, rng);
  auto max_abs = [](const Tensor& t) {
    float m = 0;
    for (float v : t.data()) m = std::max(m, std::fabs(v));
    return m;
  };
  EXPECT_GT(max_abs(w1), max_abs(w2));
  EXPECT_LE(max_abs(w1), std::sqrt(6.0 / 100.0) + 1e-6);
}

TEST(Conv2d, EndToEndGradcheck) {
  Rng rng(10);
  nn::ONNConv2d conv(1, 2, 3, nn::PtcBinding::dense(), rng, 1, 1);
  Tensor x = random_input({1, 1, 4, 4}, rng, true);
  auto params = conv.parameters();
  std::vector<Tensor> inputs = {x, params[0], params[1]};
  auto fn = [&conv, &x](const std::vector<Tensor>&) {
    return ag::sum(ag::square(conv.forward(x)));
  };
  const auto result = ag::gradcheck(fn, inputs, 1e-2, 2e-2, 8e-2);
  EXPECT_TRUE(result.ok) << result.detail;
}

}  // namespace
