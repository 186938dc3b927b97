// Tests for the convolution/pooling/normalization operator family.
#include <gtest/gtest.h>

#include <cmath>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "backend/parallel.h"
#include "common/rng.h"

namespace {

namespace ag = adept::ag;
using adept::Rng;
using ag::Tensor;

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng, bool rg = true) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  std::vector<float> data(static_cast<std::size_t>(n));
  for (auto& v : data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return ag::make_tensor(std::move(data), std::move(shape), rg);
}

// The conv node's patch operand, read through ag::conv2d: with the identity
// weight over c*k*k taps, output channel kk at pixel (yo, xo) is the tap kk
// of that pixel's patch, i.e. the im2col matrix entry [row][kk].
Tensor tap_identity(std::int64_t taps) {
  std::vector<float> w(static_cast<std::size_t>(taps * taps), 0.0f);
  for (std::int64_t i = 0; i < taps; ++i) w[static_cast<std::size_t>(i * taps + i)] = 1.0f;
  return Tensor::from_data({taps, taps}, std::move(w));
}

TEST(Im2col, ShapeAndIdentityKernel) {
  // 1x1 kernel, stride 1: the patches are just the pixels.
  Rng rng(1);
  Tensor x = random_tensor({2, 3, 4, 4}, rng, false);
  Tensor y = ag::conv2d(x, tap_identity(3), Tensor(), 1, 0);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 3, 4, 4}));
  // pixel (n=1,c=2,y=3,x=0) is tap 2 of patch (1, 3, 0)
  const std::size_t at = static_cast<std::size_t>(((1 * 3 + 2) * 4 + 3) * 4 + 0);
  EXPECT_FLOAT_EQ(y.data()[at], x.data()[at]);
}

TEST(Im2col, KnownPatchValues) {
  // 1 channel 3x3 image, 2x2 kernel, stride 1, no pad: 4 patches of 4 taps.
  Tensor x = Tensor::from_data({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y = ag::conv2d(x, tap_identity(4), Tensor(), 1, 0);  // [1,4,2,2]
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{1, 4, 2, 2}));
  auto tap = [&](std::int64_t kk, std::int64_t patch) {
    return y.data()[static_cast<std::size_t>(kk * 4 + patch)];
  };
  // first patch [1,2,4,5]
  EXPECT_FLOAT_EQ(tap(0, 0), 1);
  EXPECT_FLOAT_EQ(tap(3, 0), 5);
  // last patch [5,6,8,9]
  EXPECT_FLOAT_EQ(tap(0, 3), 5);
  EXPECT_FLOAT_EQ(tap(3, 3), 9);
}

TEST(Im2col, PaddingZeros) {
  Tensor x = Tensor::from_data({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor y = ag::conv2d(x, tap_identity(9), Tensor(), 1, 1);  // 'same' 3x3
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{1, 9, 2, 2}));
  // top-left output: kernel centered at (0,0); top-left tap out of bounds -> 0
  EXPECT_FLOAT_EQ(y.data()[0 * 4 + 0], 0);
  EXPECT_FLOAT_EQ(y.data()[4 * 4 + 0], 1);  // center tap
}

TEST(Im2col, Gradcheck) {
  Rng rng(2);
  Tensor x = random_tensor({1, 2, 4, 4}, rng);
  Tensor w = random_tensor({3, 2 * 3 * 3}, rng);
  auto fn = [](const std::vector<Tensor>& in) {
    return ag::sum(ag::square(ag::conv2d(in[0], in[1], Tensor(), 1, 1)));
  };
  const auto result = ag::gradcheck(fn, {x, w});
  EXPECT_TRUE(result.ok) << result.detail;
}

// The node's NCHW store: a 1x1 identity conv returns its input.
TEST(RowsToNchw, RoundTripWithIm2col1x1) {
  Rng rng(3);
  Tensor x = random_tensor({2, 3, 2, 2}, rng, false);
  Tensor back = ag::conv2d(x, tap_identity(3), Tensor(), 1, 0);
  ASSERT_EQ(back.shape(), x.shape());
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    EXPECT_FLOAT_EQ(back.data()[i], x.data()[i]);
  }
}

// The store's adjoint: dW and dbias read the NCHW output gradient as
// gemm rows.
TEST(RowsToNchw, Gradcheck) {
  Rng rng(4);
  Tensor x = random_tensor({2, 3, 2, 3}, rng, false);
  Tensor w = random_tensor({4, 3}, rng);
  Tensor bias = random_tensor({4}, rng);
  auto fn = [x](const std::vector<Tensor>& in) {
    return ag::sum(ag::square(ag::conv2d(x, in[0], in[1], 1, 0)));
  };
  EXPECT_TRUE(ag::gradcheck(fn, {w, bias}).ok);
}

TEST(AdaptiveAvgPool, ExactDivision) {
  Tensor x = Tensor::from_data({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor y = ag::adaptive_avgpool2d(x, 1, 1);
  EXPECT_FLOAT_EQ(y.data()[0], 2.5f);
}

TEST(AdaptiveAvgPool, UnevenBins) {
  Tensor x = Tensor::from_data({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y = ag::adaptive_avgpool2d(x, 2, 2);
  EXPECT_EQ(y.dim(2), 2);
  // bin (0,0) covers rows 0..1, cols 0..1 -> mean(1,2,4,5) = 3
  EXPECT_FLOAT_EQ(y.data()[0], 3.0f);
}

TEST(AdaptiveAvgPool, Gradcheck) {
  Rng rng(5);
  Tensor x = random_tensor({1, 2, 5, 5}, rng);
  auto fn = [](const std::vector<Tensor>& in) {
    return ag::sum(ag::square(ag::adaptive_avgpool2d(in[0], 2, 2)));
  };
  EXPECT_TRUE(ag::gradcheck(fn, {x}).ok);
}

TEST(MaxPool, ValuesAndGradientRouting) {
  Tensor x = Tensor::from_data({1, 1, 2, 2}, {1, 5, 3, 2}, true);
  Tensor y = ag::maxpool2d(x, 2, 2);
  EXPECT_FLOAT_EQ(y.data()[0], 5);
  ag::sum(y).backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 0);
  EXPECT_FLOAT_EQ(x.grad()[1], 1);  // only the argmax receives gradient
  EXPECT_FLOAT_EQ(x.grad()[2], 0);
}

TEST(MaxPool, StrideAndShape) {
  Rng rng(6);
  Tensor x = random_tensor({2, 3, 6, 6}, rng, false);
  Tensor y = ag::maxpool2d(x, 2, 2);
  EXPECT_EQ(y.dim(2), 3);
  EXPECT_EQ(y.dim(3), 3);
}

TEST(MaxPool, AdjointIdentityAndThreadDeterminism) {
  // <maxpool(x), g> == <x, scatter(g)>: the backward is the exact adjoint of
  // the selection map, including overlapping windows (stride < k).
  Rng rng(61);
  Tensor x = random_tensor({2, 3, 7, 7}, rng);
  Tensor y = ag::maxpool2d(x, 3, 2);
  std::vector<float> g(static_cast<std::size_t>(y.numel()));
  for (auto& v : g) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  y.backward(&g);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    lhs += static_cast<double>(y.data()[i]) * g[i];
  }
  // Scatter routes each output grad to its argmax pixel, so <x, gx> equals
  // <y, g> when every selected pixel value is multiplied once per window
  // that picked it — verify via a fresh forward under perturbation instead:
  // directional derivative of <maxpool(x), g> along x equals <gx, x> for
  // the piecewise-linear pooling (positively homogeneous of degree 1).
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    rhs += static_cast<double>(x.grad()[i]) * x.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);

  // Threaded backward scatters identically to the serial one.
  const std::vector<float> gx1 = x.grad();
  x.zero_grad();
  {
    adept::backend::ThreadScope eight(8);
    Tensor y8 = ag::maxpool2d(x, 3, 2);
    y8.backward(&g);
    for (std::size_t i = 0; i < y.data().size(); ++i) {
      ASSERT_EQ(y.data()[i], y8.data()[i]);
    }
  }
  for (std::size_t i = 0; i < gx1.size(); ++i) ASSERT_EQ(x.grad()[i], gx1[i]);
}

TEST(AdaptiveAvgPool, ThreadDeterminism) {
  Rng rng(62);
  Tensor x = random_tensor({3, 4, 9, 9}, rng);
  Tensor y = ag::adaptive_avgpool2d(x, 4, 4);
  std::vector<float> g(static_cast<std::size_t>(y.numel()));
  for (auto& v : g) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  y.backward(&g);
  const std::vector<float> gx1 = x.grad();
  x.zero_grad();
  {
    adept::backend::ThreadScope eight(8);
    Tensor y8 = ag::adaptive_avgpool2d(x, 4, 4);
    for (std::size_t i = 0; i < y.data().size(); ++i) {
      ASSERT_EQ(y.data()[i], y8.data()[i]);
    }
    y8.backward(&g);
  }
  for (std::size_t i = 0; i < gx1.size(); ++i) ASSERT_EQ(x.grad()[i], gx1[i]);
}

TEST(BatchNorm, NormalizesBatchStatistics) {
  Rng rng(7);
  Tensor x = random_tensor({4, 2, 3, 3}, rng, false);
  Tensor gamma = Tensor::full({2}, 1.0f);
  Tensor beta = Tensor::zeros({2});
  std::vector<float> rm(2, 0.0f), rv(2, 1.0f);
  Tensor y = ag::batchnorm2d(x, gamma, beta, rm, rv, /*training=*/true);
  // per-channel mean ~0, var ~1
  for (int c = 0; c < 2; ++c) {
    double s = 0, s2 = 0;
    int cnt = 0;
    for (int n = 0; n < 4; ++n) {
      for (int i = 0; i < 9; ++i) {
        const float v = y.data()[static_cast<std::size_t>(((n * 2 + c) * 9) + i)];
        s += v;
        s2 += v * v;
        ++cnt;
      }
    }
    EXPECT_NEAR(s / cnt, 0.0, 1e-4);
    EXPECT_NEAR(s2 / cnt, 1.0, 1e-2);
  }
  // running stats moved away from init
  EXPECT_NE(rm[0], 0.0f);
}

TEST(BatchNorm, EvalUsesRunningStats) {
  Tensor x = Tensor::full({1, 1, 2, 2}, 3.0f);
  Tensor gamma = Tensor::full({1}, 1.0f);
  Tensor beta = Tensor::zeros({1});
  std::vector<float> rm(1, 1.0f), rv(1, 4.0f);
  Tensor y = ag::batchnorm2d(x, gamma, beta, rm, rv, /*training=*/false);
  EXPECT_NEAR(y.data()[0], (3.0f - 1.0f) / 2.0f, 1e-3);
  // eval must not update running stats
  EXPECT_FLOAT_EQ(rm[0], 1.0f);
}

TEST(BatchNorm, GradcheckTraining) {
  Rng rng(8);
  Tensor x = random_tensor({2, 2, 2, 2}, rng);
  Tensor gamma = random_tensor({2}, rng);
  Tensor beta = random_tensor({2}, rng);
  auto fn = [](const std::vector<Tensor>& in) {
    std::vector<float> rm(2, 0.0f), rv(2, 1.0f);
    return ag::sum(
        ag::square(ag::batchnorm2d(in[0], in[1], in[2], rm, rv, true)));
  };
  const auto result = ag::gradcheck(fn, {x, gamma, beta}, 1e-2, 2e-2, 8e-2);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(ArgmaxRows, PicksLargest) {
  Tensor a = Tensor::from_data({2, 3}, {1, 9, 2, 5, 4, 3});
  const auto idx = ag::argmax_rows(a);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

}  // namespace
