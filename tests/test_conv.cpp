// Parity of the implicit-GEMM convolution (backend::conv2d_forward /
// conv2d_backward, and the ag::conv2d tape node over them) against the
// materialized reference it replaced: be::im2col, gemm, a row-order bias
// sum, gemm_tn_split and col2im, computed test-side on the same random
// inputs, in the manner of a kernel checker (one op against its naive
// composition). Forward, dX, dW and dbias must be ASSERT_EQ — the conv
// feeds the microkernels the values the im2col matrix holds, in the same k
// order — over awkward shapes, at every SIMD level including scalar, at 1
// and 4 threads, and with the tape's free lists full of NaN.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "autograd/tensor.h"
#include "backend/dispatch.h"
#include "backend/kernels.h"
#include "backend/parallel.h"
#include "common/rng.h"
#include "pool_fanouts.h"

namespace {

namespace ag = adept::ag;
namespace be = adept::backend;
using adept::Rng;
using be::Trans;

struct ConvCase {
  const char* name;
  be::ConvShape s;
};

be::ConvShape shape(std::int64_t n, std::int64_t c, std::int64_t h,
                    std::int64_t w, std::int64_t k, std::int64_t stride,
                    std::int64_t pad, std::int64_t out_c) {
  be::ConvShape s;
  s.n = n;
  s.c = c;
  s.h = h;
  s.w = w;
  s.k = k;
  s.stride = stride;
  s.pad = pad;
  s.out_c = out_c;
  return s;
}

std::ostream& operator<<(std::ostream& os, const ConvCase& cc) {
  const be::ConvShape& s = cc.s;
  return os << cc.name << " [" << s.n << "x" << s.c << "x" << s.h << "x" << s.w
            << " k" << s.k << " s" << s.stride << " p" << s.pad << " -> "
            << s.out_c << "]";
}

// out_c 1 and 17 run the in-place tile (at most 4 column tiles), 65 the
// packed-A path; 6 rows per tile, 256-deep k-panels.
std::vector<ConvCase> cases() {
  return {
      {"stride2_pad1", shape(2, 3, 9, 9, 3, 2, 1, 17)},
      {"pad2_batch1_c1_out1", shape(1, 1, 7, 7, 5, 1, 2, 1)},
      {"one_by_one_packed", shape(3, 3, 5, 5, 1, 1, 0, 65)},
      {"kernel_equals_input", shape(2, 3, 6, 6, 6, 1, 0, 17)},
      {"fan_in_past_k_panel", shape(2, 11, 9, 9, 5, 1, 0, 17)},
      {"rows_off_tile_packed", shape(1, 3, 10, 7, 3, 1, 0, 65)},
      {"fan_in_past_k_panel_strided_packed", shape(2, 11, 9, 8, 5, 2, 1, 65)},
      // The search proxy's conv1: a long reduction gemm_tn_split chunks,
      // and enough rows for the forward and dX launches to fan out.
      {"proxy_conv1_split_dw", shape(16, 1, 28, 28, 5, 1, 0, 4)},
  };
}

std::vector<float> random_floats(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

struct Operands {
  std::vector<float> x, w, bias, gy;  // w [out_c, fan_in], gy like y
};

Operands make_operands(const be::ConvShape& s, std::uint64_t seed) {
  Rng rng(seed);
  Operands o;
  o.x = random_floats(static_cast<std::size_t>(s.n * s.c * s.h * s.w), rng);
  o.w = random_floats(static_cast<std::size_t>(s.out_c * s.fan_in()), rng);
  o.bias = random_floats(static_cast<std::size_t>(s.out_c), rng);
  o.gy = random_floats(static_cast<std::size_t>(s.n * s.out_c * s.oh() * s.ow()), rng);
  return o;
}

struct Grads {
  std::vector<float> y, gx, gw, gbias;
};

// The conv as the tape computed it before the implicit GEMM: im2col, a
// transposed weight copy, gemm(N, N), the bias add and the NCHW
// rearrangement forward; backward dY = 0 + gy rearranged, the bias sum in
// row order, dW^T by gemm_tn_split added transposed into dW, and dX as
// gemm(N, T) into columns scattered by col2im. Gradients start at zero.
Grads reference(const be::ConvShape& s, const Operands& o) {
  const std::int64_t rows = s.rows(), fan_in = s.fan_in(), out_c = s.out_c;
  const std::int64_t ohow = s.oh() * s.ow();
  std::vector<float> cols(static_cast<std::size_t>(rows * fan_in));
  be::im2col(o.x.data(), s.n, s.c, s.h, s.w, s.k, s.k, s.stride, s.pad, cols.data());
  std::vector<float> wt(static_cast<std::size_t>(fan_in * out_c));
  for (std::int64_t oc = 0; oc < out_c; ++oc) {
    for (std::int64_t i = 0; i < fan_in; ++i) {
      wt[static_cast<std::size_t>(i * out_c + oc)] = o.w[static_cast<std::size_t>(oc * fan_in + i)];
    }
  }
  std::vector<float> yrows(static_cast<std::size_t>(rows * out_c));
  be::gemm(Trans::N, Trans::N, rows, out_c, fan_in, 1.0f, cols.data(), fan_in, wt.data(),
           out_c, 0.0f, yrows.data(), out_c);
  Grads g;
  g.y.resize(o.gy.size());
  std::vector<float> dy(yrows.size());
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t ni = r / ohow, p = r % ohow;
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      const std::size_t nchw = static_cast<std::size_t>((ni * out_c + oc) * ohow + p);
      const std::size_t rm = static_cast<std::size_t>(r * out_c + oc);
      g.y[nchw] = yrows[rm] + o.bias[static_cast<std::size_t>(oc)];
      dy[rm] = 0.0f + o.gy[nchw];
    }
  }
  g.gbias.assign(static_cast<std::size_t>(out_c), 0.0f);
  for (std::size_t i = 0; i < dy.size(); ++i) g.gbias[i % static_cast<std::size_t>(out_c)] += dy[i];
  std::vector<float> dwt(static_cast<std::size_t>(fan_in * out_c));
  be::gemm_tn_split(fan_in, out_c, rows, cols.data(), fan_in, dy.data(), out_c, 0.0f,
                    dwt.data(), out_c);
  g.gw.assign(o.w.size(), 0.0f);
  for (std::int64_t oc = 0; oc < out_c; ++oc) {
    for (std::int64_t i = 0; i < fan_in; ++i) {
      g.gw[static_cast<std::size_t>(oc * fan_in + i)] += dwt[static_cast<std::size_t>(i * out_c + oc)];
    }
  }
  std::vector<float> dcols(cols.size());
  be::gemm(Trans::N, Trans::T, rows, fan_in, out_c, 1.0f, dy.data(), out_c, wt.data(), out_c,
           0.0f, dcols.data(), fan_in);
  g.gx.assign(o.x.size(), 0.0f);
  be::col2im(dcols.data(), s.n, s.c, s.h, s.w, s.k, s.k, s.stride, s.pad, g.gx.data());
  return g;
}

// The tape node: forward, then backward seeded with gy.
Grads tape(const be::ConvShape& s, const Operands& o) {
  ag::Tensor x = ag::Tensor::from_data({s.n, s.c, s.h, s.w}, o.x, true);
  ag::Tensor w = ag::Tensor::from_data({s.out_c, s.fan_in()}, o.w, true);
  ag::Tensor bias = ag::Tensor::from_data({1, s.out_c}, o.bias, true);
  ag::Tensor y = ag::conv2d(x, w, bias, s.stride, s.pad);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{s.n, s.out_c, s.oh(), s.ow()}));
  y.backward(&o.gy);
  return {y.data(), x.grad(), w.grad(), bias.grad()};
}

void expect_same(const std::vector<float>& want, const std::vector<float>& got,
                 const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << what << " element " << i;
  }
}

void expect_same(const Grads& want, const Grads& got) {
  expect_same(want.y, got.y, "y");
  expect_same(want.gx, got.gx, "dX");
  expect_same(want.gw, got.gw, "dW");
  expect_same(want.gbias, got.gbias, "dbias");
}

TEST(ConvParity, TapeMatchesMaterializedReferenceAtEveryLevelAndThreadCount) {
  for (be::SimdLevel level : be::available_simd_levels()) {
    be::SimdScope simd(level);
    for (const ConvCase& cc : cases()) {
      SCOPED_TRACE(testing::Message() << be::simd_level_name(level) << " " << cc);
      const Operands o = make_operands(cc.s, 7);
      Grads want;
      {
        be::ThreadScope one(1);
        want = reference(cc.s, o);
        expect_same(want, tape(cc.s, o));
      }
      be::ThreadScope four(4);
      const std::uint64_t before = adept::test::pool_fanouts();
      expect_same(want, tape(cc.s, o));
      if (cc.s.rows() >= 4096) {
        EXPECT_GT(adept::test::pool_fanouts(), before) << "the 4-thread run never fanned out";
      }
    }
  }
}

// A recycled tape buffer keeps what it last held: run each case once so the
// calling thread's free lists hold its sizes, poison them, and run again.
TEST(ConvParity, TapeIgnoresNanFilledFreeLists) {
  for (const ConvCase& cc : cases()) {
    SCOPED_TRACE(testing::Message() << cc);
    const Operands o = make_operands(cc.s, 11);
    const Grads want = reference(cc.s, o);
    tape(cc.s, o);
    ag::debug::fill_free_lists(std::numeric_limits<float>::quiet_NaN());
    expect_same(want, tape(cc.s, o));
  }
}

// The plan's call: the gemm-ready [fan_in, out_c] weight pre-packed for the
// active level, and the full store epilogue (bias, BN affine, ReLU) against
// the expressions the separate plan steps evaluate.
TEST(ConvParity, PackedWeightAndEpilogueMatchReference) {
  for (be::SimdLevel level : be::available_simd_levels()) {
    be::SimdScope simd(level);
    for (const ConvCase& cc : cases()) {
      SCOPED_TRACE(testing::Message() << be::simd_level_name(level) << " " << cc);
      const be::ConvShape& s = cc.s;
      const Operands o = make_operands(s, 13);
      Rng rng(17);
      const auto mu = random_floats(static_cast<std::size_t>(s.out_c), rng);
      auto invstd = random_floats(static_cast<std::size_t>(s.out_c), rng);
      for (auto& v : invstd) v += 2.0f;
      const auto gamma = random_floats(static_cast<std::size_t>(s.out_c), rng);
      const auto beta = random_floats(static_cast<std::size_t>(s.out_c), rng);
      const std::int64_t fan_in = s.fan_in(), out_c = s.out_c;
      const std::int64_t ohow = s.oh() * s.ow();

      // Reference: y = conv + bias, then the standalone BN and ReLU steps.
      std::vector<float> want = reference(s, o).y;
      for (std::size_t i = 0; i < want.size(); ++i) {
        const std::size_t oc = (i / static_cast<std::size_t>(ohow)) % static_cast<std::size_t>(out_c);
        const float v = (want[i] - mu[oc]) * invstd[oc] * gamma[oc] + beta[oc];
        want[i] = v > 0.0f ? v : 0.0f;
      }

      std::vector<float> wt(static_cast<std::size_t>(fan_in * out_c));
      for (std::int64_t oc = 0; oc < out_c; ++oc) {
        for (std::int64_t i = 0; i < fan_in; ++i) {
          wt[static_cast<std::size_t>(i * out_c + oc)] = o.w[static_cast<std::size_t>(oc * fan_in + i)];
        }
      }
      const be::PackedGemmB pw = be::pack_gemm_b(Trans::N, fan_in, out_c, wt.data(), out_c);
      be::ConvEpilogue ep;
      ep.bias = o.bias.data();
      ep.mu = mu.data();
      ep.invstd = invstd.data();
      ep.gamma = gamma.data();
      ep.beta = beta.data();
      ep.relu = true;
      std::vector<float> got(want.size(), std::numeric_limits<float>::quiet_NaN());
      be::conv2d_forward(s, o.x.data(), Trans::N, wt.data(), out_c, &pw, ep, got.data());
      expect_same(want, got, "y");
    }
  }
}

// Shapes the node cannot take are refused, not silently reinterpreted.
TEST(ConvParity, RejectsMismatchedShapes) {
  const ag::Tensor x = ag::Tensor::zeros({1, 2, 6, 6});
  EXPECT_THROW(ag::conv2d(x, ag::Tensor::zeros({3, 25}), ag::Tensor(), 1, 0),
               std::invalid_argument);  // fan-in 25 is not 2*K*K
  EXPECT_THROW(ag::conv2d(x, ag::Tensor::zeros({3, 2 * 49}), ag::Tensor(), 1, 0),
               std::invalid_argument);  // 7x7 kernel on a 6x6 input
  EXPECT_THROW(ag::conv2d(x, ag::Tensor::zeros({3, 18}), ag::Tensor::zeros({2}), 1, 0),
               std::invalid_argument);  // bias is not [3]
  EXPECT_NO_THROW(ag::conv2d(x, ag::Tensor::zeros({3, 2 * 49}), ag::Tensor(), 1, 1));
}

// No fp32 conv takes a buffer the size of its patch matrix from the tape:
// after a forward and backward on a fresh thread, with every tensor gone,
// the free lists hold at most the conv's inputs, output and gradients.
TEST(ConvParity, FreeListsHoldNoPatchMatrix) {
  const be::ConvShape s = shape(8, 8, 16, 16, 5, 1, 0, 8);
  const std::size_t patch_bytes =
      static_cast<std::size_t>(s.rows() * s.fan_in()) * sizeof(float);
  std::size_t tensor_bytes = 0, cached = 0, before = 0;
  std::thread t([&] {
    before = ag::debug::cached_bytes();
    const Operands o = make_operands(s, 19);
    const Grads g = tape(s, o);
    // data and grad of x, w, bias and y
    tensor_bytes = 2 * (o.x.size() + o.w.size() + o.bias.size() + g.y.size()) * sizeof(float);
    cached = ag::debug::cached_bytes() - before;
  });
  t.join();
  EXPECT_GT(patch_bytes, tensor_bytes);
  EXPECT_LE(cached, tensor_bytes) << "patch matrix " << patch_bytes << " bytes";
}

}  // namespace
