// Tests for the src/backend dense kernel layer: blocked gemm (all transpose
// variants, non-square/odd shapes, alpha/beta), the split long-reduction
// weight-gradient gemm, fused elementwise kernels, im2col/col2im (the conv
// kernels' reference; tests/test_conv.cpp checks the conv itself), the
// parallel_for runtime and its thread caps, thread-count bit-exactness, and
// gradchecks of the autograd ops ported onto the backend.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "backend/dispatch.h"
#include "backend/kernels.h"
#include "backend/parallel.h"
#include "comm/communicator.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "nn/train.h"
#include "photonics/builders.h"
#include "pool_fanouts.h"

namespace {

namespace be = adept::backend;
namespace ag = adept::ag;
namespace comm = adept::comm;
using adept::Rng;
using adept::test::pool_fanouts;
using be::Trans;

template <typename T>
std::vector<T> random_vec(std::size_t n, Rng& rng) {
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.uniform(-1.0, 1.0));
  return v;
}

std::vector<std::complex<double>> random_cvec(std::size_t n, Rng& rng) {
  std::vector<std::complex<double>> v(n);
  for (auto& x : v) x = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return v;
}

// Reference triple-loop gemm with logical transposes.
template <typename T>
std::vector<T> ref_gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                        std::int64_t k, T alpha, const std::vector<T>& a,
                        std::int64_t lda, const std::vector<T>& b,
                        std::int64_t ldb, T beta, std::vector<T> c,
                        std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      T acc{};
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const T av = ta == Trans::N ? a[static_cast<std::size_t>(i * lda + kk)]
                                    : a[static_cast<std::size_t>(kk * lda + i)];
        const T bv = tb == Trans::N ? b[static_cast<std::size_t>(kk * ldb + j)]
                                    : b[static_cast<std::size_t>(j * ldb + kk)];
        acc += av * bv;
      }
      auto& cv = c[static_cast<std::size_t>(i * ldc + j)];
      cv = alpha * acc + beta * cv;
    }
  }
  return c;
}

struct GemmCase {
  Trans ta, tb;
  std::int64_t m, n, k;
  float alpha, beta;
};

class GemmVariants : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmVariants, MatchesReference) {
  const GemmCase p = GetParam();
  Rng rng(42);
  // Physical layouts: op(A) is [m,k] so A is [m,k] (N) or [k,m] (T).
  const std::int64_t lda = p.ta == Trans::N ? p.k : p.m;
  const std::int64_t ldb = p.tb == Trans::N ? p.n : p.k;
  const auto a = random_vec<float>(static_cast<std::size_t>(
                                       (p.ta == Trans::N ? p.m : p.k) * lda),
                                   rng);
  const auto b = random_vec<float>(static_cast<std::size_t>(
                                       (p.tb == Trans::N ? p.k : p.n) * ldb),
                                   rng);
  auto c0 = random_vec<float>(static_cast<std::size_t>(p.m * p.n), rng);
  const auto expect =
      ref_gemm(p.ta, p.tb, p.m, p.n, p.k, p.alpha, a, lda, b, ldb, p.beta, c0, p.n);
  auto c = c0;
  be::gemm(p.ta, p.tb, p.m, p.n, p.k, p.alpha, a.data(), lda, b.data(), ldb,
           p.beta, c.data(), p.n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expect[i], 1e-4f) << "elem " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmVariants,
    ::testing::Values(
        GemmCase{Trans::N, Trans::N, 3, 5, 7, 1.0f, 0.0f},
        GemmCase{Trans::N, Trans::T, 3, 5, 7, 1.0f, 0.0f},
        GemmCase{Trans::T, Trans::N, 3, 5, 7, 1.0f, 0.0f},
        GemmCase{Trans::T, Trans::T, 3, 5, 7, 1.0f, 0.0f},
        GemmCase{Trans::N, Trans::N, 17, 9, 13, 0.5f, 1.0f},
        GemmCase{Trans::N, Trans::T, 13, 17, 9, 2.0f, 0.5f},
        GemmCase{Trans::T, Trans::N, 9, 13, 17, 1.0f, 1.0f},
        GemmCase{Trans::T, Trans::T, 16, 16, 16, 1.0f, 0.0f},
        GemmCase{Trans::N, Trans::N, 1, 31, 1, 1.0f, 0.0f},
        GemmCase{Trans::N, Trans::N, 31, 1, 31, 1.0f, 0.0f},
        // k exceeding the 256-deep panel exercises the k-blocking seam.
        GemmCase{Trans::N, Trans::N, 5, 7, 300, 1.0f, 0.0f},
        GemmCase{Trans::N, Trans::T, 5, 7, 300, 1.0f, 1.0f}));

TEST(Gemm, DoubleAndComplexMatchReference) {
  Rng rng(7);
  const std::int64_t m = 11, n = 6, k = 9;
  const auto ad = random_vec<double>(static_cast<std::size_t>(m * k), rng);
  const auto bd = random_vec<double>(static_cast<std::size_t>(k * n), rng);
  std::vector<double> cd(static_cast<std::size_t>(m * n), 0.0);
  const auto expect_d =
      ref_gemm(Trans::N, Trans::N, m, n, k, 1.0, ad, k, bd, n, 0.0, cd, n);
  be::gemm(Trans::N, Trans::N, m, n, k, 1.0, ad.data(), k, bd.data(), n, 0.0,
           cd.data(), n);
  for (std::size_t i = 0; i < cd.size(); ++i) EXPECT_NEAR(cd[i], expect_d[i], 1e-12);

  const auto ac = random_cvec(static_cast<std::size_t>(m * k), rng);
  const auto bc = random_cvec(static_cast<std::size_t>(k * n), rng);
  std::vector<std::complex<double>> cc(static_cast<std::size_t>(m * n));
  const auto expect_c = ref_gemm(Trans::N, Trans::N, m, n, k,
                                 std::complex<double>(1.0, 0.0), ac, k, bc, n,
                                 std::complex<double>(0.0, 0.0), cc, n);
  be::gemm(Trans::N, Trans::N, m, n, k, std::complex<double>(1.0, 0.0),
           ac.data(), k, bc.data(), n, std::complex<double>(0.0, 0.0),
           cc.data(), n);
  for (std::size_t i = 0; i < cc.size(); ++i) {
    EXPECT_NEAR(std::abs(cc[i] - expect_c[i]), 0.0, 1e-12);
  }
}

TEST(Gemm, ZeroInnerDimAppliesBeta) {
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  be::gemm(Trans::N, Trans::N, 2, 2, 0, 1.0f, nullptr, 1, nullptr, 1, 0.5f,
           c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
}

// The kernel contract: chunk boundaries depend only on the problem size, so
// any thread count reproduces the single-thread result bit-for-bit. The
// small shape stays under the pool's work gate (serial at any budget); the
// tall one fans out.
TEST(Determinism, ThreadedMatchesSerialBitExactly) {
  Rng rng(13);
  for (const std::int64_t m : {97, 1201}) {
    const std::int64_t n = 65, k = 301;  // odd sizes straddle all seams
    const auto a = random_vec<float>(static_cast<std::size_t>(m * k), rng);
    const auto b = random_vec<float>(static_cast<std::size_t>(k * n), rng);
    std::vector<float> c_serial(static_cast<std::size_t>(m * n), 0.0f);
    std::vector<float> c_threaded = c_serial;
    {
      be::ThreadScope one(1);
      be::gemm(Trans::N, Trans::T, m, n, k, 1.0f, a.data(), k, b.data(), k, 0.0f,
               c_serial.data(), n);
    }
    {
      be::ThreadScope four(4);
      const std::uint64_t fanouts = pool_fanouts();
      be::gemm(Trans::N, Trans::T, m, n, k, 1.0f, a.data(), k, b.data(), k, 0.0f,
               c_threaded.data(), n);
      if (m > 97) EXPECT_GT(pool_fanouts(), fanouts) << "m " << m;
    }
    for (std::size_t i = 0; i < c_serial.size(); ++i) {
      ASSERT_EQ(c_serial[i], c_threaded[i]) << "m " << m << " elem " << i;
    }
  }
}

// ---- long-reduction weight gradients (gemm_tn_split) ----------------------
//
// Checked the way kernels are checked against a reference implementation:
// the split against gemm on the same random inputs within a tolerance (the
// summation order differs by design), then 1 vs 4 threads bit for bit.

// The proxy CNN's dW shapes (m = C*kh*kw, n = out channels, k = batch rows
// times output pixels) and awkward ones: k tails that leave uneven chunks,
// m off the 6-row tile, n in {1, 4, 10, 17}, a reduction shorter than the
// chunk count and k = 1 (both fall through to gemm), and the width-32
// training conv whose gemm already fans out its rows.
struct SplitCase {
  std::int64_t m, n, k;
  bool split;  // whether the size-only decision splits the reduction
};

const SplitCase kSplitCases[] = {
    {25, 4, 13824, true},  {100, 4, 9600, true}, {25, 32, 12800, true},
    {25, 4, 13825, true},  {13, 10, 9601, true}, {7, 17, 4099, true},
    {25, 1, 9600, true},   {25, 4, 5, false},    {25, 4, 1, false},
    {800, 32, 9600, false}, {25, 4, 24, false},  {100, 10, 32, false}};

TEST(GemmSplit, MatchesGemmWithinTolerance) {
  Rng rng(91);
  for (const SplitCase& p : kSplitCases) {
    EXPECT_EQ(be::detail::gemm_tn_split_chunks(p.m, p.n, p.k) > 1, p.split)
        << p.m << "x" << p.n << "x" << p.k;
    const auto a = random_vec<float>(static_cast<std::size_t>(p.k * p.m), rng);
    const auto g = random_vec<float>(static_cast<std::size_t>(p.k * p.n), rng);
    const auto c0 = random_vec<float>(static_cast<std::size_t>(p.m * p.n), rng);
    for (const float beta : {0.0f, 1.0f}) {
      auto ref = c0;
      be::gemm(Trans::T, Trans::N, p.m, p.n, p.k, 1.0f, a.data(), p.m, g.data(),
               p.n, beta, ref.data(), p.n);
      // beta = 0 must never read C: the tape hands over recycled buffers.
      auto got = beta == 0.0f ? std::vector<float>(c0.size(),
                                                   std::numeric_limits<float>::quiet_NaN())
                              : c0;
      be::gemm_tn_split(p.m, p.n, p.k, a.data(), p.m, g.data(), p.n, beta,
                        got.data(), p.n);
      if (!p.split) {  // gemm itself
        ASSERT_EQ(got, ref) << p.m << "x" << p.n << "x" << p.k;
        continue;
      }
      for (std::int64_t i = 0; i < p.m; ++i) {
        for (std::int64_t j = 0; j < p.n; ++j) {
          // Both are float sums of the same k products in different orders:
          // allow 1e-6 of the sum of their magnitudes (the largest
          // difference measured at the proxy shapes is about 4e-8 of it).
          double mag = 0.0;
          for (std::int64_t r = 0; r < p.k; ++r) {
            mag += std::fabs(static_cast<double>(a[static_cast<std::size_t>(r * p.m + i)]) *
                             g[static_cast<std::size_t>(r * p.n + j)]);
          }
          const std::size_t e = static_cast<std::size_t>(i * p.n + j);
          ASSERT_NEAR(got[e], ref[e], 1e-6 * mag + 1e-6)
              << p.m << "x" << p.n << "x" << p.k << " beta " << beta << " ("
              << i << ", " << j << ")";
        }
      }
    }
  }
}

// The split's bits are specified, not only its tolerance: the chunks are
// gemm(T, N) calls over rows [k*c/chunks, k*(c+1)/chunks), summed in
// ShardedGradReducer's pairwise tree, then added to beta * C.
TEST(GemmSplit, EqualsTreeOfChunkGemms) {
  Rng rng(93);
  for (const SplitCase& p : kSplitCases) {
    if (!p.split) continue;
    const int chunks = be::detail::gemm_tn_split_chunks(p.m, p.n, p.k);
    ASSERT_GE(chunks, 2);
    ASSERT_LE(chunks, 8);
    ASSERT_EQ(chunks & (chunks - 1), 0) << "power of two";
    const auto a = random_vec<float>(static_cast<std::size_t>(p.k * p.m), rng);
    const auto g = random_vec<float>(static_cast<std::size_t>(p.k * p.n), rng);
    const auto c0 = random_vec<float>(static_cast<std::size_t>(p.m * p.n), rng);
    const std::size_t mn = static_cast<std::size_t>(p.m * p.n);
    std::vector<std::vector<float>> part(static_cast<std::size_t>(chunks),
                                         std::vector<float>(mn));
    for (int c = 0; c < chunks; ++c) {
      const std::int64_t lo = p.k * c / chunks, hi = p.k * (c + 1) / chunks;
      be::gemm(Trans::T, Trans::N, p.m, p.n, hi - lo, 1.0f, a.data() + lo * p.m,
               p.m, g.data() + lo * p.n, p.n, 0.0f,
               part[static_cast<std::size_t>(c)].data(), p.n);
    }
    for (int stride = 1; stride < chunks; stride *= 2) {
      for (int r = 0; r + stride < chunks; r += 2 * stride) {
        for (std::size_t e = 0; e < mn; ++e) {
          part[static_cast<std::size_t>(r)][e] +=
              part[static_cast<std::size_t>(r + stride)][e];
        }
      }
    }
    std::vector<float> got(mn, std::numeric_limits<float>::quiet_NaN());
    be::gemm_tn_split(p.m, p.n, p.k, a.data(), p.m, g.data(), p.n, 0.0f,
                      got.data(), p.n);
    ASSERT_EQ(got, part[0]) << p.m << "x" << p.n << "x" << p.k;
    auto acc = c0;
    be::gemm_tn_split(p.m, p.n, p.k, a.data(), p.m, g.data(), p.n, 1.0f,
                      acc.data(), p.n);
    for (std::size_t e = 0; e < mn; ++e) {
      ASSERT_EQ(acc[e], c0[e] + part[0][e]) << p.m << "x" << p.n << "x" << p.k;
    }
  }
}

TEST(GemmSplit, ZeroInnerDimAppliesBeta) {
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  be::gemm_tn_split(2, 2, 0, nullptr, 2, nullptr, 2, 0.5f, c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
  std::vector<float> z(4, std::numeric_limits<float>::quiet_NaN());
  be::gemm_tn_split(2, 2, 0, nullptr, 2, nullptr, 2, 0.0f, z.data(), 2);
  for (const float v : z) EXPECT_EQ(v, 0.0f);
}

TEST(GemmSplit, OneAndFourThreadsBitExact) {
  Rng rng(92);
  for (const SplitCase& p : kSplitCases) {
    const auto a = random_vec<float>(static_cast<std::size_t>(p.k * p.m), rng);
    const auto g = random_vec<float>(static_cast<std::size_t>(p.k * p.n), rng);
    const auto c0 = random_vec<float>(static_cast<std::size_t>(p.m * p.n), rng);
    for (const float beta : {0.0f, 1.0f}) {
      auto c1 = c0, c4 = c0;
      {
        be::ThreadScope one(1);
        be::gemm_tn_split(p.m, p.n, p.k, a.data(), p.m, g.data(), p.n, beta,
                          c1.data(), p.n);
      }
      {
        be::ThreadScope four(4);
        const std::uint64_t fanouts = pool_fanouts();
        be::gemm_tn_split(p.m, p.n, p.k, a.data(), p.m, g.data(), p.n, beta,
                          c4.data(), p.n);
        if (p.split) {
          EXPECT_GT(pool_fanouts(), fanouts) << p.m << "x" << p.n << "x" << p.k;
        }
      }
      for (std::size_t e = 0; e < c1.size(); ++e) {
        ASSERT_EQ(c1[e], c4[e]) << p.m << "x" << p.n << "x" << p.k << " beta "
                                << beta << " elem " << e;
      }
    }
  }
}

// End to end through the tape: the proxy CNN at width 4 and batch 24 on
// 28x28 images has conv weight gradients of 25 x 4 over 13824 rows and
// 100 x 4 over 9600, both split. Single-process (ranks = 0), as search_k16
// trains it.
TEST(GemmSplit, ProxyCnnTrainingBitExactAcrossThreadCounts) {
  ASSERT_GT(be::detail::gemm_tn_split_chunks(25, 4, 24 * 24 * 24), 1);
  ASSERT_GT(be::detail::gemm_tn_split_chunks(100, 4, 24 * 20 * 20), 1);
  struct Run {
    std::vector<double> losses, accuracies;
    std::vector<std::vector<float>> grads;
  };
  auto train = [] {
    const auto spec = adept::data::DatasetSpec::mnist_like();
    adept::data::SyntheticDataset train_set(spec, 48, 1);
    adept::data::SyntheticDataset test_set(spec, 24, 2);
    auto topo = std::make_shared<adept::photonics::PtcTopology>(
        adept::photonics::butterfly(8));
    Rng rng(5);
    auto model = adept::nn::make_proxy_cnn(
        1, 28, 10, adept::nn::PtcBinding::fixed(topo), rng, /*width=*/4);
    adept::nn::TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = 24;
    tc.seed = 3;
    const adept::nn::TrainStats stats =
        adept::nn::train_classifier(model, train_set, test_set, tc);
    Run run;
    run.losses = stats.train_loss_per_epoch;
    run.accuracies = stats.test_accuracy_per_epoch;
    for (auto& p : model.parameters()) run.grads.push_back(p.grad());
    return run;
  };
  Run serial, threaded;
  {
    be::ThreadScope one(1);
    serial = train();
  }
  {
    be::ThreadScope four(4);
    const std::uint64_t fanouts = pool_fanouts();
    threaded = train();
    EXPECT_GT(pool_fanouts(), fanouts);
  }
  ASSERT_EQ(serial.losses, threaded.losses);
  ASSERT_EQ(serial.accuracies, threaded.accuracies);
  ASSERT_EQ(serial.grads.size(), threaded.grads.size());
  for (std::size_t i = 0; i < serial.grads.size(); ++i) {
    ASSERT_FALSE(serial.grads[i].empty()) << "param " << i;
    ASSERT_EQ(serial.grads[i], threaded.grads[i]) << "param " << i;
  }
}

TEST(Parallel, ForCoversEveryIndexExactlyOnce) {
  // Element-cost bodies stay under the gate; a heavy per-index cost passes it.
  for (const std::int64_t cost : {be::kElemCost, std::int64_t{1} << 20}) {
    for (int threads : {1, 4}) {
      be::ThreadScope scope(threads);
      const std::int64_t n = 10'007;  // prime, so chunks never divide evenly
      std::vector<std::int32_t> hits(static_cast<std::size_t>(n), 0);
      const std::uint64_t fanouts = pool_fanouts();
      be::parallel_for(n, 64, cost, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          hits[static_cast<std::size_t>(i)] += 1;
        }
      });
      if (threads > 1 && cost > be::kElemCost) EXPECT_GT(pool_fanouts(), fanouts);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1)
            << "threads " << threads << " cost " << cost << " index " << i;
      }
    }
  }
}

// A heavy per-index cost: launches at any size pass the work gate, so the
// pool contract tests below exercise the fan-out path.
constexpr std::int64_t kHeavy = std::int64_t{1} << 24;

TEST(Parallel, ConcurrentLaunchesFromEightThreadsMatchSerial) {
  Rng rng(16);
  const std::int64_t m = 1201, n = 48, k = 200;
  const auto a = random_vec<float>(static_cast<std::size_t>(m * k), rng);
  const auto b = random_vec<float>(static_cast<std::size_t>(k * n), rng);
  std::vector<float> serial(static_cast<std::size_t>(m * n));
  {
    be::ThreadScope one(1);
    be::gemm(Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
             serial.data(), n);
  }
  be::ThreadScope four(4);
  const std::uint64_t fanouts = pool_fanouts();
  std::vector<std::vector<float>> outs(8);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < outs.size(); ++t) {
    callers.emplace_back([&, t] {
      for (int rep = 0; rep < 20; ++rep) {
        std::vector<float> c(serial.size());
        be::gemm(Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
                 c.data(), n);
        if (c != serial) {
          outs[t] = std::move(c);
          return;
        }
      }
      outs[t] = serial;
    });
  }
  for (auto& th : callers) th.join();
  EXPECT_GT(pool_fanouts(), fanouts);
  for (std::size_t t = 0; t < outs.size(); ++t) {
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(outs[t][i], serial[i]) << "caller " << t << " elem " << i;
    }
  }
  // Bursts of short launches: cores return to the budget while other
  // launches are still running, so a helper that finished one caller's
  // chunks is posted to by another before the first caller revokes the
  // helpers it never saw start. A launch must only ever revoke its own
  // post, or a caller waits forever on a helper that was taken from it.
  std::vector<std::int64_t> missed(8, 0);
  callers.clear();
  for (std::size_t t = 0; t < missed.size(); ++t) {
    callers.emplace_back([&, t] {
      for (int rep = 0; rep < 2000; ++rep) {
        std::array<std::int32_t, 8> hits{};
        be::parallel_for(8, 1, kHeavy, [&](std::int64_t i0, std::int64_t i1) {
          std::uint32_t spin = static_cast<std::uint32_t>(i0);
          for (int k = 0; k < 2000 * static_cast<int>(1 + i0 % 3); ++k) {
            spin = spin * 1664525u + 1013904223u;
          }
          for (std::int64_t i = i0; i < i1; ++i) {
            hits[static_cast<std::size_t>(i)] += 1 + static_cast<std::int32_t>(spin & 0);
          }
        });
        for (const std::int32_t h : hits) missed[t] += h != 1;
      }
    });
  }
  for (auto& th : callers) th.join();
  for (std::size_t t = 0; t < missed.size(); ++t) ASSERT_EQ(missed[t], 0) << "caller " << t;
}

// A launch from inside a chunk of a fanned-out launch runs inline: every
// nested chunk runs on the thread of its outer chunk, and the nested index
// space is still covered exactly once.
TEST(Parallel, NestedLaunchRunsInlineAndCoversEveryIndex) {
  be::ThreadScope four(4);
  const std::int64_t outer = 16, inner = 1000;
  std::vector<std::int32_t> hits(static_cast<std::size_t>(outer * inner), 0);
  std::atomic<int> foreign{0};
  const std::uint64_t fanouts = pool_fanouts();
  be::parallel_for(outer, 1, kHeavy, [&](std::int64_t o0, std::int64_t o1) {
    for (std::int64_t o = o0; o < o1; ++o) {
      const std::thread::id self = std::this_thread::get_id();
      be::parallel_for(inner, 10, kHeavy, [&](std::int64_t i0, std::int64_t i1) {
        if (std::this_thread::get_id() != self) foreign.fetch_add(1);
        for (std::int64_t i = i0; i < i1; ++i) {
          hits[static_cast<std::size_t>(o * inner + i)] += 1;
        }
      });
    }
  });
  EXPECT_EQ(pool_fanouts(), fanouts + 1) << "only the outer launch fans out";
  EXPECT_EQ(foreign.load(), 0);
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

// Rank threads each hold a core of the budget, so ranks x kernel threads
// never exceed it: at budget 4, no more than 4 threads ever run chunks at
// once, whether 2 ranks fan out into the free cores or 4 ranks run serially.
TEST(Parallel, RankThreadsAndTheirKernelsStayWithinTheBudget) {
  be::ThreadScope four(4);
  for (int world : {2, 4}) {
    std::atomic<int> active{0}, peak{0};
    const std::uint64_t fanouts = pool_fanouts();
    comm::run_ranks(world, [&](comm::Communicator& c) {
      for (int rep = 0; rep < 30; ++rep) {
        be::parallel_for(64, 1, kHeavy, [&](std::int64_t, std::int64_t) {
          const int now = active.fetch_add(1) + 1;
          int seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          active.fetch_sub(1);
        });
      }
      c.barrier();
    });
    EXPECT_LE(peak.load(), 4) << "world " << world;
    if (world == 2) EXPECT_GT(pool_fanouts(), fanouts);
  }
}

// An exception thrown in a chunk reaches the caller at any budget, and the
// pool stays usable afterwards.
TEST(Parallel, ChunkExceptionReachesTheCaller) {
  for (int threads : {1, 4}) {
    be::ThreadScope scope(threads);
    const std::uint64_t fanouts = pool_fanouts();
    EXPECT_THROW(be::parallel_for(64, 1, kHeavy,
                                  [&](std::int64_t i0, std::int64_t i1) {
                                    if (i0 <= 37 && 37 < i1) {
                                      throw std::runtime_error("index 37");
                                    }
                                  }),
                 std::runtime_error)
        << "threads " << threads;
    // ScratchArena growth inside a chunk can throw bad_alloc.
    EXPECT_THROW(be::parallel_for(64, 1, kHeavy,
                                  [&](std::int64_t i0, std::int64_t) {
                                    if (i0 % 9 == 0) throw std::bad_alloc();
                                  }),
                 std::bad_alloc)
        << "threads " << threads;
    if (threads > 1) EXPECT_GT(pool_fanouts(), fanouts);
    std::atomic<std::int64_t> sum{0};
    be::parallel_for(64, 1, kHeavy, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
  }
}

// ThreadScope sets the process-wide budget: every thread sees it, a nested
// scope overrides it and keeps launches on the caller, each scope restores
// the previous budget on exit, and ThreadScope(0) reads the env/hardware
// default.
TEST(Parallel, ThreadScopeSetsProcessBudgetAndRestores) {
  const int outside = be::num_threads();
  ASSERT_GE(outside, 1);
  // A launch whose sizes ask for 64 threads; returns how many of its
  // indices ran off the calling thread.
  const auto off_caller = [] {
    const std::thread::id self = std::this_thread::get_id();
    std::atomic<int> off{0};
    be::parallel_for(64, 1, kHeavy, [&](std::int64_t i0, std::int64_t i1) {
      if (std::this_thread::get_id() != self) {
        off.fetch_add(static_cast<int>(i1 - i0));
      }
    });
    return off.load();
  };
  {
    be::ThreadScope four(4);
    EXPECT_EQ(be::num_threads(), 4);
    int sibling = 0;
    std::thread([&] { sibling = be::num_threads(); }).join();
    EXPECT_EQ(sibling, 4);
    std::uint64_t fanouts = pool_fanouts();
    off_caller();
    EXPECT_GT(pool_fanouts(), fanouts);
    {
      be::ThreadScope one(1);
      EXPECT_EQ(be::num_threads(), 1);
      fanouts = pool_fanouts();
      EXPECT_EQ(off_caller(), 0);
      EXPECT_EQ(pool_fanouts(), fanouts);
      {
        be::ThreadScope unset(0);
        EXPECT_EQ(be::num_threads(), outside);
      }
      EXPECT_EQ(be::num_threads(), 1);
    }
    EXPECT_EQ(be::num_threads(), 4);
  }
  EXPECT_EQ(be::num_threads(), outside);
}

TEST(Determinism, ElementwiseAndReduceBitExact) {
  Rng rng(14);
  // 100000 spans several elementwise/reduce chunks but stays under the work
  // gate; 2^21 fans out.
  for (const std::size_t n : {std::size_t{100000}, std::size_t{1} << 21}) {
    const auto a = random_vec<float>(n, rng);
    const auto b = random_vec<float>(n, rng);
    std::vector<float> m1(n), m4(n), z1(n), z4(n);
    double s1, s4;
    auto f = [](float x) { return std::tanh(x) + 0.5f * x; };
    auto g = [](float x, float y) { return x * y + 0.25f * x; };
    {
      be::ThreadScope one(1);
      be::map(n, a.data(), m1.data(), f);
      be::zip(n, a.data(), b.data(), z1.data(), g);
      s1 = be::reduce_sum(a.data(), n);
    }
    {
      be::ThreadScope four(4);
      std::uint64_t fanouts = pool_fanouts();
      const bool fans_out = n > 100000;
      be::map(n, a.data(), m4.data(), f);
      if (fans_out) EXPECT_GT(pool_fanouts(), fanouts) << "map";
      fanouts = pool_fanouts();
      be::zip(n, a.data(), b.data(), z4.data(), g);
      if (fans_out) EXPECT_GT(pool_fanouts(), fanouts) << "zip";
      fanouts = pool_fanouts();
      s4 = be::reduce_sum(a.data(), n);
      if (fans_out) EXPECT_GT(pool_fanouts(), fanouts) << "reduce_sum";
    }
    EXPECT_EQ(s1, s4);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(m1[i], m4[i]);
      ASSERT_EQ(z1[i], z4[i]);
    }
  }
}

TEST(Im2col, MatchesNaiveAndIsAdjointOfCol2im) {
  Rng rng(15);
  struct Geometry {
    std::int64_t kh, kw, stride, pad;
  };
  // pad 0 takes the path without the up-front zero fill (no tap can be
  // clipped); pad 1 and 2 clip taps at every border. The 5x5 kernel takes
  // the fixed-size copy of unclipped rows.
  for (const Geometry g : {Geometry{3, 2, 2, 1}, Geometry{3, 2, 2, 0},
                           Geometry{3, 2, 2, 2}, Geometry{5, 5, 1, 0}}) {
    SCOPED_TRACE(::testing::Message() << "k " << g.kh << "x" << g.kw << " stride "
                                      << g.stride << " pad " << g.pad);
    const std::int64_t n = 2, c = 3, h = 7, w = 6, kh = g.kh, kw = g.kw,
                       stride = g.stride, pad = g.pad;
    const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
    const std::int64_t ow = (w + 2 * pad - kw) / stride + 1;
    const std::int64_t cols = c * kh * kw, rows = n * oh * ow;
    const auto x = random_vec<float>(static_cast<std::size_t>(n * c * h * w), rng);

    // Naive gather.
    std::vector<float> expect(static_cast<std::size_t>(rows * cols), 0.0f);
    for (std::int64_t ni = 0; ni < n; ++ni)
      for (std::int64_t yo = 0; yo < oh; ++yo)
        for (std::int64_t xo = 0; xo < ow; ++xo)
          for (std::int64_t ci = 0; ci < c; ++ci)
            for (std::int64_t ky = 0; ky < kh; ++ky)
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t yi = yo * stride - pad + ky;
                const std::int64_t xi = xo * stride - pad + kx;
                if (yi < 0 || yi >= h || xi < 0 || xi >= w) continue;
                const std::int64_t row = (ni * oh + yo) * ow + xo;
                expect[static_cast<std::size_t>(row * cols + (ci * kh + ky) * kw + kx)] =
                    x[static_cast<std::size_t>(((ni * c + ci) * h + yi) * w + xi)];
              }

    // A stale NaN anywhere the kernel does not write shows up as a mismatch.
    std::vector<float> got(expect.size(), std::nanf(""));
    be::im2col(x.data(), n, c, h, w, kh, kw, stride, pad, got.data());
    for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], expect[i]) << i;

    // Adjoint identity: <im2col(x), y> == <x, col2im(y)>.
    const auto y = random_vec<float>(got.size(), rng);
    std::vector<float> xback(x.size(), 0.0f);
    be::col2im(y.data(), n, c, h, w, kh, kw, stride, pad, xback.data());
    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < got.size(); ++i)
      lhs += static_cast<double>(got[i]) * y[i];
    for (std::size_t i = 0; i < x.size(); ++i)
      rhs += static_cast<double>(x[i]) * xback[i];
    EXPECT_NEAR(lhs, rhs, 1e-3);

    // Thread-count determinism for the scatter side.
    std::vector<float> xback4(x.size(), 0.0f);
    {
      be::ThreadScope four(4);
      be::col2im(y.data(), n, c, h, w, kh, kw, stride, pad, xback4.data());
    }
    for (std::size_t i = 0; i < xback.size(); ++i) ASSERT_EQ(xback[i], xback4[i]);
  }
}

// ---- fused complex gemm ---------------------------------------------------

// Reference planar complex gemm via std::complex.
void ref_cgemm(be::CTrans ta, be::CTrans tb, std::int64_t m, std::int64_t n,
               std::int64_t k, const std::vector<float>& ar,
               const std::vector<float>& ai, std::int64_t lda,
               const std::vector<float>& br, const std::vector<float>& bi,
               std::int64_t ldb, float beta, std::vector<float>& cr,
               std::vector<float>& ci, std::int64_t ldc) {
  auto opa = [&](std::int64_t i, std::int64_t kk) {
    std::complex<float> v;
    if (ta == be::CTrans::N) {
      v = {ar[static_cast<std::size_t>(i * lda + kk)],
           ai[static_cast<std::size_t>(i * lda + kk)]};
    } else {
      v = {ar[static_cast<std::size_t>(kk * lda + i)],
           ai[static_cast<std::size_t>(kk * lda + i)]};
      if (ta == be::CTrans::H) v = std::conj(v);
    }
    return v;
  };
  auto opb = [&](std::int64_t kk, std::int64_t j) {
    std::complex<float> v;
    if (tb == be::CTrans::N) {
      v = {br[static_cast<std::size_t>(kk * ldb + j)],
           bi[static_cast<std::size_t>(kk * ldb + j)]};
    } else {
      v = {br[static_cast<std::size_t>(j * ldb + kk)],
           bi[static_cast<std::size_t>(j * ldb + kk)]};
      if (tb == be::CTrans::H) v = std::conj(v);
    }
    return v;
  };
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::complex<double> acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += std::complex<double>(opa(i, kk)) * std::complex<double>(opb(kk, j));
      }
      auto& re = cr[static_cast<std::size_t>(i * ldc + j)];
      auto& im = ci[static_cast<std::size_t>(i * ldc + j)];
      re = static_cast<float>(acc.real()) + beta * re;
      im = static_cast<float>(acc.imag()) + beta * im;
    }
  }
}

struct CgemmCase {
  be::CTrans ta, tb;
  std::int64_t m, n, k;
  float beta;
};

// Names the case in the test name. Without it gtest prints the raw object
// bytes, tail padding included, so the names changed from build to build.
void PrintTo(const CgemmCase& c, std::ostream* os) {
  const auto op = [](be::CTrans t) {
    return t == be::CTrans::N ? "N" : t == be::CTrans::T ? "T" : "H";
  };
  *os << op(c.ta) << op(c.tb) << "_m" << c.m << "_n" << c.n << "_k" << c.k
      << "_beta" << c.beta;
}

class CgemmVariants : public ::testing::TestWithParam<CgemmCase> {};

TEST_P(CgemmVariants, MatchesComplexReference) {
  const CgemmCase p = GetParam();
  Rng rng(31);
  const std::int64_t lda = p.ta == be::CTrans::N ? p.k : p.m;
  const std::int64_t ldb = p.tb == be::CTrans::N ? p.n : p.k;
  const std::size_t an = static_cast<std::size_t>((p.ta == be::CTrans::N ? p.m : p.k) * lda);
  const std::size_t bn = static_cast<std::size_t>((p.tb == be::CTrans::N ? p.k : p.n) * ldb);
  const auto ar = random_vec<float>(an, rng), ai = random_vec<float>(an, rng);
  const auto br = random_vec<float>(bn, rng), bi = random_vec<float>(bn, rng);
  auto cr0 = random_vec<float>(static_cast<std::size_t>(p.m * p.n), rng);
  auto ci0 = random_vec<float>(static_cast<std::size_t>(p.m * p.n), rng);
  auto er = cr0, ei = ci0;
  ref_cgemm(p.ta, p.tb, p.m, p.n, p.k, ar, ai, lda, br, bi, ldb, p.beta, er, ei, p.n);
  auto cr = cr0, ci = ci0;
  be::cgemm(p.ta, p.tb, p.m, p.n, p.k, ar.data(), ai.data(), lda, br.data(),
            bi.data(), ldb, p.beta, cr.data(), ci.data(), p.n);
  for (std::size_t i = 0; i < cr.size(); ++i) {
    ASSERT_NEAR(cr[i], er[i], 1e-4f) << "re elem " << i;
    ASSERT_NEAR(ci[i], ei[i], 1e-4f) << "im elem " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CgemmVariants,
    ::testing::Values(
        CgemmCase{be::CTrans::N, be::CTrans::N, 4, 6, 5, 0.0f},
        CgemmCase{be::CTrans::N, be::CTrans::T, 4, 6, 5, 0.0f},
        CgemmCase{be::CTrans::N, be::CTrans::H, 4, 6, 5, 1.0f},
        CgemmCase{be::CTrans::T, be::CTrans::N, 7, 3, 9, 0.0f},
        CgemmCase{be::CTrans::H, be::CTrans::N, 7, 3, 9, 1.0f},
        CgemmCase{be::CTrans::H, be::CTrans::H, 8, 8, 8, 0.0f},
        CgemmCase{be::CTrans::N, be::CTrans::N, 32, 32, 32, 0.0f},
        // k beyond one 256-deep panel exercises the k-blocking seam.
        CgemmCase{be::CTrans::N, be::CTrans::H, 5, 7, 300, 0.0f}));

// Acceptance: cgemm results are identical bits at 1/2/8 threads, for a
// shape under the work gate and one that fans out.
TEST(Determinism, CgemmBitExactAcrossThreadCounts) {
  Rng rng(32);
  for (const std::int64_t m : {63, 255}) {
    const std::int64_t n = 33, k = 289;
    const auto ar = random_vec<float>(static_cast<std::size_t>(m * k), rng);
    const auto ai = random_vec<float>(static_cast<std::size_t>(m * k), rng);
    const auto br = random_vec<float>(static_cast<std::size_t>(k * n), rng);
    const auto bi = random_vec<float>(static_cast<std::size_t>(k * n), rng);
    std::vector<float> base_r, base_i;
    for (int threads : {1, 2, 8}) {
      std::vector<float> cr(static_cast<std::size_t>(m * n), 0.0f);
      std::vector<float> ci = cr;
      be::ThreadScope scope(threads);
      const std::uint64_t fanouts = pool_fanouts();
      be::cgemm(be::CTrans::N, be::CTrans::H, m, n, k, ar.data(), ai.data(), k,
                br.data(), bi.data(), k, 0.0f, cr.data(), ci.data(), n);
      if (threads == 1) {
        base_r = cr;
        base_i = ci;
        continue;
      }
      if (m > 63) EXPECT_GT(pool_fanouts(), fanouts) << "threads=" << threads;
      for (std::size_t i = 0; i < cr.size(); ++i) {
        ASSERT_EQ(cr[i], base_r[i]) << "m=" << m << " threads=" << threads << " re " << i;
        ASSERT_EQ(ci[i], base_i[i]) << "m=" << m << " threads=" << threads << " im " << i;
      }
    }
  }
}

TEST(Rcgemm, MatchesDoublePrecisionReference) {
  // The real-by-complex product P @ T that the block transfers rotate by
  // their per-tile phase columns, against a double-precision reference.
  Rng rng(33);
  const std::int64_t k = 12;
  const auto a = random_vec<float>(static_cast<std::size_t>(k * k), rng);
  const auto br = random_vec<float>(static_cast<std::size_t>(k * k), rng);
  const auto bi = random_vec<float>(static_cast<std::size_t>(k * k), rng);
  std::vector<float> er(static_cast<std::size_t>(k * k), 0.0f), ei = er;
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < k; ++j) {
      double accr = 0.0, acci = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        accr += static_cast<double>(a[static_cast<std::size_t>(i * k + kk)]) *
                br[static_cast<std::size_t>(kk * k + j)];
        acci += static_cast<double>(a[static_cast<std::size_t>(i * k + kk)]) *
                bi[static_cast<std::size_t>(kk * k + j)];
      }
      er[static_cast<std::size_t>(i * k + j)] = static_cast<float>(accr);
      ei[static_cast<std::size_t>(i * k + j)] = static_cast<float>(acci);
    }
  }
  std::vector<float> cr(er.size(), 0.0f), ci = cr;
  be::rcgemm(Trans::N, k, k, k, a.data(), k, br.data(), bi.data(), k, 0.0f,
             cr.data(), ci.data(), k);
  for (std::size_t i = 0; i < cr.size(); ++i) {
    ASSERT_NEAR(cr[i], er[i], 1e-4f);
    ASSERT_NEAR(ci[i], ei[i], 1e-4f);
  }
}

// ---- batched gemm ---------------------------------------------------------

TEST(GemmPacked, BitExactVsPlainGemmAllAlphasAndShapes) {
  // The pre-packed serving path must be bit-identical to gemm() — including
  // the alpha != 1 branch (pack_a scratch path) and Trans::T packs — at
  // every (m, n, k) tile-tail position.
  Rng rng(77);
  for (const auto& [m, n, k] : std::vector<std::array<std::int64_t, 3>>{
           {1, 10, 150}, {16, 6, 150}, {64, 6, 25}, {7, 17, 33}, {6, 8, 16}}) {
    for (const Trans tb : {Trans::N, Trans::T}) {
      const std::int64_t ldb = tb == Trans::N ? n : k;
      std::vector<float> a(static_cast<std::size_t>(m * k)),
          b(static_cast<std::size_t>(n * k));
      for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      const be::PackedGemmB pb = be::pack_gemm_b(tb, k, n, b.data(), ldb);
      for (const float alpha : {1.0f, 2.5f, -0.75f}) {
        std::vector<float> ref(static_cast<std::size_t>(m * n)), got(ref.size());
        be::gemm(Trans::N, tb, m, n, k, alpha, a.data(), k, b.data(), ldb, 0.0f,
                 ref.data(), n);
        be::gemm_packed(m, n, k, alpha, a.data(), k, tb, b.data(), ldb, pb, 0.0f,
                        got.data(), n);
        ASSERT_EQ(ref, got) << "m=" << m << " n=" << n << " k=" << k
                            << " alpha=" << alpha
                            << " tb=" << (tb == Trans::N ? "N" : "T");
      }
    }
  }
}

// gemm reads untransposed alpha-1 A rows in place against a narrow op(B),
// and packs A otherwise. Both must give the same bits, so gemm(N, tb) is
// checked against gemm(T, tb) on a materialized A^T (which still packs), at
// every tile-tail position and every dispatch level; n = 65 (5 tiles) packs
// on both sides. Comparing gemm with gemm_packed would compare the
// in-place rows with themselves.
TEST(GemmPacked, DirectRowsMatchPackedRowsAtEveryLevel) {
  Rng rng(79);
  for (const be::SimdLevel level : be::available_simd_levels()) {
    be::SimdScope simd(level);
    for (const std::int64_t m : {1, 5, 6, 7, 13}) {
      for (const std::int64_t n : {4, 8, 10, 16, 17, 32, 65}) {
        for (const std::int64_t k : {1, 25, 256, 257}) {
          const auto a = random_vec<float>(static_cast<std::size_t>(m * k), rng);
          std::vector<float> at(a.size());  // A^T, [k, m]
          for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t kk = 0; kk < k; ++kk) {
              at[static_cast<std::size_t>(kk * m + i)] =
                  a[static_cast<std::size_t>(i * k + kk)];
            }
          }
          const auto b = random_vec<float>(static_cast<std::size_t>(k * n), rng);
          const auto c0 = random_vec<float>(static_cast<std::size_t>(m * n), rng);
          for (const Trans tb : {Trans::N, Trans::T}) {
            const std::int64_t ldb = tb == Trans::N ? n : k;
            for (const float beta : {0.0f, 1.0f}) {
              auto direct = c0, packed = c0;
              be::gemm(Trans::N, tb, m, n, k, 1.0f, a.data(), k, b.data(), ldb,
                       beta, direct.data(), n);
              be::gemm(Trans::T, tb, m, n, k, 1.0f, at.data(), m, b.data(), ldb,
                       beta, packed.data(), n);
              ASSERT_EQ(direct, packed)
                  << be::simd_level_name(level) << " m=" << m << " n=" << n
                  << " k=" << k << " beta=" << beta
                  << " tb=" << (tb == Trans::N ? "N" : "T");
            }
          }
        }
      }
    }
  }
}

TEST(GemmPacked, FallsBackWhenDispatchLevelChanges) {
  // Panels packed at one SIMD level must not be consumed at another: the
  // wrapper falls back to the plain gemm using the raw operand.
  Rng rng(78);
  const std::int64_t m = 9, n = 11, k = 40;
  std::vector<float> a(static_cast<std::size_t>(m * k)),
      b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const be::PackedGemmB pb = be::pack_gemm_b(Trans::N, k, n, b.data(), n);
  be::SimdScope scope(be::SimdLevel::scalar);
  std::vector<float> ref(static_cast<std::size_t>(m * n)), got(ref.size());
  be::gemm(Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
           ref.data(), n);
  be::gemm_packed(m, n, k, 1.0f, a.data(), k, Trans::N, b.data(), n, pb, 0.0f,
                  got.data(), n);
  ASSERT_EQ(ref, got);
}

// ---- gradchecks over the autograd ops now running on the backend ---------

ag::Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  std::vector<float> data(static_cast<std::size_t>(n));
  for (auto& v : data) v = static_cast<float>(rng.uniform(-1, 1));
  return ag::make_tensor(std::move(data), std::move(shape), true);
}

TEST(BackendGradcheck, MatmulNonSquare) {
  Rng rng(21);
  ag::Tensor a = random_tensor({3, 5}, rng);
  ag::Tensor b = random_tensor({5, 4}, rng);
  auto res = ag::gradcheck(
      [](const std::vector<ag::Tensor>& in) {
        return ag::sum(ag::square(ag::matmul(in[0], in[1])));
      },
      {a, b});
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(BackendGradcheck, MatmulThreaded) {
  be::ThreadScope four(4);
  Rng rng(22);
  ag::Tensor a = random_tensor({7, 9}, rng);
  ag::Tensor b = random_tensor({9, 6}, rng);
  auto res = ag::gradcheck(
      [](const std::vector<ag::Tensor>& in) {
        return ag::sum(ag::mul(ag::matmul(in[0], in[1]),
                               ag::matmul(in[0], in[1])));
      },
      {a, b});
  EXPECT_TRUE(res.ok) << res.detail;
}

// A weight gradient long enough to take the split reduction (8 chunks of
// 256 rows); only B is perturbed, which keeps the finite differences cheap.
TEST(BackendGradcheck, MatmulSplitWeightGradient) {
  ASSERT_GT(be::detail::gemm_tn_split_chunks(25, 4, 2048), 1);
  Rng rng(24);
  ag::Tensor a = random_tensor({2048, 25}, rng);
  a.set_requires_grad(false);
  ag::Tensor b = random_tensor({25, 4}, rng);
  auto res = ag::gradcheck(
      [](const std::vector<ag::Tensor>& in) {
        return ag::sum(ag::square(ag::matmul(in[0], in[1])));
      },
      {a, b});
  EXPECT_TRUE(res.ok) << res.detail;
}

// The conv node's patch operand at stride 2 with padding: dX, dW and dbias
// of ag::conv2d against finite differences.
TEST(BackendGradcheck, Im2colStridedPadded) {
  Rng rng(23);
  ag::Tensor x = random_tensor({2, 2, 5, 5}, rng);
  ag::Tensor w = random_tensor({3, 2 * 3 * 3}, rng);
  ag::Tensor bias = random_tensor({1, 3}, rng);
  auto res = ag::gradcheck(
      [](const std::vector<ag::Tensor>& in) {
        return ag::sum(ag::square(ag::conv2d(in[0], in[1], in[2], 2, 1)));
      },
      {x, w, bias});
  EXPECT_TRUE(res.ok) << res.detail;
}

}  // namespace
