// Batched multi-tile mesh evaluation: cgemm_batched and the batched chain
// ops must be bit-exact against the per-tile compositions they replace (the
// test-only reference in mesh_reference.h) — values AND gradients, at any
// thread count — and the materialized eval-weight cache must invalidate
// exactly on parameter/noise version bumps (optimizer step, set_phase_noise,
// begin_step).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "autograd/complex.h"
#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "backend/kernels.h"
#include "backend/parallel.h"
#include "common/rng.h"
#include "common/version.h"
#include "core/supermesh.h"
#include "mesh_reference.h"
#include "nn/onn_layers.h"
#include "optim/optimizer.h"
#include "photonics/builders.h"
#include "pool_fanouts.h"

namespace {

namespace ag = adept::ag;
namespace be = adept::backend;
namespace core = adept::core;
namespace nn = adept::nn;
namespace ph = adept::photonics;
namespace ref = adept::test::ref;
using adept::Rng;
using adept::test::pool_fanouts;
using ag::CxTensor;
using ag::Tensor;

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1, 1));
  return v;
}

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng, bool rg = false) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  return ag::make_tensor(random_vec(static_cast<std::size_t>(n), rng),
                         std::move(shape), rg);
}

// ---- cgemm_batched vs per-item cgemm --------------------------------------

// t = 5 stays under the pool's work gate; t = 512 fans out, and its threaded
// sides must have posted work to pool helpers.
void check_cgemm_batched_variant(be::CTrans ta, be::CTrans tb, float beta,
                                 std::int64_t t) {
  const std::int64_t k = t > 5 ? 17 : 9;  // odd K exercises the pairing tail
  Rng rng(7);
  const std::size_t kk = static_cast<std::size_t>(k * k);
  std::vector<float> ar = random_vec(t * kk, rng), ai = random_vec(t * kk, rng);
  std::vector<float> br = random_vec(t * kk, rng), bi = random_vec(t * kk, rng);
  std::vector<float> seed_c = random_vec(t * kk, rng), seed_ci = random_vec(t * kk, rng);
  std::vector<float> ref_r = seed_c, ref_i = seed_ci;
  for (std::int64_t ti = 0; ti < t; ++ti) {
    be::cgemm(ta, tb, k, k, k, ar.data() + ti * kk, ai.data() + ti * kk, k,
              br.data() + ti * kk, bi.data() + ti * kk, k, beta,
              ref_r.data() + ti * kk, ref_i.data() + ti * kk, k);
  }
  for (int threads : {1, 2, 8}) {
    be::ThreadScope scope(threads);
    std::vector<float> out_r = seed_c, out_i = seed_ci;
    const std::uint64_t fanouts = pool_fanouts();
    be::cgemm_batched(ta, tb, t, k, k, k, ar.data(), ai.data(), kk, k,
                      br.data(), bi.data(), kk, k, beta, out_r.data(),
                      out_i.data(), kk, k);
    if (threads > 1 && t > 5) EXPECT_GT(pool_fanouts(), fanouts) << "threads " << threads;
    for (std::size_t i = 0; i < out_r.size(); ++i) {
      ASSERT_EQ(out_r[i], ref_r[i]) << "re elem " << i << " threads " << threads;
      ASSERT_EQ(out_i[i], ref_i[i]) << "im elem " << i << " threads " << threads;
    }
  }
}

TEST(CgemmBatched, BitExactVsPerItemAllVariants) {
  for (be::CTrans ta : {be::CTrans::N, be::CTrans::T, be::CTrans::H}) {
    for (be::CTrans tb : {be::CTrans::N, be::CTrans::T, be::CTrans::H}) {
      for (const std::int64_t t : {5, 512}) {
        check_cgemm_batched_variant(ta, tb, 0.0f, t);
        check_cgemm_batched_variant(ta, tb, 1.0f, t);
      }
    }
  }
}

TEST(CgemmBatched, SharedOperandsViaZeroStride) {
  // t = 4 stays under the work gate; t = 512 fans out.
  for (const std::int64_t t : {4, 512}) {
    const std::int64_t k = t > 4 ? 16 : 8;
    Rng rng(9);
    const std::size_t kk = static_cast<std::size_t>(k * k);
    std::vector<float> ar = random_vec(t * kk, rng), ai = random_vec(t * kk, rng);
    std::vector<float> br = random_vec(kk, rng), bi = random_vec(kk, rng);
    for (be::CTrans tb : {be::CTrans::N, be::CTrans::T, be::CTrans::H}) {
      std::vector<float> ref_r(t * kk), ref_i(t * kk);
      for (std::int64_t ti = 0; ti < t; ++ti) {
        be::cgemm(be::CTrans::N, tb, k, k, k, ar.data() + ti * kk,
                  ai.data() + ti * kk, k, br.data(), bi.data(), k, 0.0f,
                  ref_r.data() + ti * kk, ref_i.data() + ti * kk, k);
      }
      for (int threads : {1, 2, 8}) {
        be::ThreadScope scope(threads);
        std::vector<float> out_r(t * kk), out_i(t * kk);
        const std::uint64_t fanouts = pool_fanouts();
        be::cgemm_batched(be::CTrans::N, tb, t, k, k, k, ar.data(), ai.data(),
                          kk, k, br.data(), bi.data(), /*stride_b=*/0, k, 0.0f,
                          out_r.data(), out_i.data(), kk, k);
        if (threads > 1 && t > 4) EXPECT_GT(pool_fanouts(), fanouts) << "threads " << threads;
        for (std::size_t i = 0; i < out_r.size(); ++i) {
          ASSERT_EQ(out_r[i], ref_r[i]);
          ASSERT_EQ(out_i[i], ref_i[i]);
        }
      }
      // Shared A (stride_a = 0) against the same per-item loop.
      std::vector<float> ref2_r(t * kk), ref2_i(t * kk);
      for (std::int64_t ti = 0; ti < t; ++ti) {
        be::cgemm(be::CTrans::N, tb, k, k, k, ar.data(), ai.data(), k,
                  br.data(), bi.data(), k, 0.0f, ref2_r.data() + ti * kk,
                  ref2_i.data() + ti * kk, k);
      }
      std::vector<float> out_r(t * kk), out_i(t * kk);
      be::cgemm_batched(be::CTrans::N, tb, t, k, k, k, ar.data(), ai.data(),
                        /*stride_a=*/0, k, br.data(), bi.data(), 0, k, 0.0f,
                        out_r.data(), out_i.data(), kk, k);
      for (std::size_t i = 0; i < out_r.size(); ++i) {
        ASSERT_EQ(out_r[i], ref2_r[i]);
        ASSERT_EQ(out_i[i], ref2_i[i]);
      }
    }
  }
}

// ---- batched tape ops: gradchecks -----------------------------------------

TEST(BatchedOps, BcmatmulGradcheck) {
  Rng rng(11);
  const std::int64_t t = 2, k = 3;
  auto fn = [&](const std::vector<Tensor>& in) {
    CxTensor a{in[0], in[1]}, b{in[2], in[3]};
    CxTensor c = ag::bcmatmul(a, b);
    return ag::add(ag::sum(ag::square(c.re)), ag::sum(ag::square(c.im)));
  };
  auto result = ag::gradcheck(fn, {random_tensor({t, k, k}, rng, true),
                                   random_tensor({t, k, k}, rng, true),
                                   random_tensor({t, k, k}, rng, true),
                                   random_tensor({t, k, k}, rng, true)});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(BatchedOps, BblockTransferGradcheck) {
  Rng rng(12);
  const std::int64_t t = 2, k = 4;
  auto fn = [&](const std::vector<Tensor>& in) {
    CxTensor tc{in[1], in[2]};
    CxTensor out = ag::bblock_transfer(in[0], tc, in[3]);
    return ag::add(ag::sum(ag::square(out.re)), ag::sum(ag::square(out.im)));
  };
  auto result = ag::gradcheck(fn, {random_tensor({k, k}, rng, true),
                                   random_tensor({k, k}, rng, true),
                                   random_tensor({k, k}, rng, true),
                                   random_tensor({t, k}, rng, true)});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(BatchedOps, BcolphaseScaleGradcheck) {
  Rng rng(13);
  const std::int64_t t = 3, k = 4;
  auto fn = [&](const std::vector<Tensor>& in) {
    CxTensor a{in[0], in[1]};
    CxTensor out = ag::bcolphase_scale(a, in[2]);
    return ag::add(ag::sum(ag::square(out.re)), ag::sum(ag::square(out.im)));
  };
  auto result = ag::gradcheck(fn, {random_tensor({k, k}, rng, true),
                                   random_tensor({k, k}, rng, true),
                                   random_tensor({t, k}, rng, true)});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(BatchedOps, BcmixIdentityGradcheck) {
  Rng rng(14);
  const std::int64_t t = 2, k = 3;
  auto fn = [&](const std::vector<Tensor>& in) {
    CxTensor block{in[2], in[3]};
    CxTensor out = ag::bcmix_identity(in[0], in[1], block);
    return ag::add(ag::sum(ag::square(out.re)), ag::sum(ag::square(out.im)));
  };
  auto result = ag::gradcheck(fn, {Tensor::scalar(0.3f, true),
                                   Tensor::scalar(0.7f, true),
                                   random_tensor({t, k, k}, rng, true),
                                   random_tensor({t, k, k}, rng, true)});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(BatchedOps, BscaleColsAndTileColSumGradcheck) {
  Rng rng(15);
  const std::int64_t t = 3, n = 4, m = 2;
  auto fn = [&](const std::vector<Tensor>& in) {
    return ag::sum(ag::square(ag::bscale_cols(in[0], in[1])));
  };
  auto result = ag::gradcheck(fn, {random_tensor({t, n, m}, rng, true),
                                   random_tensor({t, m}, rng, true)});
  EXPECT_TRUE(result.ok) << result.detail;
  auto fn2 = [&](const std::vector<Tensor>& in) {
    return ag::sum(ag::square(ag::tile_col_sum(in[0])));
  };
  auto result2 = ag::gradcheck(fn2, {random_tensor({t, n, m}, rng, true)});
  EXPECT_TRUE(result2.ok) << result2.detail;
}

TEST(BatchedOps, BlockMatrixStackedMatchesTileList) {
  Rng rng(16);
  const std::int64_t p = 2, q = 3, k = 4;
  Tensor stacked = random_tensor({p * q, k, k}, rng, true);
  std::vector<Tensor> tiles;
  for (std::int64_t t = 0; t < p * q; ++t) {
    std::vector<float> d(stacked.data().begin() + t * k * k,
                         stacked.data().begin() + (t + 1) * k * k);
    tiles.push_back(ag::make_tensor(std::move(d), {k, k}, false));
  }
  Tensor a = ag::block_matrix(stacked, p, q);
  Tensor b = ref::block_matrix(tiles, p, q);
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]);
  }
  auto fn = [&](const std::vector<Tensor>& in) {
    return ag::sum(ag::square(ag::block_matrix(in[0], p, q)));
  };
  auto result = ag::gradcheck(fn, {stacked});
  EXPECT_TRUE(result.ok) << result.detail;
}

// ---- batched weight_expr vs the per-tile reference: bit-exactness ---------

// Runs fwd+bwd through `expr()` with a sum-of-squares head and returns the
// gradient snapshot of every parameter. `reset` rebuilds any shared step
// expressions before the pass: backward passes accumulate into intermediate
// node grads, so tapes reused across two backward calls (something normal
// training never does — one backward per begin_step) must be rebuilt.
std::vector<std::vector<float>> grads_of(const std::function<Tensor()>& expr,
                                         std::vector<Tensor> params,
                                         const std::function<void()>& reset) {
  reset();
  for (auto& p : params) p.zero_grad();
  Tensor out = expr();
  ag::sum(ag::square(out)).backward();
  std::vector<std::vector<float>> grads;
  for (auto& p : params) grads.push_back(p.grad());
  return grads;
}

// `fans_out`: the tile grid is large enough for the batched kernels to pass
// the pool's work gate, so the 2- and 8-thread sides must post work to pool
// helpers (small grids run serially at any budget).
void expect_weight_paths_bit_exact(
    nn::PtcWeight& w, std::vector<Tensor> params,
    const std::function<void()>& reset = [] {}, bool fans_out = false) {
  for (int threads : {1, 2, 8}) {
    be::ThreadScope scope(threads);
    reset();
    const std::uint64_t fanouts = pool_fanouts();
    Tensor batched = w.weight_expr();
    if (fans_out && threads > 1) {
      EXPECT_GT(pool_fanouts(), fanouts) << "threads " << threads;
    }
    Tensor per_tile = ref::weight_expr_per_tile(w);
    ASSERT_EQ(batched.shape(), per_tile.shape());
    for (std::size_t i = 0; i < batched.data().size(); ++i) {
      ASSERT_EQ(batched.data()[i], per_tile.data()[i])
          << "value elem " << i << " threads " << threads;
    }
    const auto gb = grads_of([&] { return w.weight_expr(); }, params, reset);
    const auto gp = grads_of([&] { return ref::weight_expr_per_tile(w); }, params, reset);
    for (std::size_t pi = 0; pi < params.size(); ++pi) {
      ASSERT_EQ(gb[pi].size(), gp[pi].size());
      for (std::size_t i = 0; i < gb[pi].size(); ++i) {
        ASSERT_EQ(gb[pi][i], gp[pi][i])
            << "param " << pi << " grad elem " << i << " threads " << threads;
      }
    }
  }
}

TEST(BatchedWeight, FixedTopologyBitExactMultiTile) {
  Rng rng(21);
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(8));
  // 20 x 14 with K=8 -> 3x2 tile grid with slicing.
  nn::PtcWeight w(20, 14, nn::PtcBinding::fixed(topo), rng);
  EXPECT_EQ(w.tile_rows(), 3);
  EXPECT_EQ(w.tile_cols(), 2);
  expect_weight_paths_bit_exact(w, w.parameters());
}

TEST(BatchedWeight, FixedTopologyBitExactLargeGrid) {
  Rng rng(24);
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(8));
  // 256 x 256 with K=8 -> 32x32 tile grid: one batched product spans 1024
  // tiles.
  nn::PtcWeight w(256, 256, nn::PtcBinding::fixed(topo), rng);
  EXPECT_EQ(w.tile_rows(), 32);
  expect_weight_paths_bit_exact(w, w.parameters(), [] {}, /*fans_out=*/true);
}

TEST(BatchedWeight, SuperMeshBitExactMultiTile) {
  Rng rng(22);
  core::SuperMeshConfig config;
  config.k = 4;
  config.super_blocks_per_unitary = 3;
  config.always_on_per_unitary = 1;
  core::SuperMesh mesh(config, rng);
  nn::PtcWeight w(8, 8, nn::PtcBinding::searched(&mesh), rng);
  // Both the layer parameters and the mesh's search parameters (theta
  // logits, coupler latents, relaxed permutations) must agree to the bit —
  // the mesh params see reverse-tile-order accumulation in both paths.
  std::vector<Tensor> params = w.parameters();
  for (auto& t : mesh.arch_params()) params.push_back(t);
  for (auto& t : mesh.topology_weights()) params.push_back(t);
  // Rebuild the step expressions (same Gumbel draws) before every pass so
  // each backward sees a fresh tape.
  const Rng step_rng = rng;
  expect_weight_paths_bit_exact(w, params, [&] {
    Rng r = step_rng;
    mesh.begin_step(1.0, r, /*stochastic=*/true);
  });
}

TEST(BatchedWeight, SuperMeshBitExactAfterLegalization) {
  Rng rng(23);
  core::SuperMeshConfig config;
  config.k = 4;
  config.super_blocks_per_unitary = 2;
  config.always_on_per_unitary = 2;  // deterministic chain
  core::SuperMesh mesh(config, rng);
  nn::PtcWeight w(8, 4, nn::PtcBinding::searched(&mesh), rng);
  mesh.legalize_permutations(rng);
  std::vector<Tensor> params = w.parameters();
  for (auto& t : mesh.topology_weights()) params.push_back(t);
  const Rng step_rng = rng;
  expect_weight_paths_bit_exact(w, params, [&] {
    Rng r = step_rng;
    mesh.begin_step(0.5, r, /*stochastic=*/false);
  });
}

// ---- eval-time weight cache ----------------------------------------------

TEST(WeightCache, ReusedUnderNoGradUntilOptimizerStep) {
  Rng rng(31);
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(8));
  nn::ONNLinear fc(8, 8, nn::PtcBinding::fixed(topo), rng, /*bias=*/false);
  auto params = fc.parameters();
  adept::optim::Adam opt(params, 0.1);
  {
    ag::NoGradGuard guard;
    Tensor w1 = fc.weight().weight_expr();
    Tensor w2 = fc.weight().weight_expr();
    EXPECT_EQ(w1.impl(), w2.impl());  // same materialized tensor reused
    // An optimizer step bumps the version: the cache must rebuild.
    for (auto& p : params) {
      auto& g = p.grad();
      for (auto& v : g) v = 0.25f;
    }
    opt.step();
    Tensor w3 = fc.weight().weight_expr();
    EXPECT_NE(w1.impl(), w3.impl());
    bool changed = false;
    for (std::size_t i = 0; i < w1.data().size(); ++i) {
      changed = changed || w1.data()[i] != w3.data()[i];
    }
    EXPECT_TRUE(changed);
  }
  // With gradients tracked the expression must be rebuilt every time (it
  // has to be part of the fresh tape).
  Tensor w4 = fc.weight().weight_expr();
  Tensor w5 = fc.weight().weight_expr();
  EXPECT_NE(w4.impl(), w5.impl());
}

TEST(WeightCache, InvalidatedBySetPhaseNoise) {
  Rng rng(32);
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(8));
  nn::ONNLinear fc(8, 8, nn::PtcBinding::fixed(topo), rng, false);
  ag::NoGradGuard guard;
  Tensor w1 = fc.weight().weight_expr();
  fc.set_phase_noise(0.05, 99);
  // Noise active: never cached (fresh drift per forward).
  Tensor n1 = fc.weight().weight_expr();
  Tensor n2 = fc.weight().weight_expr();
  EXPECT_NE(n1.impl(), n2.impl());
  bool differs = false;
  for (std::size_t i = 0; i < n1.data().size(); ++i) {
    differs = differs || n1.data()[i] != n2.data()[i];
  }
  EXPECT_TRUE(differs);
  // Back to nominal: cache again, and the nominal weight is recovered.
  fc.set_phase_noise(0.0, 0);
  Tensor w2 = fc.weight().weight_expr();
  EXPECT_EQ(w2.impl(), fc.weight().weight_expr().impl());
  for (std::size_t i = 0; i < w1.data().size(); ++i) {
    ASSERT_EQ(w1.data()[i], w2.data()[i]);
  }
}

TEST(WeightCache, InvalidatedByBeginStep) {
  Rng rng(33);
  core::SuperMeshConfig config;
  config.k = 4;
  config.super_blocks_per_unitary = 2;
  config.always_on_per_unitary = 1;
  core::SuperMesh mesh(config, rng);
  nn::ONNLinear fc(4, 4, nn::PtcBinding::searched(&mesh), rng, false);
  mesh.begin_step(1.0, rng, /*stochastic=*/true);
  ag::NoGradGuard guard;
  Tensor w1 = fc.weight().weight_expr();
  EXPECT_EQ(w1.impl(), fc.weight().weight_expr().impl());
  mesh.begin_step(1.0, rng, /*stochastic=*/true);  // fresh Gumbel sample
  Tensor w2 = fc.weight().weight_expr();
  EXPECT_NE(w1.impl(), w2.impl());
}

// ---- state-leak regressions (the two bugfixes) ----------------------------

}  // namespace
