// google-benchmark microbenchmarks of the computational kernels underneath
// the ADEPT stack: complex matmul, mesh transfer simulation, crossing
// counting, SVD/Procrustes, SPL, permutation reparametrization, and one full
// autograd training step of the matrix-fit proxy.
//
// `bench_kernels --json [path]` instead emits BENCH_kernels.json comparing
// the pre-port naive loops against the src/backend kernels (GFLOP/s and
// speedup per shape); see bench/README.md for the schema.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "autograd/complex.h"
#include "autograd/ops.h"
#include "backend/dispatch.h"
#include "backend/kernels.h"
#include "backend/parallel.h"
#include "bench_common.h"
#include "common/rng.h"
#include "core/reparam.h"
#include "core/spl.h"
#include "core/supermesh.h"
#include "optim/optimizer.h"
#include "photonics/builders.h"
#include "photonics/linalg.h"

namespace ag = adept::ag;
namespace be = adept::backend;
namespace core = adept::core;
namespace ph = adept::photonics;

namespace {

ag::Tensor random_tensor(std::vector<std::int64_t> shape, adept::Rng& rng,
                         bool rg = false) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  std::vector<float> data(static_cast<std::size_t>(n));
  for (auto& v : data) v = static_cast<float>(rng.uniform(-1, 1));
  return ag::make_tensor(std::move(data), std::move(shape), rg);
}

// ---- pre-port baselines (the seed's hand loops, kept for before/after) ----

// The seed's ikj loop with the zero-skip shortcut (src/autograd/ops.cpp
// before the backend port).
void naive_matmul(const float* a, const float* b, float* c, std::int64_t n,
                  std::int64_t k, std::int64_t m) {
  std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(n * m));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = a[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = &b[kk * m];
      float* crow = &c[i * m];
      for (std::int64_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

// The seed's matmul backward for dA = dO @ B^T, which walked B column-wise
// instead of using a transpose-variant gemm.
void naive_matmul_bt(const float* g, const float* b, float* c, std::int64_t n,
                     std::int64_t k, std::int64_t m) {
  std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(n * k));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < m; ++j) {
      const float gv = g[i * m + j];
      if (gv == 0.0f) continue;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        c[i * k + kk] += gv * b[kk * m + j];
      }
    }
  }
}

void naive_sigmoid(const float* a, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = 1.0f / (1.0f + std::exp(-a[i]));
}

void BM_RealMatmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  adept::Rng rng(1);
  ag::Tensor a = random_tensor({n, n}, rng);
  ag::Tensor b = random_tensor({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::matmul(a, b).data().data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_RealMatmul)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_BackendGemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  adept::Rng rng(1);
  ag::Tensor a = random_tensor({n, n}, rng);
  ag::Tensor b = random_tensor({n, n}, rng);
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    be::gemm(be::Trans::N, be::Trans::N, n, n, n, 1.0f, a.data().data(), n,
             b.data().data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_BackendGemm)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_ComplexMatmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  adept::Rng rng(2);
  ag::CxTensor a = {random_tensor({1, n, n}, rng), random_tensor({1, n, n}, rng)};
  ag::CxTensor b = {random_tensor({n, n}, rng), random_tensor({n, n}, rng)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::bcmatmul(a, b).re.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 4 * n * n * n);
}
BENCHMARK(BM_ComplexMatmul)->Arg(8)->Arg(16)->Arg(32);

void BM_MeshTransfer(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto topo = ph::butterfly(k);
  adept::Rng rng(3);
  ph::MeshPhases phases;
  for (std::size_t b = 0; b < topo.u_blocks.size(); ++b) {
    std::vector<double> phi(static_cast<std::size_t>(k));
    for (auto& p : phi) p = rng.uniform(-3.14, 3.14);
    phases.per_block.push_back(phi);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ph::mesh_transfer(topo.u_blocks, k, phases).data().data());
  }
}
BENCHMARK(BM_MeshTransfer)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_ClementsTransfer(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto topo = ph::clements_mzi(k);
  adept::Rng rng(4);
  ph::MeshPhases phases;
  for (std::size_t b = 0; b < topo.u_blocks.size(); ++b) {
    std::vector<double> phi(static_cast<std::size_t>(k));
    for (auto& p : phi) p = rng.uniform(-3.14, 3.14);
    phases.per_block.push_back(phi);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ph::mesh_transfer(topo.u_blocks, k, phases).data().data());
  }
}
BENCHMARK(BM_ClementsTransfer)->Arg(8)->Arg(16)->Arg(32);

void BM_CrossingCount(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  adept::Rng rng(5);
  const auto p = ph::Permutation::random(k, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ph::crossing_count(p));
  }
}
BENCHMARK(BM_CrossingCount)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_JacobiSvd(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  adept::Rng rng(6);
  ph::RMat m(n, n);
  for (auto& v : m.data()) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ph::jacobi_svd(m).s.data());
  }
}
BENCHMARK(BM_JacobiSvd)->Arg(8)->Arg(16)->Arg(32);

void BM_Spl(benchmark::State& state) {
  const std::int64_t k = state.range(0);
  adept::Rng rng(7);
  ph::RMat m(k, k);
  for (auto& v : m.data()) v = rng.uniform(0.0, 1.0);
  for (auto _ : state) {
    adept::Rng inner(11);
    benchmark::DoNotOptimize(
        core::stochastic_permutation_legalization(m, inner).map().data());
  }
}
BENCHMARK(BM_Spl)->Arg(8)->Arg(16)->Arg(32);

void BM_PermReparam(benchmark::State& state) {
  const std::int64_t k = state.range(0);
  ag::Tensor p = core::smoothed_identity_init(k, true);
  for (auto _ : state) {
    ag::Tensor out = core::reparametrize_permutation(p, 0.05f);
    ag::Tensor loss = ag::sum(ag::square(out));
    loss.backward();
    p.zero_grad();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_PermReparam)->Arg(8)->Arg(16)->Arg(32);

void BM_SuperMeshTrainStep(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  adept::Rng rng(8);
  core::SuperMeshConfig config;
  config.k = k;
  config.super_blocks_per_unitary = 4;
  config.always_on_per_unitary = 1;
  core::SuperMesh mesh(config, rng);
  std::vector<ag::Tensor> phases;  // one tile: a [1,K] stack per block
  for (int b = 0; b < 4; ++b) phases.push_back(random_tensor({1, k}, rng, true));
  auto params = mesh.topology_weights();
  for (auto& p : phases) params.push_back(p);
  adept::optim::Adam opt(params, 1e-3);
  for (auto _ : state) {
    mesh.begin_step(1.0, rng, true);
    ag::CxTensor u = mesh.tile_unitary_batched(core::Side::u, phases);
    ag::Tensor loss = ag::add(ag::sum(ag::square(u.re)), ag::sum(ag::square(u.im)));
    opt.zero_grad();
    loss.backward();
    opt.step();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_SuperMeshTrainStep)->Arg(8)->Arg(16);

// ---- --json mode: before/after GFLOP/s for the perf trajectory ------------

// Each record times the backend twice: pinned to one thread (kernel quality,
// comparable across runners with different core counts) and at the
// configured thread count (what production sees). Baselines are the seed's
// serial loops, so `speedup_serial` isolates the kernel win from threading.
struct BackendTiming {
  double serial_s;
  double threaded_s;
};

template <typename Fn>
BackendTiming time_backend(Fn&& fn) {
  BackendTiming t{};
  {
    be::ThreadScope one(1);
    t.serial_s = adept::bench::time_best(fn);
  }
  t.threaded_s = adept::bench::time_best(fn);
  return t;
}

adept::bench::JsonRecord make_record(const std::string& name, double size,
                                     double work, double t_naive,
                                     const BackendTiming& t) {
  return {name,
          {{"size", size},
           {"baseline_gflops", work / t_naive * 1e-9},
           {"backend_serial_gflops", work / t.serial_s * 1e-9},
           {"backend_gflops", work / t.threaded_s * 1e-9},
           {"speedup_serial", t_naive / t.serial_s},
           {"speedup", t_naive / t.threaded_s}}};
}

adept::bench::JsonRecord gemm_record(std::int64_t n) {
  adept::Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  const double t_naive = adept::bench::time_best(
      [&] { naive_matmul(a.data(), b.data(), c.data(), n, n, n); });
  const auto t = time_backend([&] {
    be::gemm(be::Trans::N, be::Trans::N, n, n, n, 1.0f, a.data(), n, b.data(),
             n, 0.0f, c.data(), n);
  });
  return make_record("gemm_f32", static_cast<double>(n), flops, t_naive, t);
}

adept::bench::JsonRecord gemm_bt_record(std::int64_t n) {
  adept::Rng rng(2);
  std::vector<float> g(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& v : g) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  const double t_naive = adept::bench::time_best(
      [&] { naive_matmul_bt(g.data(), b.data(), c.data(), n, n, n); });
  const auto t = time_backend([&] {
    be::gemm(be::Trans::N, be::Trans::T, n, n, n, 1.0f, g.data(), n, b.data(),
             n, 0.0f, c.data(), n);
  });
  return make_record("gemm_f32_bt", static_cast<double>(n), flops, t_naive, t);
}

// A conv weight gradient of the proxy CNN, colsᵀ · dO: m = C*kh*kw rows,
// n = out channels, k = batch rows times output pixels. The baseline is
// gemm(T, N), whose rows cannot fan out at these shapes; the backend is
// gemm_tn_split. Both are timed pinned to one thread and at the configured
// budget, so `speedup_serial` is what the split costs where it cannot fan
// out and `speedup` what it gains where it can.
adept::bench::JsonRecord gemm_tn_split_record(std::int64_t m, std::int64_t n,
                                              std::int64_t k) {
  adept::Rng rng(6);
  std::vector<float> a(static_cast<std::size_t>(k * m));
  std::vector<float> g(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : g) v = static_cast<float>(rng.uniform(-1, 1));
  const double flops = 2.0 * static_cast<double>(m) * n * k;
  const auto t_gemm = time_backend([&] {
    be::gemm(be::Trans::T, be::Trans::N, m, n, k, 1.0f, a.data(), m, g.data(),
             n, 0.0f, c.data(), n);
  });
  const auto t_split = time_backend([&] {
    be::gemm_tn_split(m, n, k, a.data(), m, g.data(), n, 0.0f, c.data(), n);
  });
  return {"gemm_tn_split",
          {{"size", static_cast<double>(k)},
           {"m", static_cast<double>(m)},
           {"n", static_cast<double>(n)},
           {"baseline_gflops", flops / t_gemm.serial_s * 1e-9},
           {"baseline_threaded_gflops", flops / t_gemm.threaded_s * 1e-9},
           {"backend_serial_gflops", flops / t_split.serial_s * 1e-9},
           {"backend_gflops", flops / t_split.threaded_s * 1e-9},
           {"speedup_serial", t_gemm.serial_s / t_split.serial_s},
           {"speedup", t_gemm.threaded_s / t_split.threaded_s}}};
}

// The implicit-GEMM conv against the materialized im2col + gemm sequence it
// replaced, on the same operands. `pass` names what is timed:
//   serve   the plan's fp32 conv step: weights packed at freeze, im2col +
//           gemm_packed + the NCHW store vs conv2d_forward;
//   fwd     the tape's forward: im2col + gemm(N, N) against the transposed
//           weight + the NCHW store vs conv2d_forward;
//   dw      the weight gradient: im2col + gemm_tn_split + the transposed add
//           vs conv2d_backward with only gw (dY given as gemm rows on the
//           baseline side, as NCHW on the backend side);
//   dx      the input gradient: gemm(N, T) into columns + col2im vs
//           conv2d_backward with only gx.
// Both sides are timed pinned to one thread and at the configured budget;
// `size` is the batch.
adept::bench::JsonRecord conv_record(const char* pass, std::int64_t n,
                                     std::int64_t c, std::int64_t hw,
                                     std::int64_t k, std::int64_t out_c) {
  be::ConvShape s;
  s.n = n;
  s.c = c;
  s.h = s.w = hw;
  s.k = k;
  s.out_c = out_c;
  const std::int64_t rows = s.rows(), fan_in = s.fan_in();
  const std::int64_t ohow = s.oh() * s.ow();
  adept::Rng rng(9);
  auto fill = [&rng](std::int64_t count) {
    std::vector<float> v(static_cast<std::size_t>(count));
    for (auto& x : v) x = static_cast<float>(rng.uniform(-1, 1));
    return v;
  };
  const auto x = fill(n * c * hw * hw);
  const auto w = fill(out_c * fan_in);  // [out_c, fan_in]
  const auto gy = fill(rows * out_c);   // NCHW, also read as dY rows
  std::vector<float> wt(static_cast<std::size_t>(fan_in * out_c));
  for (std::int64_t oc = 0; oc < out_c; ++oc) {
    for (std::int64_t i = 0; i < fan_in; ++i) {
      wt[static_cast<std::size_t>(i * out_c + oc)] =
          w[static_cast<std::size_t>(oc * fan_in + i)];
    }
  }
  const be::PackedGemmB pw =
      be::pack_gemm_b(be::Trans::N, fan_in, out_c, wt.data(), out_c);
  std::vector<float> cols(static_cast<std::size_t>(rows * fan_in));
  std::vector<float> yrows(static_cast<std::size_t>(rows * out_c));
  std::vector<float> y(yrows.size()), gx(x.size()), gw(w.size()),
      gwt(wt.size());
  auto store_nchw = [&] {
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int64_t ni = r / ohow, p = r % ohow;
      for (std::int64_t oc = 0; oc < out_c; ++oc) {
        y[static_cast<std::size_t>((ni * out_c + oc) * ohow + p)] =
            yrows[static_cast<std::size_t>(r * out_c + oc)];
      }
    }
  };
  const std::string name = std::string("conv2d_") + pass;
  BackendTiming t_mat{}, t_imp{};
  double flops = 2.0 * static_cast<double>(rows) * fan_in * out_c;
  if (name == "conv2d_serve" || name == "conv2d_fwd") {
    const bool serve = name == "conv2d_serve";
    t_mat = time_backend([&] {
      be::im2col(x.data(), n, c, hw, hw, k, k, 1, 0, cols.data());
      if (serve) {
        be::gemm_packed(rows, out_c, fan_in, 1.0f, cols.data(), fan_in,
                        be::Trans::N, wt.data(), out_c, pw, 0.0f, yrows.data(),
                        out_c);
      } else {
        be::gemm(be::Trans::N, be::Trans::N, rows, out_c, fan_in, 1.0f,
                 cols.data(), fan_in, wt.data(), out_c, 0.0f, yrows.data(),
                 out_c);
      }
      store_nchw();
    });
    t_imp = time_backend([&] {
      if (serve) {
        be::conv2d_forward(s, x.data(), be::Trans::N, wt.data(), out_c, &pw,
                           {}, y.data());
      } else {
        be::conv2d_forward(s, x.data(), be::Trans::T, w.data(), fan_in,
                           nullptr, {}, y.data());
      }
    });
  } else if (name == "conv2d_dw") {
    t_mat = time_backend([&] {
      be::im2col(x.data(), n, c, hw, hw, k, k, 1, 0, cols.data());
      be::gemm_tn_split(fan_in, out_c, rows, cols.data(), fan_in, gy.data(),
                        out_c, 0.0f, gwt.data(), out_c);
      for (std::int64_t oc = 0; oc < out_c; ++oc) {
        for (std::int64_t i = 0; i < fan_in; ++i) {
          gw[static_cast<std::size_t>(oc * fan_in + i)] +=
              gwt[static_cast<std::size_t>(i * out_c + oc)];
        }
      }
    });
    t_imp = time_backend([&] {
      be::conv2d_backward(s, x.data(), w.data(), gy.data(), gw.data(), nullptr,
                          nullptr);
    });
  } else {
    t_mat = time_backend([&] {
      be::gemm(be::Trans::N, be::Trans::T, rows, fan_in, out_c, 1.0f,
               gy.data(), out_c, wt.data(), out_c, 0.0f, cols.data(), fan_in);
      be::col2im(cols.data(), n, c, hw, hw, k, k, 1, 0, gx.data());
    });
    t_imp = time_backend([&] {
      be::conv2d_backward(s, x.data(), w.data(), gy.data(), nullptr, nullptr,
                          gx.data());
    });
  }
  return {name,
          {{"size", static_cast<double>(n)},
           {"c", static_cast<double>(c)},
           {"hw", static_cast<double>(hw)},
           {"k", static_cast<double>(k)},
           {"out_c", static_cast<double>(out_c)},
           {"baseline_gflops", flops / t_mat.serial_s * 1e-9},
           {"baseline_threaded_gflops", flops / t_mat.threaded_s * 1e-9},
           {"backend_serial_gflops", flops / t_imp.serial_s * 1e-9},
           {"backend_gflops", flops / t_imp.threaded_s * 1e-9},
           {"speedup_serial", t_mat.serial_s / t_imp.serial_s},
           {"speedup", t_mat.threaded_s / t_imp.threaded_s}}};
}

// The seed's cmatmul lowering: four naive real matmuls + two elementwise
// combines into freshly allocated planes.
void naive_cmatmul(const float* ar, const float* ai, const float* br,
                   const float* bi, float* cr, float* ci, std::int64_t n,
                   std::vector<float>& t1, std::vector<float>& t2) {
  naive_matmul(ar, br, cr, n, n, n);
  naive_matmul(ai, bi, t1.data(), n, n, n);
  naive_matmul(ar, bi, ci, n, n, n);
  naive_matmul(ai, br, t2.data(), n, n, n);
  for (std::int64_t i = 0; i < n * n; ++i) {
    cr[i] -= t1[static_cast<std::size_t>(i)];
    ci[i] += t2[static_cast<std::size_t>(i)];
  }
}

adept::bench::JsonRecord cgemm_record(std::int64_t n) {
  adept::Rng rng(5);
  const std::size_t nn = static_cast<std::size_t>(n * n);
  std::vector<float> ar(nn), ai(nn), br(nn), bi(nn), cr(nn), ci(nn), t1(nn), t2(nn);
  for (auto* v : {&ar, &ai, &br, &bi}) {
    for (auto& x : *v) x = static_cast<float>(rng.uniform(-1, 1));
  }
  const double flops = 8.0 * static_cast<double>(n) * n * n;
  const double t_naive = adept::bench::time_best([&] {
    naive_cmatmul(ar.data(), ai.data(), br.data(), bi.data(), cr.data(),
                  ci.data(), n, t1, t2);
  });
  const auto t = time_backend([&] {
    be::cgemm(be::CTrans::N, be::CTrans::N, n, n, n, ar.data(), ai.data(), n,
              br.data(), bi.data(), n, 0.0f, cr.data(), ci.data(), n);
  });
  return make_record("cgemm_f32", static_cast<double>(n), flops, t_naive, t);
}

adept::bench::JsonRecord cgemm_batched_record() {
  // Mesh-shaped stack: 16 tiles of [16,16] advancing one block of a shared
  // chain. Baseline is one cgemm dispatch per tile; backend is a single
  // cgemm_batched over the stack.
  const std::int64_t tiles = 16, k = 16;
  adept::Rng rng(9);
  const std::size_t kk = static_cast<std::size_t>(k * k);
  const std::size_t tkk = static_cast<std::size_t>(tiles) * kk;
  std::vector<float> ar(tkk), ai(tkk), br(tkk), bi(tkk), cr(tkk), ci(tkk);
  for (auto* v : {&ar, &ai, &br, &bi}) {
    for (auto& x : *v) x = static_cast<float>(rng.uniform(-1, 1));
  }
  const double flops = 8.0 * static_cast<double>(tiles) * k * k * k;
  const double t_naive = adept::bench::time_best([&] {
    for (std::int64_t t = 0; t < tiles; ++t) {
      be::cgemm(be::CTrans::N, be::CTrans::N, k, k, k, ar.data() + t * kk,
                ai.data() + t * kk, k, br.data() + t * kk, bi.data() + t * kk,
                k, 0.0f, cr.data() + t * kk, ci.data() + t * kk, k);
    }
  });
  const auto t = time_backend([&] {
    be::cgemm_batched(be::CTrans::N, be::CTrans::N, tiles, k, k, k, ar.data(),
                      ai.data(), kk, k, br.data(), bi.data(), kk, k, 0.0f,
                      cr.data(), ci.data(), kk, k);
  });
  return make_record("cgemm_f32_batched", static_cast<double>(tiles), flops,
                     t_naive, t);
}

adept::bench::JsonRecord map_record(std::size_t n) {
  adept::Rng rng(3);
  std::vector<float> a(n), out(n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-4, 4));
  const double t_naive =
      adept::bench::time_best([&] { naive_sigmoid(a.data(), out.data(), n); });
  const auto t = time_backend([&] {
    be::map(n, a.data(), out.data(),
            [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
  });
  return make_record("map_sigmoid", static_cast<double>(n),
                     static_cast<double>(n), t_naive, t);
}

adept::bench::JsonRecord im2col_record() {
  // Dims come through env_int so the baseline loop sees runtime values, the
  // same conditions the autograd op ran under before the port (a literal-dim
  // baseline would let the compiler fully unroll the tap loops and compare a
  // specialized kernel against a general one).
  const std::int64_t n = adept::env_int("ADEPT_BENCH_IM2COL_N", 8);
  const std::int64_t c = adept::env_int("ADEPT_BENCH_IM2COL_C", 8);
  const std::int64_t h = adept::env_int("ADEPT_BENCH_IM2COL_HW", 32);
  const std::int64_t kh = adept::env_int("ADEPT_BENCH_IM2COL_K", 3);
  const std::int64_t w = h, kw = kh, stride = 1, pad = 1;
  adept::Rng rng(4);
  std::vector<float> x(static_cast<std::size_t>(n * c * h * w));
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - kw) / stride + 1;
  const std::int64_t cols = c * kh * kw;
  std::vector<float> out(static_cast<std::size_t>(n * oh * ow * cols));
  // Seed-style serial gather as the baseline.
  const double t_naive = adept::bench::time_best([&] {
    std::fill(out.begin(), out.end(), 0.0f);
    for (std::int64_t ni = 0; ni < n; ++ni)
      for (std::int64_t yo = 0; yo < oh; ++yo)
        for (std::int64_t xo = 0; xo < ow; ++xo) {
          const std::int64_t row = (ni * oh + yo) * ow + xo;
          for (std::int64_t ci = 0; ci < c; ++ci)
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              const std::int64_t yi = yo * stride - pad + ky;
              if (yi < 0 || yi >= h) continue;
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t xi = xo * stride - pad + kx;
                if (xi < 0 || xi >= w) continue;
                out[static_cast<std::size_t>(row * cols + (ci * kh + ky) * kw + kx)] =
                    x[static_cast<std::size_t>(((ni * c + ci) * h + yi) * w + xi)];
              }
            }
        }
  });
  const auto t = time_backend(
      [&] { be::im2col(x.data(), n, c, h, w, kh, kw, stride, pad, out.data()); });
  const double elems = static_cast<double>(n * oh * ow * cols);
  return make_record("im2col", static_cast<double>(h), elems, t_naive, t);
}

// ---- per-dispatch-level records --------------------------------------------
//
// One record per available SIMD level per kernel, all pinned to one thread.
// The baseline is the *scalar dispatch level* (the pre-SIMD blocked kernel),
// so `speedup_serial` of a `_avx2`/`_avx512` record is exactly the
// microkernel-vs-blocked-kernel win the acceptance criterion tracks.
template <typename Fn>
double time_serial_at(be::SimdLevel level, Fn&& fn) {
  be::SimdScope simd(level);
  be::ThreadScope one(1);
  return adept::bench::time_best(fn);
}

template <typename Fn>
void add_level_records(adept::bench::JsonReport& report, const char* base,
                       double size, double work, Fn&& fn) {
  const double t_scalar = time_serial_at(be::SimdLevel::scalar, fn);
  for (be::SimdLevel level : be::available_simd_levels()) {
    // The scalar record reuses the baseline timing: definitional 1.0x
    // rather than a second measurement's noise.
    const double t = level == be::SimdLevel::scalar
                         ? t_scalar
                         : time_serial_at(level, fn);
    report.add({std::string(base) + "_" + be::simd_level_name(level),
                {{"size", size},
                 {"baseline_gflops", work / t_scalar * 1e-9},
                 {"backend_serial_gflops", work / t * 1e-9},
                 {"speedup_serial", t_scalar / t}}});
  }
}

void add_simd_level_records(adept::bench::JsonReport& report) {
  adept::Rng rng(12);
  {
    const std::int64_t n = 256;
    const std::size_t nn = static_cast<std::size_t>(n * n);
    auto a = std::make_shared<std::vector<float>>(nn);
    auto b = std::make_shared<std::vector<float>>(nn);
    auto c = std::make_shared<std::vector<float>>(nn);
    for (auto* v : {a.get(), b.get()}) {
      for (auto& x : *v) x = static_cast<float>(rng.uniform(-1, 1));
    }
    add_level_records(report, "gemm_f32", static_cast<double>(n),
                      2.0 * static_cast<double>(n) * n * n, [=] {
                        be::gemm(be::Trans::N, be::Trans::N, n, n, n, 1.0f,
                                 a->data(), n, b->data(), n, 0.0f, c->data(), n);
                      });
  }
  {
    const std::int64_t n = 64;
    const std::size_t nn = static_cast<std::size_t>(n * n);
    auto ar = std::make_shared<std::vector<float>>(nn);
    auto ai = std::make_shared<std::vector<float>>(nn);
    auto br = std::make_shared<std::vector<float>>(nn);
    auto bi = std::make_shared<std::vector<float>>(nn);
    auto cr = std::make_shared<std::vector<float>>(nn);
    auto ci = std::make_shared<std::vector<float>>(nn);
    for (auto* v : {ar.get(), ai.get(), br.get(), bi.get()}) {
      for (auto& x : *v) x = static_cast<float>(rng.uniform(-1, 1));
    }
    add_level_records(report, "cgemm_f32", static_cast<double>(n),
                      8.0 * static_cast<double>(n) * n * n, [=] {
                        be::cgemm(be::CTrans::N, be::CTrans::N, n, n, n,
                                  ar->data(), ai->data(), n, br->data(),
                                  bi->data(), n, 0.0f, cr->data(), ci->data(),
                                  n);
                      });
    // Same complex operand through the real-complex product (dense A).
    auto p = std::make_shared<std::vector<float>>(nn);
    for (auto& x : *p) x = static_cast<float>(rng.uniform(-1, 1));
    add_level_records(report, "rcgemm_f32", static_cast<double>(n),
                      4.0 * static_cast<double>(n) * n * n, [=] {
                        be::rcgemm(be::Trans::N, n, n, n, p->data(), n,
                                   br->data(), bi->data(), n, 0.0f, cr->data(),
                                   ci->data(), n);
                      });
  }
  {
    const std::int64_t tiles = 16, k = 16;
    const std::size_t kk = static_cast<std::size_t>(k * k);
    const std::size_t tkk = static_cast<std::size_t>(tiles) * kk;
    auto ar = std::make_shared<std::vector<float>>(tkk);
    auto ai = std::make_shared<std::vector<float>>(tkk);
    auto br = std::make_shared<std::vector<float>>(tkk);
    auto bi = std::make_shared<std::vector<float>>(tkk);
    auto cr = std::make_shared<std::vector<float>>(tkk);
    auto ci = std::make_shared<std::vector<float>>(tkk);
    for (auto* v : {ar.get(), ai.get(), br.get(), bi.get()}) {
      for (auto& x : *v) x = static_cast<float>(rng.uniform(-1, 1));
    }
    add_level_records(report, "cgemm_f32_batched", static_cast<double>(tiles),
                      8.0 * static_cast<double>(tiles) * k * k * k, [=] {
                        be::cgemm_batched(be::CTrans::N, be::CTrans::N, tiles,
                                          k, k, k, ar->data(), ai->data(), kk,
                                          k, br->data(), bi->data(), kk, k,
                                          0.0f, cr->data(), ci->data(), kk, k);
                      });
  }
  {
    // Elementwise transcendentals: *_gflops fields are elements/s here.
    const std::int64_t n = 1 << 16;
    auto x = std::make_shared<std::vector<float>>(static_cast<std::size_t>(n));
    auto c = std::make_shared<std::vector<float>>(static_cast<std::size_t>(n));
    auto s = std::make_shared<std::vector<float>>(static_cast<std::size_t>(n));
    for (auto& v : *x) v = static_cast<float>(rng.uniform(-6.28, 6.28));
    add_level_records(report, "sincos_f32", static_cast<double>(n),
                      static_cast<double>(n),
                      [=] { be::sincos(n, x->data(), c->data(), s->data()); });
    const std::int64_t rows = 512, cols = 64;
    auto sm_in = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(rows * cols));
    auto sm_out = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(rows * cols));
    for (auto& v : *sm_in) v = static_cast<float>(rng.uniform(-8.0, 8.0));
    add_level_records(report, "softmax_rows", static_cast<double>(cols),
                      static_cast<double>(rows * cols), [=] {
                        be::softmax_rows(rows, cols, sm_in->data(),
                                         sm_out->data());
                      });
  }
}

int run_json_report(const std::string& path) {
  adept::bench::JsonReport report("kernels");
  for (std::int64_t n : {64, 128, 256}) report.add(gemm_record(n));
  for (std::int64_t n : {64, 128, 256}) report.add(gemm_bt_record(n));
  report.add(gemm_tn_split_record(25, 4, 24 * 24 * 24));   // conv1 dW
  report.add(gemm_tn_split_record(100, 4, 24 * 20 * 20));  // conv2 dW
  for (std::int64_t n : {16, 32, 64}) report.add(cgemm_record(n));
  report.add(cgemm_batched_record());
  report.add(map_record(1u << 20));
  report.add(im2col_record());
  // The deploy model's conv2 as served (batch 1 and 16), and the search
  // proxy's conv2 as the tape runs it (batch 24, width 4).
  for (std::int64_t n : {1, 16}) report.add(conv_record("serve", n, 32, 20, 5, 32));
  for (const char* pass : {"fwd", "dw", "dx"}) {
    report.add(conv_record(pass, 24, 4, 24, 5, 4));
  }
  add_simd_level_records(report);
  if (!report.write(path, be::num_threads())) {
    std::cerr << "bench_kernels: cannot write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << " (threads=" << be::num_threads() << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  if (adept::bench::parse_json_flag(argc, argv, "BENCH_kernels.json", &json_path)) {
    return run_json_report(json_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
