#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "backend/kernels.h"

namespace adept::ag {

namespace be = ::adept::backend;

namespace {

// Supported broadcast layouts for binary elementwise ops.
enum class Bcast { same, a_scalar, b_scalar, b_row, b_col, a_row, a_col };

Bcast classify(const Tensor& a, const Tensor& b) {
  if (a.shape() == b.shape()) return Bcast::same;
  if (b.numel() == 1) return Bcast::b_scalar;
  if (a.numel() == 1) return Bcast::a_scalar;
  // Row broadcast treats any >= 2-D tensor as [numel/m, m] over its last
  // dim (covers the [B,N,M] + [1,M] bias add of batched matmul); column
  // broadcast stays strictly 2-D.
  if (a.ndim() >= 2 && (b.ndim() == 1 || b.ndim() == 2)) {
    const std::int64_t m = a.dim(a.ndim() - 1);
    const std::int64_t bn = b.ndim() == 2 ? b.dim(0) : 1;
    const std::int64_t bm = b.ndim() == 2 ? b.dim(1) : b.dim(0);
    if (bn == 1 && bm == m) return Bcast::b_row;
    if (a.ndim() == 2 && bn == a.dim(0) && bm == 1) return Bcast::b_col;
  }
  if (b.ndim() >= 2 && (a.ndim() == 1 || a.ndim() == 2)) {
    const std::int64_t m = b.dim(b.ndim() - 1);
    const std::int64_t an = a.ndim() == 2 ? a.dim(0) : 1;
    const std::int64_t am = a.ndim() == 2 ? a.dim(1) : a.dim(0);
    if (an == 1 && am == m) return Bcast::a_row;
    if (b.ndim() == 2 && an == b.dim(0) && am == 1) return Bcast::a_col;
  }
  check(false, "binary op: unsupported broadcast");
  return Bcast::same;  // unreachable
}

// Index of the broadcast operand's element feeding output element i.
inline std::size_t bidx(Bcast k, std::size_t i, std::int64_t m) {
  switch (k) {
    case Bcast::b_scalar:
    case Bcast::a_scalar:
      return 0;
    case Bcast::b_row:
    case Bcast::a_row:
      return i % static_cast<std::size_t>(m);
    case Bcast::b_col:
    case Bcast::a_col:
      return i / static_cast<std::size_t>(m);
    default:
      return i;
  }
}

// Generic binary elementwise with broadcast; fwd(a_i, b_i) and partials.
template <typename Fwd, typename DfA, typename DfB>
Tensor binary_op(const Tensor& a, const Tensor& b, Fwd fwd, DfA dfa, DfB dfb) {
  const Bcast kind = classify(a, b);
  const bool b_is_bcast =
      kind == Bcast::b_scalar || kind == Bcast::b_row || kind == Bcast::b_col;
  const bool a_is_bcast =
      kind == Bcast::a_scalar || kind == Bcast::a_row || kind == Bcast::a_col;
  const Tensor& big = a_is_bcast ? b : a;
  const std::int64_t m =
      big.ndim() >= 2 ? big.dim(big.ndim() - 1) : big.numel();

  const auto& ad = a.data();
  const auto& bd = b.data();
  const std::size_t n = static_cast<std::size_t>(big.numel());
  std::vector<float> out = empty_buffer(n);
  if (kind == Bcast::same) {
    be::zip(n, ad.data(), bd.data(), out.data(), fwd);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t ia = a_is_bcast ? bidx(kind, i, m) : i;
      const std::size_t ib = b_is_bcast ? bidx(kind, i, m) : i;
      out[i] = fwd(ad[ia], bd[ib]);
    }
  }
  auto shape = big.shape();
  return make_op(std::move(out), shape, {a, b},
                 [a, b, kind, a_is_bcast, b_is_bcast, m, dfa, dfb](TensorImpl& o) {
                   const auto& ad = a.data();
                   const auto& bd = b.data();
                   if (kind == Bcast::same) {
                     // Same-shape grads touch disjoint indices: fused+threaded.
                     const float* gp = o.grad.data();
                     if (a.requires_grad()) {
                       auto& ga = const_cast<Tensor&>(a).grad();
                       float* gap = ga.data();
                       const float* ap = ad.data();
                       const float* bp = bd.data();
                       be::for_each_index(
                           static_cast<std::int64_t>(o.grad.size()),
                           [=](std::int64_t i) { gap[i] += gp[i] * dfa(ap[i], bp[i]); });
                     }
                     if (b.requires_grad()) {
                       auto& gb = const_cast<Tensor&>(b).grad();
                       float* gbp = gb.data();
                       const float* ap = ad.data();
                       const float* bp = bd.data();
                       be::for_each_index(
                           static_cast<std::int64_t>(o.grad.size()),
                           [=](std::int64_t i) { gbp[i] += gp[i] * dfb(ap[i], bp[i]); });
                     }
                     return;
                   }
                   // Broadcast grads reduce many outputs into one slot; keep
                   // the serial accumulation order.
                   if (a.requires_grad()) {
                     auto& ga = const_cast<Tensor&>(a).grad();
                     for (std::size_t i = 0; i < o.grad.size(); ++i) {
                       const std::size_t ia = a_is_bcast ? bidx(kind, i, m) : i;
                       const std::size_t ib = b_is_bcast ? bidx(kind, i, m) : i;
                       ga[ia] += o.grad[i] * dfa(ad[ia], bd[ib]);
                     }
                   }
                   if (b.requires_grad()) {
                     auto& gb = const_cast<Tensor&>(b).grad();
                     for (std::size_t i = 0; i < o.grad.size(); ++i) {
                       const std::size_t ia = a_is_bcast ? bidx(kind, i, m) : i;
                       const std::size_t ib = b_is_bcast ? bidx(kind, i, m) : i;
                       gb[ib] += o.grad[i] * dfb(ad[ia], bd[ib]);
                     }
                   }
                 });
}

// The gradient buffer of `t` for a gemm that adds into it with `beta` = 1.
// A gradient not yet allocated is taken unzeroed and written with beta 0
// instead: the gemm accumulators start at +0, so that gives the bits of
// beta 1 over zeros without filling them.
float* gemm_grad(const Tensor& t, float& beta) {
  TensorImpl& impl = *t.impl();
  if (impl.grad.empty()) {
    impl.grad = empty_buffer(impl.data.size());
    beta = 0.0f;
  }
  return impl.grad.data();
}

// Generic unary elementwise: fwd(x) with local derivative df(x, y).
template <typename Fwd, typename Df>
Tensor unary_op(const Tensor& a, Fwd fwd, Df df) {
  const auto& ad = a.data();
  std::vector<float> out = empty_buffer(ad.size());
  be::map(ad.size(), ad.data(), out.data(), fwd);
  return make_op(std::move(out), a.shape(), {a}, [a, df](TensorImpl& o) {
    if (!a.requires_grad()) return;
    auto& ga = const_cast<Tensor&>(a).grad();
    float* gap = ga.data();
    const float* ap = a.data().data();
    const float* gp = o.grad.data();
    const float* yp = o.data.data();
    be::for_each_index(static_cast<std::int64_t>(o.grad.size()),
                       [=](std::int64_t i) { gap[i] += gp[i] * df(ap[i], yp[i]); });
  });
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x + y; },
      [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; });
}

Tensor div(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b,
      [](float x, float y) { return x / y; },
      [](float, float y) { return 1.0f / y; },
      [](float x, float y) { return -x / (y * y); });
}

Tensor sqrt(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::sqrt(std::max(x, 0.0f)); },
      [](float, float y) { return y > 0.0f ? 0.5f / y : 0.0f; });
}

Tensor abs(const Tensor& a) {
  return unary_op(a, [](float x) { return std::fabs(x); },
                  [](float x, float) {
                    return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f);
                  });
}

Tensor square(const Tensor& a) {
  return unary_op(a, [](float x) { return x * x; },
                  [](float x, float) { return 2.0f * x; });
}

Tensor relu(const Tensor& a) {
  return unary_op(a, [](float x) { return x > 0.0f ? x : 0.0f; },
                  [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor reciprocal(const Tensor& a) {
  auto safe = [](float x) {
    const float ax = std::fabs(x);
    if (ax < 1e-12f) return x < 0.0f ? -1e-12f : 1e-12f;
    return x;
  };
  return unary_op(
      a, [safe](float x) { return 1.0f / safe(x); },
      [safe](float x, float) {
        const float s = safe(x);
        return -1.0f / (s * s);
      });
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary_op(a, [s](float x) { return x + s; },
                  [](float, float) { return 1.0f; });
}

Tensor mul_scalar(const Tensor& a, float s) {
  return unary_op(a, [s](float x) { return x * s; },
                  [s](float, float) { return s; });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  check(a.ndim() == 2 && b.ndim() == 2, "matmul: expects 2-D tensors");
  const std::int64_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
  check(b.dim(0) == k, "matmul: inner dims mismatch");
  std::vector<float> out = empty_buffer(static_cast<std::size_t>(n * m));
  be::gemm(be::Trans::N, be::Trans::N, n, m, k, 1.0f, a.data().data(), k,
           b.data().data(), m, 0.0f, out.data(), m);
  return make_op(std::move(out), {n, m}, {a, b}, [a, b, n, k, m](TensorImpl& o) {
    // Both grads are gemms against the logically transposed operand; no
    // transposed Tensor is built on the tape — the kernel gathers blocked
    // panels internally (bounded scratch, see backend gemm).
    if (a.requires_grad()) {
      // dA += dO @ B^T : [n,m] x [m,k]
      float beta = 1.0f;
      float* ga = gemm_grad(a, beta);
      be::gemm(be::Trans::N, be::Trans::T, n, k, m, 1.0f, o.grad.data(), m,
               b.data().data(), m, beta, ga, k);
    }
    if (b.requires_grad()) {
      // dB += A^T @ dO : [k,n] x [n,m], the weight gradient: its reduction
      // runs over the n batch rows, which the kernel splits when long.
      float beta = 1.0f;
      float* gb = gemm_grad(b, beta);
      be::gemm_tn_split(k, m, n, a.data().data(), k, o.grad.data(), m, beta,
                        gb, m);
    }
  });
}

Tensor transpose(const Tensor& a) {
  check(a.ndim() == 2, "transpose: expects 2-D");
  const std::int64_t n = a.dim(0), m = a.dim(1);
  std::vector<float> out = empty_buffer(static_cast<std::size_t>(n * m));
  const float* ad = a.data().data();
  float* op = out.data();
  be::for_each_index(
      m, [=](std::int64_t j) {
        for (std::int64_t i = 0; i < n; ++i) op[j * n + i] = ad[i * m + j];
      },
      /*grain=*/std::max<std::int64_t>(1, 2048 / std::max<std::int64_t>(n, 1)),
      n * be::kElemCost);
  return make_op(std::move(out), {m, n}, {a}, [a, n, m](TensorImpl& o) {
    if (!a.requires_grad()) return;
    auto& ga = const_cast<Tensor&>(a).grad();
    float* gap = ga.data();
    const float* gp = o.grad.data();
    be::for_each_index(
        n, [=](std::int64_t i) {
          for (std::int64_t j = 0; j < m; ++j) gap[i * m + j] += gp[j * n + i];
        },
        /*grain=*/std::max<std::int64_t>(1, 2048 / std::max<std::int64_t>(m, 1)),
        m * be::kElemCost);
  });
}

Tensor reshape(const Tensor& a, std::vector<std::int64_t> shape) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  check(n == a.numel(), "reshape: numel mismatch");
  std::vector<float> out = empty_buffer(a.data().size());
  std::copy(a.data().begin(), a.data().end(), out.begin());
  return make_op(std::move(out), std::move(shape), {a}, [a](TensorImpl& o) {
    if (!a.requires_grad()) return;
    auto& ga = const_cast<Tensor&>(a).grad();
    for (std::size_t i = 0; i < o.grad.size(); ++i) ga[i] += o.grad[i];
  });
}

Tensor sum(const Tensor& a) {
  const double acc = be::reduce_sum(a.data().data(), a.data().size());
  return make_op({static_cast<float>(acc)}, {1}, {a}, [a](TensorImpl& o) {
    if (!a.requires_grad()) return;
    auto& ga = const_cast<Tensor&>(a).grad();
    float* gap = ga.data();
    const float g = o.grad[0];
    be::for_each_index(static_cast<std::int64_t>(ga.size()),
                       [=](std::int64_t i) { gap[i] += g; });
  });
}

Tensor mean(const Tensor& a) {
  const float inv = 1.0f / static_cast<float>(a.numel());
  return mul_scalar(sum(a), inv);
}

Tensor row_sum(const Tensor& a) {
  check(a.ndim() == 2, "row_sum: expects 2-D");
  const std::int64_t n = a.dim(0), m = a.dim(1);
  std::vector<float> out = empty_buffer(static_cast<std::size_t>(n));
  const float* ad = a.data().data();
  float* op = out.data();
  const std::int64_t row_grain = std::max<std::int64_t>(1, 2048 / std::max<std::int64_t>(m, 1));
  be::for_each_index(
      n,
      [=](std::int64_t i) {
        double acc = 0.0;
        for (std::int64_t j = 0; j < m; ++j) acc += ad[i * m + j];
        op[i] = static_cast<float>(acc);
      },
      row_grain, m * be::kElemCost);
  return make_op(std::move(out), {n, 1}, {a}, [a, n, m, row_grain](TensorImpl& o) {
    if (!a.requires_grad()) return;
    auto& ga = const_cast<Tensor&>(a).grad();
    float* gap = ga.data();
    const float* gp = o.grad.data();
    be::for_each_index(
        n,
        [=](std::int64_t i) {
          const float g = gp[i];
          for (std::int64_t j = 0; j < m; ++j) gap[i * m + j] += g;
        },
        row_grain, m * be::kElemCost);
  });
}

Tensor col_sum(const Tensor& a) {
  check(a.ndim() == 2, "col_sum: expects 2-D");
  const std::int64_t n = a.dim(0), m = a.dim(1);
  std::vector<float> out = zeros_buffer(static_cast<std::size_t>(m));
  const auto& ad = a.data();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < m; ++j) {
      out[static_cast<std::size_t>(j)] += ad[static_cast<std::size_t>(i * m + j)];
    }
  }
  return make_op(std::move(out), {1, m}, {a}, [a, n, m](TensorImpl& o) {
    if (!a.requires_grad()) return;
    auto& ga = const_cast<Tensor&>(a).grad();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < m; ++j) {
        ga[static_cast<std::size_t>(i * m + j)] += o.grad[static_cast<std::size_t>(j)];
      }
    }
  });
}

Tensor tile_col_sum(const Tensor& a) {
  check(a.ndim() == 3, "tile_col_sum: expects [T,N,M]");
  const std::int64_t t = a.dim(0), n = a.dim(1), m = a.dim(2);
  std::vector<float> out = zeros_buffer(static_cast<std::size_t>(t * m));
  {
    const float* ad = a.data().data();
    float* op = out.data();
    be::for_each_index(
        t,
        [=](std::int64_t ti) {
          const float* tile = ad + ti * n * m;
          float* orow = op + ti * m;
          for (std::int64_t i = 0; i < n; ++i) {
            for (std::int64_t j = 0; j < m; ++j) orow[j] += tile[i * m + j];
          }
        },
        /*grain=*/1, n * m * be::kElemCost);
  }
  return make_op(std::move(out), {t, m}, {a}, [a, t, n, m](TensorImpl& o) {
    if (!a.requires_grad()) return;
    auto& ga = const_cast<Tensor&>(a).grad();
    float* gap = ga.data();
    const float* gp = o.grad.data();
    be::for_each_index(
        t,
        [=](std::int64_t ti) {
          float* gtile = gap + ti * n * m;
          const float* grow = gp + ti * m;
          for (std::int64_t i = 0; i < n; ++i) {
            for (std::int64_t j = 0; j < m; ++j) gtile[i * m + j] += grow[j];
          }
        },
        /*grain=*/1, n * m * be::kElemCost);
  });
}

Tensor bscale_cols(const Tensor& a, const Tensor& s) {
  check(a.ndim() == 3, "bscale_cols: expects [T,N,M]");
  const std::int64_t t = a.dim(0), n = a.dim(1), m = a.dim(2);
  check(s.numel() == t * m && s.dim(0) == t, "bscale_cols: s must be [T,M]");
  const auto& ad = a.data();
  std::vector<float> out = empty_buffer(ad.size());
  {
    const float* ap = ad.data();
    const float* sp = s.data().data();
    float* op = out.data();
    be::for_each_index(static_cast<std::int64_t>(ad.size()),
                       [=](std::int64_t idx) {
                         const std::int64_t ti = idx / (n * m);
                         op[idx] = ap[idx] * sp[ti * m + idx % m];
                       });
  }
  return make_op(std::move(out), a.shape(), {a, s}, [a, s, t, n, m](TensorImpl& o) {
    const float* g = o.grad.data();
    if (a.requires_grad()) {
      auto& ga = const_cast<Tensor&>(a).grad();
      float* gap = ga.data();
      const float* sp = s.data().data();
      be::for_each_index(static_cast<std::int64_t>(o.grad.size()),
                         [=](std::int64_t idx) {
                           const std::int64_t ti = idx / (n * m);
                           gap[idx] += g[idx] * sp[ti * m + idx % m];
                         });
    }
    if (s.requires_grad()) {
      // Each (t,j) slot owns its reduction; rows accumulate in ascending
      // order, matching mul's [N,M] x [1,M] broadcast backward per slot.
      auto& gs = const_cast<Tensor&>(s).grad();
      float* gsp = gs.data();
      const float* ap = a.data().data();
      be::for_each_index(
          t * m,
          [=](std::int64_t slot) {
            const std::int64_t ti = slot / m, j = slot % m;
            const float* atile = ap + ti * n * m;
            const float* gtile = g + ti * n * m;
            float* dst = gsp + slot;
            for (std::int64_t i = 0; i < n; ++i) {
              *dst += gtile[i * m + j] * atile[i * m + j];
            }
          },
          /*grain=*/1, 2 * n * be::kElemCost);
    }
  });
}

Tensor row_l2_norm(const Tensor& a, float eps) {
  Tensor sq = square(a);
  Tensor s = row_sum(sq);
  return sqrt(add_scalar(s, eps));
}

Tensor col_l2_norm(const Tensor& a, float eps) {
  Tensor sq = square(a);
  Tensor s = col_sum(sq);
  return sqrt(add_scalar(s, eps));
}

Tensor softmax_rows(const Tensor& a) {
  check(a.ndim() == 2, "softmax_rows: expects 2-D");
  const std::int64_t n = a.dim(0), m = a.dim(1);
  std::vector<float> out = empty_buffer(static_cast<std::size_t>(n * m));
  const std::int64_t row_grain = std::max<std::int64_t>(1, 1024 / std::max<std::int64_t>(m, 1));
  // Dispatched row-softmax: SIMD levels vectorize the max/exp/normalize
  // passes, the scalar level keeps the historical double-accumulator loop.
  be::softmax_rows(n, m, a.data().data(), out.data());
  return make_op(std::move(out), {n, m}, {a}, [a, n, m, row_grain](TensorImpl& o) {
    if (!a.requires_grad()) return;
    auto& ga = const_cast<Tensor&>(a).grad();
    float* gap = ga.data();
    const float* gp = o.grad.data();
    const float* yp = o.data.data();
    // dx = y * (dy - sum_j dy_j y_j) per row
    be::for_each_index(
        n,
        [=](std::int64_t i) {
          double dot = 0.0;
          for (std::int64_t j = 0; j < m; ++j) {
            dot += static_cast<double>(gp[i * m + j]) * yp[i * m + j];
          }
          for (std::int64_t j = 0; j < m; ++j) {
            gap[i * m + j] += yp[i * m + j] * (gp[i * m + j] - static_cast<float>(dot));
          }
        },
        row_grain, 2 * m * be::kElemCost);
  });
}

Tensor log_softmax_rows(const Tensor& a) {
  check(a.ndim() == 2, "log_softmax_rows: expects 2-D");
  const std::int64_t n = a.dim(0), m = a.dim(1);
  std::vector<float> out = empty_buffer(static_cast<std::size_t>(n * m));
  const std::int64_t row_grain = std::max<std::int64_t>(1, 1024 / std::max<std::int64_t>(m, 1));
  be::log_softmax_rows(n, m, a.data().data(), out.data());
  return make_op(std::move(out), {n, m}, {a}, [a, n, m, row_grain](TensorImpl& o) {
    if (!a.requires_grad()) return;
    auto& ga = const_cast<Tensor&>(a).grad();
    float* gap = ga.data();
    const float* gp = o.grad.data();
    const float* yp = o.data.data();
    be::for_each_index(
        n,
        [=](std::int64_t i) {
          double gsum = 0.0;
          for (std::int64_t j = 0; j < m; ++j) gsum += gp[i * m + j];
          for (std::int64_t j = 0; j < m; ++j) {
            gap[i * m + j] += gp[i * m + j] - std::exp(yp[i * m + j]) * static_cast<float>(gsum);
          }
        },
        row_grain, 2 * m * be::kElemCost);
  });
}

Tensor cross_entropy(const Tensor& logits, const std::vector<int>& labels) {
  check(logits.ndim() == 2, "cross_entropy: expects 2-D logits");
  const std::int64_t n = logits.dim(0), m = logits.dim(1);
  check(static_cast<std::int64_t>(labels.size()) == n, "cross_entropy: label count");
  Tensor lsm = log_softmax_rows(logits);
  // Mean negative log-likelihood via a custom gather op.
  const auto& ld = lsm.data();
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    acc -= ld[static_cast<std::size_t>(i * m + labels[static_cast<std::size_t>(i)])];
  }
  const float loss = static_cast<float>(acc / static_cast<double>(n));
  return make_op({loss}, {1}, {lsm}, [lsm, labels, n, m](TensorImpl& o) {
    if (!lsm.requires_grad()) return;
    auto& g = const_cast<Tensor&>(lsm).grad();
    const float scale = o.grad[0] / static_cast<float>(n);
    for (std::int64_t i = 0; i < n; ++i) {
      g[static_cast<std::size_t>(i * m + labels[static_cast<std::size_t>(i)])] -= scale;
    }
  });
}

Tensor index(const Tensor& a, std::int64_t i) {
  check(i >= 0 && i < a.numel(), "index: out of range");
  return make_op({a.data()[static_cast<std::size_t>(i)]}, {1}, {a},
                 [a, i](TensorImpl& o) {
                   if (!a.requires_grad()) return;
                   const_cast<Tensor&>(a).grad()[static_cast<std::size_t>(i)] += o.grad[0];
                 });
}

Tensor slice2d(const Tensor& a, std::int64_t r0, std::int64_t rows,
               std::int64_t c0, std::int64_t cols) {
  check(a.ndim() == 2, "slice2d: expects 2-D");
  const std::int64_t n = a.dim(0), m = a.dim(1);
  check(r0 >= 0 && c0 >= 0 && r0 + rows <= n && c0 + cols <= m, "slice2d: bounds");
  std::vector<float> out = empty_buffer(static_cast<std::size_t>(rows * cols));
  const auto& ad = a.data();
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      out[static_cast<std::size_t>(i * cols + j)] =
          ad[static_cast<std::size_t>((r0 + i) * m + (c0 + j))];
    }
  }
  return make_op(std::move(out), {rows, cols}, {a},
                 [a, r0, c0, rows, cols, m](TensorImpl& o) {
                   if (!a.requires_grad()) return;
                   auto& ga = const_cast<Tensor&>(a).grad();
                   for (std::int64_t i = 0; i < rows; ++i) {
                     for (std::int64_t j = 0; j < cols; ++j) {
                       ga[static_cast<std::size_t>((r0 + i) * m + (c0 + j))] +=
                           o.grad[static_cast<std::size_t>(i * cols + j)];
                     }
                   }
                 });
}

Tensor block_matrix(const Tensor& stacked, std::int64_t p, std::int64_t q) {
  check(stacked.ndim() == 3 && stacked.dim(0) == p * q,
        "block_matrix: stacked must be [P*Q,K,K]");
  const std::int64_t k = stacked.dim(1);
  check(stacked.dim(2) == k, "block_matrix: tiles must be square");
  const std::int64_t rows = p * k, cols = q * k;
  std::vector<float> out = empty_buffer(static_cast<std::size_t>(rows * cols));
  {
    const float* sd = stacked.data().data();
    float* op = out.data();
    be::for_each_index(
        p * q,
        [=](std::int64_t t) {
          const std::int64_t bp = t / q, bq = t % q;
          const float* tile = sd + t * k * k;
          for (std::int64_t i = 0; i < k; ++i) {
            for (std::int64_t j = 0; j < k; ++j) {
              op[(bp * k + i) * cols + bq * k + j] = tile[i * k + j];
            }
          }
        },
        /*grain=*/1, k * k * be::kElemCost);
  }
  return make_op(std::move(out), {rows, cols}, {stacked},
                 [stacked, p, q, k, cols](TensorImpl& o) {
                   if (!stacked.requires_grad()) return;
                   auto& gs = const_cast<Tensor&>(stacked).grad();
                   float* gsp = gs.data();
                   const float* gp = o.grad.data();
                   be::for_each_index(
                       p * q,
                       [=](std::int64_t t) {
                         const std::int64_t bp = t / q, bq = t % q;
                         float* gtile = gsp + t * k * k;
                         for (std::int64_t i = 0; i < k; ++i) {
                           for (std::int64_t j = 0; j < k; ++j) {
                             gtile[i * k + j] +=
                                 gp[(bp * k + i) * cols + bq * k + j];
                           }
                         }
                       },
                       /*grain=*/1, k * k * be::kElemCost);
                 });
}

Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
              std::int64_t stride, std::int64_t pad) {
  check(x.ndim() == 4, "conv2d: x expects [N,C,H,W]");
  check(w.ndim() == 2, "conv2d: w expects [O,C*K*K]");
  be::ConvShape s;
  s.n = x.dim(0);
  s.c = x.dim(1);
  s.h = x.dim(2);
  s.w = x.dim(3);
  s.out_c = w.dim(0);
  s.stride = stride;
  s.pad = pad;
  const std::int64_t taps = s.c > 0 ? w.dim(1) / s.c : 0;
  while (s.k * s.k < taps) ++s.k;
  check(s.c > 0 && s.k * s.k * s.c == w.dim(1),
        "conv2d: w's fan-in is not C*K*K for a square kernel");
  check(stride >= 1 && pad >= 0, "conv2d: needs stride >= 1 and pad >= 0");
  check(s.h + 2 * pad >= s.k && s.w + 2 * pad >= s.k, "conv2d: output is empty");
  check(!bias.defined() || bias.numel() == s.out_c, "conv2d: bias is not [O]");
  const std::int64_t oh = s.oh(), ow = s.ow();
  std::vector<float> out = empty_buffer(static_cast<std::size_t>(s.n * s.out_c * oh * ow));
  be::ConvEpilogue ep;
  ep.bias = bias.defined() ? bias.data().data() : nullptr;
  be::conv2d_forward(s, x.data().data(), be::Trans::T, w.data().data(), s.fan_in(),
                     nullptr, ep, out.data());
  std::vector<Tensor> parents{x, w};
  if (bias.defined()) parents.push_back(bias);
  return make_op(std::move(out), {s.n, s.out_c, oh, ow}, std::move(parents),
                 [x, w, bias, s](TensorImpl& o) {
                   auto grad_of = [](const Tensor& t) -> float* {
                     return t.defined() && t.requires_grad()
                                ? const_cast<Tensor&>(t).grad().data()
                                : nullptr;
                   };
                   be::conv2d_backward(s, x.data().data(), w.data().data(),
                                       o.grad.data(), grad_of(w), grad_of(bias),
                                       grad_of(x));
                 });
}

Tensor adaptive_avgpool2d(const Tensor& x, std::int64_t out_h, std::int64_t out_w) {
  check(x.ndim() == 4, "adaptive_avgpool2d: expects [N,C,H,W]");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const auto bin_start = pool_bin_start;  // shared with the compiled runtime
  const auto bin_end = pool_bin_end;
  std::vector<float> out = empty_buffer(static_cast<std::size_t>(n * c * out_h * out_w));
  // Each (n, c) slice owns disjoint input/output planes, so the slice index
  // is the parallel dimension for both directions.
  {
    const float* xp = x.data().data();
    float* op = out.data();
    be::for_each_index(
        n * c,
        [=](std::int64_t slice) {
          const float* xplane = xp + slice * h * w;
          float* oplane = op + slice * out_h * out_w;
          for (std::int64_t yo = 0; yo < out_h; ++yo) {
            const std::int64_t y0 = bin_start(yo, h, out_h), y1 = bin_end(yo, h, out_h);
            for (std::int64_t xo = 0; xo < out_w; ++xo) {
              const std::int64_t x0 = bin_start(xo, w, out_w), x1 = bin_end(xo, w, out_w);
              double acc = 0.0;
              for (std::int64_t yi = y0; yi < y1; ++yi) {
                for (std::int64_t xi = x0; xi < x1; ++xi) {
                  acc += xplane[yi * w + xi];
                }
              }
              oplane[yo * out_w + xo] =
                  static_cast<float>(acc / static_cast<double>((y1 - y0) * (x1 - x0)));
            }
          }
        },
        /*grain=*/1, h * w * be::kElemCost);
  }
  return make_op(std::move(out), {n, c, out_h, out_w}, {x},
                 [x, n, c, h, w, out_h, out_w, bin_start, bin_end](TensorImpl& o) {
                   if (!x.requires_grad()) return;
                   float* gxp = const_cast<Tensor&>(x).grad().data();
                   const float* gp = o.grad.data();
                   be::for_each_index(
                       n * c,
                       [=](std::int64_t slice) {
                         float* gplane = gxp + slice * h * w;
                         const float* goplane = gp + slice * out_h * out_w;
                         for (std::int64_t yo = 0; yo < out_h; ++yo) {
                           const std::int64_t y0 = bin_start(yo, h, out_h), y1 = bin_end(yo, h, out_h);
                           for (std::int64_t xo = 0; xo < out_w; ++xo) {
                             const std::int64_t x0 = bin_start(xo, w, out_w), x1 = bin_end(xo, w, out_w);
                             const float g = goplane[yo * out_w + xo] /
                                             static_cast<float>((y1 - y0) * (x1 - x0));
                             for (std::int64_t yi = y0; yi < y1; ++yi) {
                               for (std::int64_t xi = x0; xi < x1; ++xi) {
                                 gplane[yi * w + xi] += g;
                               }
                             }
                           }
                         }
                       },
                       /*grain=*/1, h * w * be::kElemCost);
                 });
}

Tensor maxpool2d(const Tensor& x, std::int64_t k, std::int64_t stride) {
  check(x.ndim() == 4, "maxpool2d: expects [N,C,H,W]");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = (h - k) / stride + 1, ow = (w - k) / stride + 1;
  check(oh > 0 && ow > 0, "maxpool2d: output empty");
  std::vector<float> out = empty_buffer(static_cast<std::size_t>(n * c * oh * ow));
  // Winner indices cached for the backward scatter (no re-scan of windows).
  auto argmax = std::make_shared<std::vector<std::int64_t>>(out.size());
  {
    const float* xp = x.data().data();
    float* op = out.data();
    std::int64_t* amp = argmax->data();
    be::for_each_index(
        n * c,
        [=](std::int64_t slice) {
          const float* xplane = xp + slice * h * w;
          for (std::int64_t yo = 0; yo < oh; ++yo) {
            for (std::int64_t xo = 0; xo < ow; ++xo) {
              float best = -std::numeric_limits<float>::infinity();
              std::int64_t best_idx = 0;
              for (std::int64_t ky = 0; ky < k; ++ky) {
                for (std::int64_t kx = 0; kx < k; ++kx) {
                  const std::int64_t yi = yo * stride + ky, xi = xo * stride + kx;
                  const std::int64_t idx = yi * w + xi;
                  if (xplane[idx] > best) {
                    best = xplane[idx];
                    best_idx = idx;
                  }
                }
              }
              const std::int64_t oidx = (slice * oh + yo) * ow + xo;
              op[oidx] = best;
              amp[oidx] = slice * h * w + best_idx;
            }
          }
        },
        /*grain=*/1, oh * ow * k * k * be::kElemCost);
  }
  return make_op(std::move(out), {n, c, oh, ow}, {x},
                 [x, argmax, oh, ow](TensorImpl& o) {
                   if (!x.requires_grad()) return;
                   // Overlapping windows can pick the same input pixel, but
                   // only within one (n, c) plane: slices stay the parallel
                   // dimension, scatter order within a slice is serial.
                   float* gxp = const_cast<Tensor&>(x).grad().data();
                   const float* gp = o.grad.data();
                   const std::int64_t* amp = argmax->data();
                   const std::int64_t plane = oh * ow;
                   be::for_each_index(
                       static_cast<std::int64_t>(o.grad.size()) / plane,
                       [=](std::int64_t slice) {
                         for (std::int64_t i = slice * plane; i < (slice + 1) * plane; ++i) {
                           gxp[amp[i]] += gp[i];
                         }
                       },
                       /*grain=*/1, plane * be::kElemCost);
                 });
}

Tensor batchnorm2d(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   std::vector<float>& running_mean, std::vector<float>& running_var,
                   bool training, float momentum, float eps) {
  check(x.ndim() == 4, "batchnorm2d: expects [N,C,H,W]");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  check(gamma.numel() == c && beta.numel() == c, "batchnorm2d: affine size");
  check(static_cast<std::int64_t>(running_mean.size()) == c, "batchnorm2d: stats size");
  const std::int64_t cnt = n * h * w;
  auto mean_v = std::make_shared<std::vector<float>>(static_cast<std::size_t>(c));
  auto invstd_v = std::make_shared<std::vector<float>>(static_cast<std::size_t>(c));
  const auto& xd = x.data();
  if (training) {
    float* rm = running_mean.data();
    float* rv = running_var.data();
    float* mv = mean_v->data();
    float* iv = invstd_v->data();
    const float* xp = xd.data();
    // Channels own disjoint stats slots; accumulation within a channel stays
    // in ni-major order, so this is bit-exact vs. the serial loop.
    be::for_each_index(
        c,
        [=](std::int64_t ci) {
          double s = 0.0, s2 = 0.0;
          for (std::int64_t ni = 0; ni < n; ++ni) {
            const float* base = xp + ((ni * c + ci) * h) * w;
            for (std::int64_t i = 0; i < h * w; ++i) {
              const double v = base[i];
              s += v;
              s2 += v * v;
            }
          }
          const double mu = s / static_cast<double>(cnt);
          const double var = std::max(s2 / static_cast<double>(cnt) - mu * mu, 0.0);
          mv[ci] = static_cast<float>(mu);
          iv[ci] = static_cast<float>(1.0 / std::sqrt(var + eps));
          rm[ci] = (1.0f - momentum) * rm[ci] + momentum * static_cast<float>(mu);
          rv[ci] = (1.0f - momentum) * rv[ci] + momentum * static_cast<float>(var);
        },
        /*grain=*/1, 2 * n * h * w * be::kElemCost);
  } else {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      (*mean_v)[static_cast<std::size_t>(ci)] = running_mean[static_cast<std::size_t>(ci)];
      (*invstd_v)[static_cast<std::size_t>(ci)] = static_cast<float>(
          1.0 / std::sqrt(running_var[static_cast<std::size_t>(ci)] + eps));
    }
  }
  std::vector<float> out = empty_buffer(xd.size());
  {
    const float* gd = gamma.data().data();
    const float* bd = beta.data().data();
    const float* mv = mean_v->data();
    const float* iv = invstd_v->data();
    const float* xp = xd.data();
    float* op = out.data();
    const std::int64_t plane = h * w;
    be::for_each_index(
        n * c,
        [=](std::int64_t slice) {
          const std::int64_t ci = slice % c;
          const float mu = mv[ci], is = iv[ci], g = gd[ci], b = bd[ci];
          const float* xb = xp + slice * plane;
          float* ob = op + slice * plane;
          for (std::int64_t i = 0; i < plane; ++i) ob[i] = (xb[i] - mu) * is * g + b;
        },
        /*grain=*/std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(plane, 1)),
        plane * be::kElemCost);
  }
  return make_op(
      std::move(out), x.shape(), {x, gamma, beta},
      [x, gamma, beta, mean_v, invstd_v, n, c, h, w, cnt, training](TensorImpl& o) {
        const auto& xd = x.data();
        const auto& gd = gamma.data();
        // Pre-compute per-channel reductions of the output gradient. Each
        // channel accumulates in ni-major order into its own slot, so the
        // channel loop is the parallel dimension.
        std::vector<double> sum_dy(static_cast<std::size_t>(c), 0.0);
        std::vector<double> sum_dy_xhat(static_cast<std::size_t>(c), 0.0);
        {
          double* sdp = sum_dy.data();
          double* sxp = sum_dy_xhat.data();
          const float* xp = xd.data();
          const float* gp = o.grad.data();
          const float* mv = mean_v->data();
          const float* iv = invstd_v->data();
          const std::int64_t plane = h * w;
          be::for_each_index(
              c,
              [=](std::int64_t ci) {
                const float mu = mv[ci], is = iv[ci];
                double sd = 0.0, sx = 0.0;
                for (std::int64_t ni = 0; ni < n; ++ni) {
                  const float* xb = xp + ((ni * c + ci) * plane);
                  const float* gb = gp + ((ni * c + ci) * plane);
                  for (std::int64_t i = 0; i < plane; ++i) {
                    const float dy = gb[i];
                    sd += dy;
                    sx += static_cast<double>(dy) * ((xb[i] - mu) * is);
                  }
                }
                sdp[ci] = sd;
                sxp[ci] = sx;
              },
              /*grain=*/1, 2 * n * plane * be::kElemCost);
        }
        if (gamma.requires_grad()) {
          auto& gg = const_cast<Tensor&>(gamma).grad();
          for (std::int64_t ci = 0; ci < c; ++ci) {
            gg[static_cast<std::size_t>(ci)] +=
                static_cast<float>(sum_dy_xhat[static_cast<std::size_t>(ci)]);
          }
        }
        if (beta.requires_grad()) {
          auto& gb = const_cast<Tensor&>(beta).grad();
          for (std::int64_t ci = 0; ci < c; ++ci) {
            gb[static_cast<std::size_t>(ci)] +=
                static_cast<float>(sum_dy[static_cast<std::size_t>(ci)]);
          }
        }
        if (x.requires_grad()) {
          auto& gx = const_cast<Tensor&>(x).grad();
          const float inv_cnt = 1.0f / static_cast<float>(cnt);
          float* gxp = gx.data();
          const float* xp = xd.data();
          const float* gp = o.grad.data();
          const float* gdp = gd.data();
          const float* mv = mean_v->data();
          const float* iv = invstd_v->data();
          const double* sdp = sum_dy.data();
          const double* sxp = sum_dy_xhat.data();
          const std::int64_t plane = h * w;
          be::for_each_index(
              n * c,
              [=](std::int64_t slice) {
                const std::int64_t ci = slice % c;
                const float mu = mv[ci], is = iv[ci], g = gdp[ci];
                const float sdy = static_cast<float>(sdp[ci]);
                const float sdyx = static_cast<float>(sxp[ci]);
                const float* xb = xp + slice * plane;
                const float* gb = gp + slice * plane;
                float* gxb = gxp + slice * plane;
                for (std::int64_t i = 0; i < plane; ++i) {
                  const float dy = gb[i];
                  if (training) {
                    const float xh = (xb[i] - mu) * is;
                    gxb[i] += g * is * (dy - inv_cnt * sdy - xh * inv_cnt * sdyx);
                  } else {
                    gxb[i] += g * is * dy;
                  }
                }
              },
              /*grain=*/std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(plane, 1)),
              2 * plane * be::kElemCost);
        }
      });
}

std::vector<int> argmax_rows(const Tensor& a) {
  check(a.ndim() == 2, "argmax_rows: expects 2-D");
  const std::int64_t n = a.dim(0), m = a.dim(1);
  std::vector<int> out(static_cast<std::size_t>(n));
  const auto& ad = a.data();
  for (std::int64_t i = 0; i < n; ++i) {
    int best = 0;
    float bv = ad[static_cast<std::size_t>(i * m)];
    for (std::int64_t j = 1; j < m; ++j) {
      const float v = ad[static_cast<std::size_t>(i * m + j)];
      if (v > bv) {
        bv = v;
        best = static_cast<int>(j);
      }
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

}  // namespace adept::ag
