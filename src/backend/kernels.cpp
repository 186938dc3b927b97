#include "backend/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "backend/arena.h"
#include "backend/dispatch.h"

namespace adept::backend {

namespace {

// Panel sizes for the blocked GEMM. Rows of C are the parallel dimension;
// kKBlock-deep panels of op(B) are packed contiguously when B is logically
// transposed so the innermost axpy always streams unit-stride memory.
constexpr std::int64_t kRowBlock = 48;
constexpr std::int64_t kKBlock = 256;
// Column tile of the SIMD gemm driver (microkernels.inc), whose row launch
// costs each row 2 * kc * padded_cols(n).
constexpr std::int64_t kTileCols = 16;

std::int64_t padded_cols(std::int64_t n) {
  return (n + kTileCols - 1) / kTileCols * kTileCols;
}

// gemm_tn_split's chunking, measured on a 4-vCPU AVX-512 host (GCC 12,
// Release; medians of 60 calls, the host's speed drifts up to 2x):
//   - at 4 threads, 4 chunks of 256 rows beat gemm at 25 x 32 x 1024 (51 ->
//     27 us) and 48 x 64 x 1024 (136 -> 80 us), and 8 chunks of 128 rows
//     are slower than those 4 (31 and 89 us). At 1 thread, chunks under 256
//     rows cost up to 1.7x gemm (48 x 64 x 512: 62 -> 104 us), so each chunk
//     keeps at least one full 256-deep k-panel of the gemm driver;
//   - the proxy CNN's dW (25 x 4 x 13824, 100 x 4 x 9600) takes 600 / 1200
//     us in gemm at any thread count, 260 / 470-550 us in 4 or 8 chunks at
//     4 threads; 16 chunks gain at most 15% more there and double the
//     partials, so 8 chunks (one per core on an 8-core host) is the cap.
constexpr std::int64_t kSplitMinRows = 256;
constexpr int kSplitMaxChunks = 8;

// Beta epilogue shared by every gemm variant: beta == 0 zero-fills the row,
// beta == 1 leaves it untouched, anything else scales in place.
template <typename T>
inline void scale_row_beta(T beta, std::int64_t n, T* row) {
  if (beta == T{}) {
    std::fill(row, row + n, T{});
  } else if (beta != T{1}) {
    for (std::int64_t j = 0; j < n; ++j) row[j] *= beta;
  }
}

// Gathers the [kc, n] panel of a logically transposed B (physical [n, ldb],
// panel starting at column k0) into row-major scratch `bp` so the gemm inner
// loops always stream unit-stride memory. Shared by the scalar gemm variants.
template <typename T>
inline void pack_bt_panel(const T* b, std::int64_t ldb, std::int64_t k0,
                          std::int64_t kc, std::int64_t n, T* bp) {
  parallel_for(kc, kRowBlock, n * kElemCost, [=](std::int64_t kk0, std::int64_t kk1) {
    for (std::int64_t j = 0; j < n; ++j) {
      const T* bcol = b + j * ldb + k0;
      for (std::int64_t kk = kk0; kk < kk1; ++kk) bp[kk * n + j] = bcol[kk];
    }
  });
}

// op(A) readers for gemm_impl. `panel(k0, kc)` gives one k-panel's view,
// whose `row(i)` reads op(A)[i][k0 + kk] as `row[kk]`.
template <typename T>
struct DenseRead {
  Trans ta;
  const T* a;
  std::int64_t lda;

  struct Row {
    const T* p;
    std::int64_t step;
    T operator[](std::int64_t kk) const { return p[kk * step]; }
  };
  struct Panel {
    const DenseRead* d;
    std::int64_t k0;
    Row row(std::int64_t i) const {
      return d->ta == Trans::N ? Row{d->a + i * d->lda + k0, 1}
                               : Row{d->a + k0 * d->lda + i, d->lda};
    }
  };
  Panel panel(std::int64_t k0, std::int64_t) const { return {this, k0}; }
};

// Patch rows [row0, ...) of the implicit-GEMM conv operand, as A
// (Trans::N) or A^T (Trans::T): the values the materialized im2col matrix
// holds, padded taps included.
struct PatchRead {
  const ConvPatches* p;
  std::int64_t row0;
  Trans ta;

  struct Row {
    const float* base;
    const std::int64_t* off;
    float operator[](std::int64_t kk) const { return base[off[kk]]; }
  };
  struct Panel {
    const PatchRead* r;
    std::int64_t k0;
    std::int64_t rb[kKBlock];  // Trans::T: row_base of patch row k0 + kk
    Row row(std::int64_t i) const {
      const ConvPatches& p = *r->p;
      if (r->ta == Trans::N) {
        return {p.x + p.row_base(r->row0 + i), p.tap + k0};
      }
      return {p.x + p.tap[i], rb};
    }
  };
  Panel panel(std::int64_t k0, std::int64_t kc) const {
    Panel out{this, k0, {}};
    if (ta == Trans::T) {
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        out.rb[kk] = p->row_base(row0 + k0 + kk);
      }
    }
    return out;
  }
};

// SkipZero preserves the seed's sparse-operand shortcut for the photonic
// matrices (butterfly/permutation products are mostly zeros); the float NN
// path keeps a branch-free inner loop instead.
template <typename T, bool SkipZero, typename ARead>
void gemm_impl(const ARead& opa, Trans tb, std::int64_t m, std::int64_t n,
               std::int64_t k, T alpha, const T* b, std::int64_t ldb, T beta,
               T* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  auto scale_row = [&](T* crow) { scale_row_beta(beta, n, crow); };
  if (k <= 0) {
    parallel_for(m, kRowBlock, n * kElemCost, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) scale_row(c + i * ldc);
    });
    return;
  }
  // k-panels are the outer loop so a logically transposed B is gathered into
  // the packed scratch exactly once per panel and shared by every row task;
  // scratch stays bounded at kKBlock*n, never a full copy of B. The inner
  // axpy then always streams unit-stride memory. Per-element accumulation
  // order (k0 ascending, kk ascending) is independent of the row chunking,
  // preserving bit-exactness across thread counts. Scratch comes from the
  // thread-local arena: aligned, uninitialized (the pack loop overwrites
  // every element the inner loops read), reused across calls.
  ScratchArena::Scope scratch;
  T* bpack = tb == Trans::T ? scratch.alloc<T>(std::min(kKBlock, k) * n)
                            : nullptr;
  for (std::int64_t k0 = 0; k0 < k; k0 += kKBlock) {
    const std::int64_t kc = std::min(kKBlock, k - k0);
    const T* bpanel;
    std::int64_t bstride;
    if (tb == Trans::N) {
      bpanel = b + k0 * ldb;
      bstride = ldb;
    } else {
      pack_bt_panel(b, ldb, k0, kc, n, bpack);
      bpanel = bpack;
      bstride = n;
    }
    const auto apanel = opa.panel(k0, kc);
    parallel_for(m, kRowBlock, 2 * kc * n, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        T* crow = c + i * ldc;
        if (k0 == 0) scale_row(crow);
        const auto arow = apanel.row(i);
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          T av = arow[kk];
          if constexpr (SkipZero) {
            if (av == T{}) continue;
          }
          av *= alpha;
          const T* brow = bpanel + kk * bstride;
          for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
    });
  }
}

template <typename T, bool SkipZero>
void gemm_impl(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
               std::int64_t k, T alpha, const T* a, std::int64_t lda,
               const T* b, std::int64_t ldb, T beta, T* c, std::int64_t ldc) {
  gemm_impl<T, SkipZero>(DenseRead<T>{ta, a, lda}, tb, m, n, k, alpha, b, ldb,
                         beta, c, ldc);
}

// Planar complex gemm sharing the blocked structure of gemm_impl: k-panels
// outer so transposed/conjugated op(B) is packed once per panel into planar
// scratch, rows of C parallel inner. Per-element accumulation order is again
// (k0 ascending, kk ascending) regardless of chunking, so results are
// bit-exact across thread counts.
void cgemm_impl(CTrans ta, CTrans tb, std::int64_t m, std::int64_t n,
                std::int64_t k, const float* ar, const float* ai,
                std::int64_t lda, const float* br, const float* bi,
                std::int64_t ldb, float beta, float* cr, float* ci,
                std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  auto scale_row = [&](float* rrow, float* irow) {
    scale_row_beta(beta, n, rrow);
    scale_row_beta(beta, n, irow);
  };
  if (k <= 0) {
    parallel_for(m, kRowBlock, 2 * n * kElemCost, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) scale_row(cr + i * ldc, ci + i * ldc);
    });
    return;
  }
  ScratchArena::Scope scratch;
  const bool pack_b = tb != CTrans::N;
  float* bpack =
      pack_b ? scratch.alloc<float>(2 * std::min(kKBlock, k) * n) : nullptr;
  for (std::int64_t k0 = 0; k0 < k; k0 += kKBlock) {
    const std::int64_t kc = std::min(kKBlock, k - k0);
    const float *bpr, *bpi;
    std::int64_t bstride;
    if (!pack_b) {
      bpr = br + k0 * ldb;
      bpi = bi + k0 * ldb;
      bstride = ldb;
    } else {
      float* pr = bpack;
      float* pi = bpack + kc * n;
      const float isign = tb == CTrans::H ? -1.0f : 1.0f;
      parallel_for(kc, kRowBlock, 2 * n * kElemCost, [=](std::int64_t kk0, std::int64_t kk1) {
        for (std::int64_t j = 0; j < n; ++j) {
          const float* rcol = br + j * ldb + k0;
          const float* icol = bi + j * ldb + k0;
          for (std::int64_t kk = kk0; kk < kk1; ++kk) {
            pr[kk * n + j] = rcol[kk];
            pi[kk * n + j] = isign * icol[kk];
          }
        }
      });
      bpr = bpack;
      bpi = bpack + kc * n;
      bstride = n;
    }
    parallel_for(m, kRowBlock, 8 * kc * n, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        float* crow = cr + i * ldc;
        float* cirow = ci + i * ldc;
        if (k0 == 0) scale_row(crow, cirow);
        auto opa = [&](std::int64_t kk, float& re, float& im) {
          if (ta == CTrans::N) {
            re = ar[i * lda + k0 + kk];
            im = ai[i * lda + k0 + kk];
          } else {
            re = ar[(k0 + kk) * lda + i];
            im = ai[(k0 + kk) * lda + i];
            if (ta == CTrans::H) im = -im;
          }
        };
        std::int64_t kk = 0;
        // Two k-steps per pass: C's rows are read/written once per 16 flops
        // instead of per 8. Each element still accumulates in ascending kk
        // order (two separate += statements), and the pairing is a pure
        // function of the panel size, so thread-count bit-exactness holds.
        for (; kk + 1 < kc; kk += 2) {
          float a0, a0i, a1, a1i;
          opa(kk, a0, a0i);
          opa(kk + 1, a1, a1i);
          if (a0 == 0.0f && a0i == 0.0f && a1 == 0.0f && a1i == 0.0f) continue;
          const float* b0r = bpr + kk * bstride;
          const float* b0i = bpi + kk * bstride;
          const float* b1r = b0r + bstride;
          const float* b1i = b0i + bstride;
          for (std::int64_t j = 0; j < n; ++j) {
            float re = crow[j], im = cirow[j];
            re += a0 * b0r[j] - a0i * b0i[j];
            im += a0 * b0i[j] + a0i * b0r[j];
            re += a1 * b1r[j] - a1i * b1i[j];
            im += a1 * b1i[j] + a1i * b1r[j];
            crow[j] = re;
            cirow[j] = im;
          }
        }
        for (; kk < kc; ++kk) {
          float av, avi;
          opa(kk, av, avi);
          if (av == 0.0f && avi == 0.0f) continue;
          const float* brow = bpr + kk * bstride;
          const float* birow = bpi + kk * bstride;
          for (std::int64_t j = 0; j < n; ++j) {
            crow[j] += av * brow[j] - avi * birow[j];
            cirow[j] += av * birow[j] + avi * brow[j];
          }
        }
      }
    });
  }
}

// Fraction of zero entries in a stored [rows, cols] block (physical row
// stride ld). The scalar kernels skip zero operand entries — a huge win on
// hard permutation operands — while the SIMD tiles are branch-free; the
// rcgemm wrapper probes op(A)'s density and keeps sparse operands on the
// scalar path.
bool mostly_zero(const float* a, std::int64_t rows, std::int64_t cols,
                 std::int64_t ld) {
  // Verdict: >= 7/8 zeros, i.e. nonzeros * 8 <= rows * cols. Dense operands
  // (the common case in the training loop) cross the nonzero budget within
  // the first few rows, so the probe bails out early instead of scanning A.
  const std::int64_t budget = rows * cols;
  std::int64_t nonzero = 0;
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* row = a + i * ld;
    for (std::int64_t j = 0; j < cols; ++j) {
      if (row[j] != 0.0f && ++nonzero * 8 > budget) return false;
    }
  }
  return true;
}

}  // namespace

void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          float alpha, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float beta, float* c, std::int64_t ldc) {
  // Degenerate shapes (k <= 0 is a pure beta scale) stay on the scalar path
  // so the semantics are identical at every dispatch level.
  if (const KernelTable* t = active_kernels(); t && m > 0 && n > 0 && k > 0) {
    t->gemm_f32(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }
  gemm_impl<float, false>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

namespace detail {

int gemm_tn_split_chunks(std::int64_t m, std::int64_t n, std::int64_t k) {
  if (m <= 0 || n <= 0) return 1;
  // gemm fans its rows out on its own.
  if (size_threads(m, kRowBlock, 2 * std::min(kKBlock, k) * padded_cols(n)) >
      1) {
    return 1;
  }
  int chunks = 1;
  while (chunks < kSplitMaxChunks && k / (2 * chunks) >= kSplitMinRows) {
    chunks *= 2;
  }
  // The chunks pay only if their own launch can fan out.
  if (chunks > 1 &&
      size_threads(chunks, 1, 2 * (k / chunks) * padded_cols(n) * m) < 2) {
    return 1;
  }
  return chunks;
}

}  // namespace detail

namespace {

// gemm_tn_split's body over any A operand: `chunk(lo, hi, beta, out, ldo)`
// writes out = beta * out + A[lo:hi]^T @ G[lo:hi] for reduction rows
// [lo, hi).
template <typename ChunkGemm>
void tn_split(std::int64_t m, std::int64_t n, std::int64_t k, float beta,
              float* c, std::int64_t ldc, ChunkGemm chunk) {
  const int chunks = detail::gemm_tn_split_chunks(m, n, k);
  if (chunks < 2) {
    chunk(0, k, beta, c, ldc);
    return;
  }
  const std::int64_t mn = m * n;
  ScratchArena::Scope scratch;
  float* part = scratch.alloc<float>(chunks * mn);
  parallel_for(chunks, 1, 2 * (k / chunks) * padded_cols(n) * m,
               [=](std::int64_t c0, std::int64_t c1) {
                 for (std::int64_t ch = c0; ch < c1; ++ch) {
                   chunk(k * ch / chunks, k * (ch + 1) / chunks, 0.0f,
                         part + ch * mn, n);
                 }
               });
  // ShardedGradReducer's tree over ascending chunks: ((p0 + p1) + (p2 + p3))
  // + ((p4 + p5) + (p6 + p7)), element by element, then the beta epilogue.
  parallel_for(m, kRowBlock, chunks * n * kElemCost,
               [=](std::int64_t i0, std::int64_t i1) {
                 for (int stride = 1; stride < chunks; stride *= 2) {
                   for (int r = 0; r + stride < chunks; r += 2 * stride) {
                     float* left = part + r * mn;
                     const float* right = part + (r + stride) * mn;
                     for (std::int64_t e = i0 * n; e < i1 * n; ++e) {
                       left[e] += right[e];
                     }
                   }
                 }
                 for (std::int64_t i = i0; i < i1; ++i) {
                   const float* sum = part + i * n;
                   float* crow = c + i * ldc;
                   if (beta == 0.0f) {
                     std::copy(sum, sum + n, crow);
                   } else if (beta == 1.0f) {
                     for (std::int64_t j = 0; j < n; ++j) crow[j] += sum[j];
                   } else {
                     for (std::int64_t j = 0; j < n; ++j) {
                       crow[j] = beta * crow[j] + sum[j];
                     }
                   }
                 }
               });
}

}  // namespace

void gemm_tn_split(std::int64_t m, std::int64_t n, std::int64_t k,
                   const float* a, std::int64_t lda, const float* g,
                   std::int64_t ldg, float beta, float* c, std::int64_t ldc) {
  tn_split(m, n, k, beta, c, ldc,
           [=](std::int64_t lo, std::int64_t hi, float b, float* out,
               std::int64_t ldo) {
             gemm(Trans::T, Trans::N, m, n, hi - lo, 1.0f, a + lo * lda, lda,
                  g + lo * ldg, ldg, b, out, ldo);
           });
}

PackedGemmB pack_gemm_b(Trans tb, std::int64_t k, std::int64_t n,
                        const float* b, std::int64_t ldb) {
  PackedGemmB pb;
  pb.k = k;
  pb.n = n;
  const KernelTable* t = active_kernels();
  if (t == nullptr || k <= 0 || n <= 0) return pb;  // scalar: no packed path
  pb.level = static_cast<int>(simd_level());
  pb.panels.resize(static_cast<std::size_t>(t->gemm_packed_b_floats(k, n)));
  t->gemm_pack_b(tb, k, n, b, ldb, pb.panels.data());
  return pb;
}

void gemm_packed(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float* a, std::int64_t lda, Trans tb, const float* b,
                 std::int64_t ldb, const PackedGemmB& pb, float beta, float* c,
                 std::int64_t ldc) {
  const KernelTable* t = active_kernels();
  if (t != nullptr && m > 0 && n > 0 && k > 0 && !pb.panels.empty() &&
      pb.level == static_cast<int>(simd_level()) && pb.k == k && pb.n == n) {
    t->gemm_f32_packed(m, n, k, alpha, a, lda, pb.panels.data(), beta, c, ldc);
    return;
  }
  gemm(Trans::N, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void gemm_s8s8s32(std::int64_t m, std::int64_t n, std::int64_t k,
                  const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                  std::int64_t ldb, std::int32_t* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  // Scalar reference: ikj with int32 accumulation in C. Integer adds are
  // associative, so any tiling/threading of the same products matches this
  // bit for bit — the parity anchor for the SIMD drivers.
  parallel_for(m, kRowBlock, 2 * k * n, [=](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      std::int32_t* crow = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) crow[j] = 0;
      const std::int8_t* arow = a + i * lda;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const std::int32_t av = arow[kk];
        if (av == 0) continue;
        const std::int8_t* brow = b + kk * ldb;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
}

PackedGemmBS8 pack_gemm_b_s8(std::int64_t k, std::int64_t n,
                             const std::int8_t* b, std::int64_t ldb) {
  PackedGemmBS8 pb;
  pb.k = k;
  pb.n = n;
  const KernelTable* t = active_kernels();
  if (t == nullptr || k <= 0 || n <= 0) return pb;  // scalar: no packed path
  pb.level = static_cast<int>(simd_level());
  pb.panels.resize(static_cast<std::size_t>(t->gemm_s8_packed_b_bytes(k, n)));
  t->gemm_pack_b_s8(k, n, b, ldb, pb.panels.data());
  return pb;
}

void gemm_s8_packed(std::int64_t m, std::int64_t n, std::int64_t k,
                    const std::int8_t* a, std::int64_t lda,
                    const std::int8_t* b, std::int64_t ldb,
                    const PackedGemmBS8& pb, std::int32_t* c,
                    std::int64_t ldc) {
  const KernelTable* t = active_kernels();
  if (t != nullptr && m > 0 && n > 0 && k > 0 && !pb.panels.empty() &&
      pb.level == static_cast<int>(simd_level()) && pb.k == k && pb.n == n) {
    t->gemm_s8s8s32_packed(m, n, k, a, lda, pb.panels.data(), c, ldc);
    return;
  }
  gemm_s8s8s32(m, n, k, a, lda, b, ldb, c, ldc);
}

float absmax(std::size_t n, const float* x) {
  const KernelTable* t = active_kernels();
  if (t != nullptr) return t->absmax_f32(n, x);
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

void quantize_s8(std::size_t n, const float* x, float inv_scale,
                 std::int8_t* out) {
  const KernelTable* t = active_kernels();
  if (t != nullptr) {
    t->quantize_s8(n, x, inv_scale, out);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const long q = std::lrintf(x[i] * inv_scale);
    out[i] = static_cast<std::int8_t>(std::min<long>(127, std::max<long>(-127, q)));
  }
}

// Not dispatched: the double and complex<double> gemms run these blocked
// loops at every SIMD level (this TU compiles at the base ISA, so nothing
// contracts into an FMA), hence identical results at every level.
void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          double alpha, const double* a, std::int64_t lda, const double* b,
          std::int64_t ldb, double beta, double* c, std::int64_t ldc) {
  gemm_impl<double, true>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          std::complex<double> alpha, const std::complex<double>* a,
          std::int64_t lda, const std::complex<double>* b, std::int64_t ldb,
          std::complex<double> beta, std::complex<double>* c,
          std::int64_t ldc) {
  gemm_impl<std::complex<double>, true>(ta, tb, m, n, k, alpha, a, lda, b, ldb,
                                        beta, c, ldc);
}

void cgemm(CTrans ta, CTrans tb, std::int64_t m, std::int64_t n,
           std::int64_t k, const float* ar, const float* ai, std::int64_t lda,
           const float* br, const float* bi, std::int64_t ldb, float beta,
           float* cr, float* ci, std::int64_t ldc) {
  if (const KernelTable* t = active_kernels(); t && m > 0 && n > 0 && k > 0) {
    t->cgemm(ta, tb, m, n, k, ar, ai, lda, br, bi, ldb, beta, cr, ci, ldc);
    return;
  }
  cgemm_impl(ta, tb, m, n, k, ar, ai, lda, br, bi, ldb, beta, cr, ci, ldc);
}

void rcgemm(Trans ta, std::int64_t m, std::int64_t n, std::int64_t k,
            const float* a, std::int64_t lda, const float* br, const float* bi,
            std::int64_t ldb, float beta, float* cr, float* ci,
            std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (const KernelTable* t = active_kernels();
      t && k > 0 &&
      !mostly_zero(a, ta == Trans::N ? m : k, ta == Trans::N ? k : m, lda)) {
    t->rcgemm(ta, m, n, k, a, lda, br, bi, ldb, beta, cr, ci, ldc);
    return;
  }
  auto scale_row = [&](float* rrow, float* irow) {
    scale_row_beta(beta, n, rrow);
    scale_row_beta(beta, n, irow);
  };
  if (k <= 0) {
    parallel_for(m, kRowBlock, 2 * n * kElemCost, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) scale_row(cr + i * ldc, ci + i * ldc);
    });
    return;
  }
  for (std::int64_t k0 = 0; k0 < k; k0 += kKBlock) {
    const std::int64_t kc = std::min(kKBlock, k - k0);
    parallel_for(m, kRowBlock, 4 * kc * n, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        float* crow = cr + i * ldc;
        float* cirow = ci + i * ldc;
        if (k0 == 0) scale_row(crow, cirow);
        auto opa = [&](std::int64_t kk) {
          return ta == Trans::N ? a[i * lda + k0 + kk] : a[(k0 + kk) * lda + i];
        };
        std::int64_t kk = 0;
        // Same k-step pairing as cgemm: per-element accumulation stays in
        // ascending kk order, C rows touched half as often.
        for (; kk + 1 < kc; kk += 2) {
          const float a0 = opa(kk), a1 = opa(kk + 1);
          if (a0 == 0.0f && a1 == 0.0f) continue;
          const float* b0r = br + (k0 + kk) * ldb;
          const float* b0i = bi + (k0 + kk) * ldb;
          const float* b1r = b0r + ldb;
          const float* b1i = b0i + ldb;
          for (std::int64_t j = 0; j < n; ++j) {
            float re = crow[j], im = cirow[j];
            re += a0 * b0r[j];
            im += a0 * b0i[j];
            re += a1 * b1r[j];
            im += a1 * b1i[j];
            crow[j] = re;
            cirow[j] = im;
          }
        }
        for (; kk < kc; ++kk) {
          const float av = opa(kk);
          if (av == 0.0f) continue;
          const float* brow = br + (k0 + kk) * ldb;
          const float* birow = bi + (k0 + kk) * ldb;
          for (std::int64_t j = 0; j < n; ++j) {
            crow[j] += av * brow[j];
            cirow[j] += av * birow[j];
          }
        }
      }
    });
  }
}

void cgemm_batched(CTrans ta, CTrans tb, std::int64_t batch, std::int64_t m,
                   std::int64_t n, std::int64_t k, const float* ar,
                   const float* ai, std::int64_t stride_a, std::int64_t lda,
                   const float* br, const float* bi, std::int64_t stride_b,
                   std::int64_t ldb, float beta, float* cr, float* ci,
                   std::int64_t stride_c, std::int64_t ldc) {
  if (batch <= 0 || m <= 0 || n <= 0) return;
  if (const KernelTable* t = active_kernels(); t && k > 0) {
    t->cgemm_batched(ta, tb, batch, m, n, k, ar, ai, stride_a, lda, br, bi,
                     stride_b, ldb, beta, cr, ci, stride_c, ldc);
    return;
  }
  const std::int64_t rows = batch * m;
  auto scale_row = [&](float* rrow, float* irow) {
    scale_row_beta(beta, n, rrow);
    scale_row_beta(beta, n, irow);
  };
  if (k <= 0) {
    parallel_for(rows, kRowBlock, 2 * n * kElemCost, [&](std::int64_t r0, std::int64_t r1) {
      for (std::int64_t r = r0; r < r1; ++r) {
        const std::int64_t t = r / m, i = r % m;
        scale_row(cr + t * stride_c + i * ldc, ci + t * stride_c + i * ldc);
      }
    });
    return;
  }
  const bool shared_b = stride_b == 0;
  // Transposed/conjugated op(B) panels are packed into planar scratch per
  // k-panel — once for a shared operand, per batch item otherwise — so the
  // inner axpy always streams unit-stride memory, exactly like cgemm's pack
  // (identical packed values, so per-element products match a per-item
  // cgemm call bit for bit). The two-step k pairing below matches cgemm's
  // accumulation order, completing the bit-exactness guarantee.
  ScratchArena::Scope scratch;
  const bool pack_b = tb != CTrans::N;
  const std::int64_t kc_max = std::min(kKBlock, k);
  const std::int64_t pack_items = shared_b ? 1 : batch;
  float* bpack =
      pack_b ? scratch.alloc<float>(pack_items * 2 * kc_max * n) : nullptr;
  for (std::int64_t k0 = 0; k0 < k; k0 += kKBlock) {
    const std::int64_t kc = std::min(kKBlock, k - k0);
    if (pack_b) {
      const float isign = tb == CTrans::H ? -1.0f : 1.0f;
      float* pk = bpack;
      const std::int64_t cost = 2 * n * kElemCost;
      parallel_for(pack_items * kc, kRowBlock, cost, [=](std::int64_t q0, std::int64_t q1) {
        for (std::int64_t q = q0; q < q1; ++q) {
          const std::int64_t item = q / kc, kk = q % kc;
          const float* rb = br + item * stride_b;
          const float* ib = bi + item * stride_b;
          float* pr = pk + item * 2 * kc * n;
          float* pi = pr + kc * n;
          for (std::int64_t j = 0; j < n; ++j) {
            pr[kk * n + j] = rb[j * ldb + k0 + kk];
            pi[kk * n + j] = isign * ib[j * ldb + k0 + kk];
          }
        }
      });
    }
    parallel_for(rows, kRowBlock, 8 * kc * n, [&](std::int64_t r0, std::int64_t r1) {
      for (std::int64_t r = r0; r < r1; ++r) {
        const std::int64_t t = r / m, i = r % m;
        const float* tar = ar + t * stride_a;
        const float* tai = ai + t * stride_a;
        float* crow = cr + t * stride_c + i * ldc;
        float* cirow = ci + t * stride_c + i * ldc;
        if (k0 == 0) scale_row(crow, cirow);
        const float *bpr, *bpi;
        std::int64_t bstride;
        if (pack_b) {
          bpr = bpack + (shared_b ? 0 : t * 2 * kc * n);
          bpi = bpr + kc * n;
          bstride = n;
        } else {
          bpr = br + t * stride_b + k0 * ldb;
          bpi = bi + t * stride_b + k0 * ldb;
          bstride = ldb;
        }
        auto opa = [&](std::int64_t kk, float& re, float& im) {
          if (ta == CTrans::N) {
            re = tar[i * lda + k0 + kk];
            im = tai[i * lda + k0 + kk];
          } else {
            re = tar[(k0 + kk) * lda + i];
            im = tai[(k0 + kk) * lda + i];
            if (ta == CTrans::H) im = -im;
          }
        };
        std::int64_t kk = 0;
        // Same two-k-step pairing as cgemm: per-element accumulation in
        // ascending kk order with two += per pass — required for the
        // bit-exactness guarantee against per-item cgemm calls.
        for (; kk + 1 < kc; kk += 2) {
          float a0, a0i, a1, a1i;
          opa(kk, a0, a0i);
          opa(kk + 1, a1, a1i);
          if (a0 == 0.0f && a0i == 0.0f && a1 == 0.0f && a1i == 0.0f) continue;
          const float* b0r = bpr + kk * bstride;
          const float* b0i = bpi + kk * bstride;
          const float* b1r = b0r + bstride;
          const float* b1i = b0i + bstride;
          for (std::int64_t j = 0; j < n; ++j) {
            float re = crow[j], im = cirow[j];
            re += a0 * b0r[j] - a0i * b0i[j];
            im += a0 * b0i[j] + a0i * b0r[j];
            re += a1 * b1r[j] - a1i * b1i[j];
            im += a1 * b1i[j] + a1i * b1r[j];
            crow[j] = re;
            cirow[j] = im;
          }
        }
        for (; kk < kc; ++kk) {
          float av, avi;
          opa(kk, av, avi);
          if (av == 0.0f && avi == 0.0f) continue;
          const float* brow = bpr + kk * bstride;
          const float* birow = bpi + kk * bstride;
          for (std::int64_t j = 0; j < n; ++j) {
            crow[j] += av * brow[j] - avi * birow[j];
            cirow[j] += av * birow[j] + avi * brow[j];
          }
        }
      }
    });
  }
}

void sincos(std::int64_t n, const float* x, float* cos_out, float* sin_out) {
  if (const KernelTable* t = active_kernels()) {
    t->sincos(n, x, cos_out, sin_out);
    return;
  }
  parallel_for(n, detail::kElemGrain, 4 * kElemCost, [=](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      cos_out[i] = std::cos(x[i]);
      sin_out[i] = std::sin(x[i]);
    }
  });
}

void softmax_rows(std::int64_t rows, std::int64_t cols, const float* a,
                  float* out) {
  if (const KernelTable* t = active_kernels()) {
    t->softmax_rows(rows, cols, a, out);
    return;
  }
  // The pre-SIMD autograd loop, verbatim: per-row max subtraction, exp into
  // the output, double-accumulated normalizer.
  const std::int64_t grain =
      std::max<std::int64_t>(1, 1024 / std::max<std::int64_t>(cols, 1));
  parallel_for(rows, grain, 4 * cols * kElemCost, [=](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      float mx = -std::numeric_limits<float>::infinity();
      for (std::int64_t j = 0; j < cols; ++j) mx = std::max(mx, a[i * cols + j]);
      double z = 0.0;
      for (std::int64_t j = 0; j < cols; ++j) {
        const float e = std::exp(a[i * cols + j] - mx);
        out[i * cols + j] = e;
        z += e;
      }
      const float inv = static_cast<float>(1.0 / z);
      for (std::int64_t j = 0; j < cols; ++j) out[i * cols + j] *= inv;
    }
  });
}

void log_softmax_rows(std::int64_t rows, std::int64_t cols, const float* a,
                      float* out) {
  if (const KernelTable* t = active_kernels()) {
    t->log_softmax_rows(rows, cols, a, out);
    return;
  }
  const std::int64_t grain =
      std::max<std::int64_t>(1, 1024 / std::max<std::int64_t>(cols, 1));
  parallel_for(rows, grain, 4 * cols * kElemCost, [=](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      float mx = -std::numeric_limits<float>::infinity();
      for (std::int64_t j = 0; j < cols; ++j) mx = std::max(mx, a[i * cols + j]);
      double z = 0.0;
      for (std::int64_t j = 0; j < cols; ++j) z += std::exp(a[i * cols + j] - mx);
      const float lz = mx + static_cast<float>(std::log(z));
      for (std::int64_t j = 0; j < cols; ++j) out[i * cols + j] = a[i * cols + j] - lz;
    }
  });
}

// Shared element-type-generic body for im2col / im2col_s8: patch gathering
// is pure data movement, so the int8 serving variant is the same routine
// over 1-byte elements (a quarter of the scratch traffic).
template <typename T>
void im2col_impl(const T* x, std::int64_t n, std::int64_t c, std::int64_t h,
                 std::int64_t w, std::int64_t kh, std::int64_t kw,
                 std::int64_t stride, std::int64_t pad, T* out) {
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - kw) / stride + 1;
  const std::int64_t cols = c * kh * kw;
  const std::int64_t rows = n * oh * ow;
  // Fixed-size copy width for the unclipped fast path below. A
  // variable-length memcpy of a handful of elements is a libc call per tap
  // group (tens of thousands per conv); a fixed-size one compiles to one or
  // two plain moves.
  constexpr std::int64_t kFix = sizeof(T) == 1 ? 16 : 32;
  const std::int64_t row_bytes = cols * static_cast<std::int64_t>(sizeof(T));
  const std::int64_t x_bytes =
      n * c * h * w * static_cast<std::int64_t>(sizeof(T));
  // One output row per patch; rows are independent, so parallelize there.
  // With padding, zero whole chunks up front (one large fill beats a per-row
  // fill by ~3x), then gather only the in-image taps. Without padding no tap
  // can be clipped, so the gather writes every element and the fill goes.
  const bool clipped = pad > 0;
  const std::int64_t cost = cols * kElemCost;
  parallel_for(rows, std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(cols, 1)), cost,
               [=](std::int64_t r0, std::int64_t r1) {
                 if (clipped) std::fill(out + r0 * cols, out + r1 * cols, T{0});
                 for (std::int64_t row = r0; row < r1; ++row) {
                   T* orow = out + row * cols;
                   const std::int64_t xo = row % ow;
                   const std::int64_t yo = (row / ow) % oh;
                   const std::int64_t ni = row / (ow * oh);
                   // Clip the tap window once per row so the copy loops are
                   // branch-free (out-of-image taps stay at the fill's 0).
                   const std::int64_t x0 = xo * stride - pad;
                   const std::int64_t y0 = yo * stride - pad;
                   const std::int64_t kx_lo = std::max<std::int64_t>(0, -x0);
                   const std::int64_t kx_hi = std::min(kw, w - x0);
                   const std::int64_t ky_lo = std::max<std::int64_t>(0, -y0);
                   const std::int64_t ky_hi = std::min(kh, h - y0);
                   if (kx_hi <= kx_lo) continue;  // window fully clipped
                   // Unclipped rows (always, for pad == 0) take the
                   // fixed-size copy: the extra bytes past kw spill into tap
                   // groups this same row writes LATER in ascending order,
                   // so they are overwritten with their real values — valid
                   // only because no group in the row is clip-skipped. Dst
                   // and src bounds checks keep the spill inside this output
                   // row and inside the input tensor.
                   const bool interior = kx_lo == 0 && kx_hi == kw &&
                                         ky_lo == 0 && ky_hi == kh &&
                                         kw * static_cast<std::int64_t>(
                                                  sizeof(T)) <= kFix;
                   for (std::int64_t ci = 0; ci < c; ++ci) {
                     const T* xplane = x + (ni * c + ci) * h * w;
                     for (std::int64_t ky = ky_lo; ky < ky_hi; ++ky) {
                       const T* xrow = xplane + (y0 + ky) * w + x0;
                       T* opatch = orow + (ci * kh + ky) * kw;
                       if (interior) {
                         const std::int64_t dst_off =
                             ((ci * kh + ky) * kw) *
                             static_cast<std::int64_t>(sizeof(T));
                         const std::int64_t src_off =
                             ((ni * c + ci) * h * w + (y0 + ky) * w + x0) *
                             static_cast<std::int64_t>(sizeof(T));
                         if (dst_off + kFix <= row_bytes &&
                             src_off + kFix <= x_bytes) {
                           std::memcpy(opatch, xrow,
                                       static_cast<std::size_t>(kFix));
                           continue;
                         }
                       }
                       std::memcpy(opatch + kx_lo, xrow + kx_lo,
                                   static_cast<std::size_t>(kx_hi - kx_lo) *
                                       sizeof(T));
                     }
                   }
                 }
               });
}

void im2col(const float* x, std::int64_t n, std::int64_t c, std::int64_t h,
            std::int64_t w, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* out) {
  im2col_impl(x, n, c, h, w, kh, kw, stride, pad, out);
}

void im2col_s8(const std::int8_t* x, std::int64_t n, std::int64_t c,
               std::int64_t h, std::int64_t w, std::int64_t kh,
               std::int64_t kw, std::int64_t stride, std::int64_t pad,
               std::int8_t* out) {
  im2col_impl(x, n, c, h, w, kh, kw, stride, pad, out);
}

namespace {

// Scatters one image's columns [oh*ow, c*kh*kw] into its gradient planes
// gx [c, h, w], pixel rows in ascending order, taps in (ci, ky, kx) order,
// out-of-image taps skipped: the order every col2im caller accumulates in.
void col2im_image(const float* cols_data, std::int64_t c, std::int64_t h,
                  std::int64_t w, std::int64_t kh, std::int64_t kw,
                  std::int64_t stride, std::int64_t pad, std::int64_t oh,
                  std::int64_t ow, float* gx) {
  const std::int64_t cols = c * kh * kw;
  for (std::int64_t yo = 0; yo < oh; ++yo) {
    for (std::int64_t xo = 0; xo < ow; ++xo) {
      const float* crow = cols_data + (yo * ow + xo) * cols;
      const std::int64_t x0 = xo * stride - pad;
      const std::int64_t y0 = yo * stride - pad;
      const std::int64_t kx_lo = std::max<std::int64_t>(0, -x0);
      const std::int64_t kx_hi = std::min(kw, w - x0);
      const std::int64_t ky_lo = std::max<std::int64_t>(0, -y0);
      const std::int64_t ky_hi = std::min(kh, h - y0);
      for (std::int64_t ci = 0; ci < c; ++ci) {
        float* gplane = gx + ci * h * w;
        for (std::int64_t ky = ky_lo; ky < ky_hi; ++ky) {
          float* grow = gplane + (y0 + ky) * w + x0;
          const float* cpatch = crow + (ci * kh + ky) * kw;
          for (std::int64_t kx = kx_lo; kx < kx_hi; ++kx) {
            grow[kx] += cpatch[kx];
          }
        }
      }
    }
  }
}

}  // namespace

void col2im(const float* cols_data, std::int64_t n, std::int64_t c,
            std::int64_t h, std::int64_t w, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* gx) {
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - kw) / stride + 1;
  const std::int64_t cols = c * kh * kw;
  // Overlapping patches within one image write the same gx pixels, so the
  // batch index is the only safe parallel dimension.
  for_each_index(
      n,
      [=](std::int64_t ni) {
        col2im_image(cols_data + ni * oh * ow * cols, c, h, w, kh, kw, stride,
                     pad, oh, ow, gx + ni * c * h * w);
      },
      /*grain=*/1, oh * ow * cols * kElemCost);
}

namespace {

// Builds the patch operand of `s` over x in the caller's scope: the input
// zero-padded into scratch when s.pad > 0 (padded zeros are the values
// im2col writes for clipped taps), and the tap-offset table.
ConvPatches make_patches(const ConvShape& s, const float* x,
                         ScratchArena::Scope& scope) {
  const std::int64_t hp = s.h + 2 * s.pad, wp = s.w + 2 * s.pad;
  ConvPatches p;
  p.x = x;
  if (s.pad > 0) {
    float* xp = scope.alloc<float>(s.n * s.c * hp * wp);
    const std::int64_t h = s.h, w = s.w, pad = s.pad;
    parallel_for(s.n * s.c, 1, hp * wp * kElemCost,
                 [=](std::int64_t q0, std::int64_t q1) {
                   for (std::int64_t q = q0; q < q1; ++q) {
                     float* dst = xp + q * hp * wp;
                     const float* src = x + q * h * w;
                     std::fill(dst, dst + pad * wp, 0.0f);
                     for (std::int64_t y = 0; y < h; ++y) {
                       float* drow = dst + (pad + y) * wp;
                       std::fill(drow, drow + pad, 0.0f);
                       std::copy(src + y * w, src + (y + 1) * w, drow + pad);
                       std::fill(drow + pad + w, drow + wp, 0.0f);
                     }
                     std::fill(dst + (pad + h) * wp, dst + hp * wp, 0.0f);
                   }
                 });
    p.x = xp;
  }
  const std::int64_t fan_in = s.fan_in();
  std::int64_t* tap = scope.alloc<std::int64_t>(fan_in);
  for (std::int64_t ci = 0; ci < s.c; ++ci) {
    for (std::int64_t ky = 0; ky < s.k; ++ky) {
      for (std::int64_t kx = 0; kx < s.k; ++kx) {
        tap[(ci * s.k + ky) * s.k + kx] = (ci * hp + ky) * wp + kx;
      }
    }
  }
  p.tap = tap;
  p.fan_in = fan_in;
  p.oh = s.oh();
  p.ow = s.ow();
  p.stride = s.stride;
  p.wp = wp;
  p.image = s.c * hp * wp;
  return p;
}

// conv2d_forward's store: gemm rows [r0, r0 + m) (acc, [m, out_c]) into
// NCHW y, one output channel at a time so writes run along the y plane.
// Each value takes the epilogue expressions in the order the separate tape
// ops and plan steps evaluate them: + bias, the BN affine, ReLU.
void conv_store(const ConvShape& s, const ConvEpilogue& ep, std::int64_t r0,
                std::int64_t m, const float* acc, float* y) {
  const std::int64_t ohow = s.oh() * s.ow(), out_c = s.out_c;
  const bool bn = ep.mu != nullptr;
  for (std::int64_t r = r0; r < r0 + m;) {
    const std::int64_t ni = r / ohow, p0 = r - ni * ohow;
    const std::int64_t p1 = std::min(ohow, p0 + (r0 + m - r));
    const float* arow = acc + (r - r0) * out_c;
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      float* dplane = y + (ni * out_c + oc) * ohow;
      const float bc = ep.bias != nullptr ? ep.bias[oc] : 0.0f;
      const float mu = bn ? ep.mu[oc] : 0.0f;
      const float is = bn ? ep.invstd[oc] : 0.0f;
      const float ga = bn ? ep.gamma[oc] : 0.0f;
      const float be = bn ? ep.beta[oc] : 0.0f;
      for (std::int64_t p = p0; p < p1; ++p) {
        float v = arow[(p - p0) * out_c + oc];
        if (ep.bias != nullptr) v += bc;
        if (bn) v = (v - mu) * is * ga + be;
        if (ep.relu) v = v > 0.0f ? v : 0.0f;
        dplane[p] = v;
      }
    }
    r += p1 - p0;
  }
}

}  // namespace

void conv2d_forward(const ConvShape& s, const float* x, Trans tb,
                    const float* b, std::int64_t ldb, const PackedGemmB* pb,
                    const ConvEpilogue& ep, float* y) {
  const std::int64_t rows = s.rows(), fan_in = s.fan_in(), out_c = s.out_c;
  if (rows <= 0 || out_c <= 0) return;
  ScratchArena::Scope scope;
  const ConvPatches p = make_patches(s, x, scope);
  const KernelTable* t = active_kernels();
  const float* panels = nullptr;
  if (t != nullptr) {
    if (pb != nullptr && !pb->panels.empty() &&
        pb->level == static_cast<int>(simd_level()) && pb->k == fan_in &&
        pb->n == out_c) {
      panels = pb->panels.data();
    } else {
      float* pk = scope.alloc<float>(t->gemm_packed_b_floats(fan_in, out_c));
      t->gemm_pack_b(tb, fan_in, out_c, b, ldb, pk);
      panels = pk;
    }
  }
  // One launch over blocks of kRowBlock patch rows, each running every
  // k-panel of its rows and then its store, so a block's gemm output stays
  // in the worker's cache. Rows are independent, so the blocking is
  // bit-exact against one gemm over all rows.
  parallel_for(rows, kRowBlock, 2 * fan_in * padded_cols(out_c),
               [&](std::int64_t r0, std::int64_t r1) {
                 ScratchArena::Scope ws;
                 float* acc = ws.alloc<float>(kRowBlock * out_c);
                 for (std::int64_t b0 = r0; b0 < r1; b0 += kRowBlock) {
                   const std::int64_t m = std::min(kRowBlock, r1 - b0);
                   if (t != nullptr) {
                     t->conv_gemm_f32(p, b0, m, out_c, panels, acc, out_c);
                   } else {
                     gemm_impl<float, false>(PatchRead{&p, b0, Trans::N}, tb,
                                             m, out_c, fan_in, 1.0f, b, ldb,
                                             0.0f, acc, out_c);
                   }
                   conv_store(s, ep, b0, m, acc, y);
                 }
               });
}

void conv2d_backward(const ConvShape& s, const float* x, const float* w,
                     const float* gy, float* gw, float* gbias, float* gx) {
  const std::int64_t rows = s.rows(), fan_in = s.fan_in(), out_c = s.out_c;
  const std::int64_t ohow = s.oh() * s.ow();
  if (rows <= 0 || out_c <= 0) return;
  ScratchArena::Scope scope;
  // dY, the gemm-row-major [rows, out_c] view of gy, once for all three.
  float* dy = scope.alloc<float>(rows * out_c);
  for_each_index(
      s.n,
      [=](std::int64_t ni) {
        const float* gimg = gy + ni * out_c * ohow;
        float* dimg = dy + ni * ohow * out_c;
        for (std::int64_t oc = 0; oc < out_c; ++oc) {
          for (std::int64_t q = 0; q < ohow; ++q) {
            dimg[q * out_c + oc] = gimg[oc * ohow + q];
          }
        }
      },
      /*grain=*/1, ohow * out_c * kElemCost);
  if (gbias != nullptr) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* drow = dy + r * out_c;
      for (std::int64_t oc = 0; oc < out_c; ++oc) gbias[oc] += drow[oc];
    }
  }
  const KernelTable* t = active_kernels();
  if (gw != nullptr) {
    // dW^T [fan_in, out_c] = patches^T @ dY in gemm_tn_split's chunking,
    // then added transposed into gw [out_c, fan_in].
    ScratchArena::Scope wscope;
    const ConvPatches p = make_patches(s, x, wscope);
    float* gwt = wscope.alloc<float>(fan_in * out_c);
    tn_split(fan_in, out_c, rows, 0.0f, gwt, out_c,
             [&](std::int64_t lo, std::int64_t hi, float beta, float* out,
                 std::int64_t ldo) {
               if (t != nullptr) {
                 t->conv_gemm_tn_f32(p, lo, hi - lo, out_c, dy + lo * out_c,
                                     out_c, beta, out, ldo);
               } else {
                 gemm_impl<float, false>(PatchRead{&p, lo, Trans::T},
                                         Trans::N, fan_in, out_c, hi - lo,
                                         1.0f, dy + lo * out_c, out_c, beta,
                                         out, ldo);
               }
             });
    for_each_index(
        out_c,
        [=](std::int64_t oc) {
          for (std::int64_t i = 0; i < fan_in; ++i) {
            gw[oc * fan_in + i] += gwt[i * out_c + oc];
          }
        },
        /*grain=*/std::max<std::int64_t>(1, 2048 / fan_in),
        fan_in * kElemCost);
  }
  if (gx != nullptr) {
    // dX one image at a time: its columns dY_img @ W into the worker's
    // scratch (W packed once), scattered as col2im scatters them.
    const float* panels = nullptr;
    if (t != nullptr) {
      float* pk = scope.alloc<float>(t->gemm_packed_b_floats(out_c, fan_in));
      t->gemm_pack_b(Trans::N, out_c, fan_in, w, fan_in, pk);
      panels = pk;
    }
    const ConvShape shape = s;
    for_each_index(
        s.n,
        [=](std::int64_t ni) {
          ScratchArena::Scope iscope;
          float* cols = iscope.alloc<float>(ohow * fan_in);
          const float* dimg = dy + ni * ohow * out_c;
          if (panels != nullptr) {
            t->gemm_f32_packed(ohow, fan_in, out_c, 1.0f, dimg, out_c, panels,
                               0.0f, cols, fan_in);
          } else {
            gemm_impl<float, false>(Trans::N, Trans::N, ohow, fan_in, out_c,
                                    1.0f, dimg, out_c, w, fan_in, 0.0f, cols,
                                    fan_in);
          }
          col2im_image(cols, shape.c, shape.h, shape.w, shape.k, shape.k,
                       shape.stride, shape.pad, shape.oh(), shape.ow(),
                       gx + ni * shape.c * shape.h * shape.w);
        },
        /*grain=*/1,
        ohow * (2 * out_c * padded_cols(fan_in) + fan_in * kElemCost));
  }
}

double reduce_sum(const float* a, std::size_t n) {
  constexpr std::int64_t kBlock = 8192;
  const std::int64_t total = static_cast<std::int64_t>(n);
  if (total <= kBlock) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < total; ++i) acc += a[i];
    return acc;
  }
  const std::int64_t blocks = (total + kBlock - 1) / kBlock;
  std::vector<double> partial(static_cast<std::size_t>(blocks), 0.0);
  parallel_for(blocks, 1, kBlock * kElemCost, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t bi = b0; bi < b1; ++bi) {
      const std::int64_t lo = bi * kBlock;
      const std::int64_t hi = std::min(lo + kBlock, total);
      double acc = 0.0;
      for (std::int64_t i = lo; i < hi; ++i) acc += a[i];
      partial[static_cast<std::size_t>(bi)] = acc;
    }
  });
  double acc = 0.0;
  for (double p : partial) acc += p;
  return acc;
}

}  // namespace adept::backend
