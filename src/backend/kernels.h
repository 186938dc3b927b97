// Dense kernel layer shared by the autograd ops and the photonic linear
// algebra: cache-blocked threaded GEMM with logical transpose variants, fused
// elementwise map/zip kernels, deterministic reductions, and the implicit-
// GEMM convolution of the CNN proxy (forward and backward, no im2col
// matrix). The float kernels dispatch to SIMD microkernels
// (dispatch.h); the double and complex<double> gemms do not.
//
// Every kernel partitions work over disjoint output ranges with chunk
// boundaries that depend only on the problem size (see parallel.h), so
// results are bit-exact across thread counts. The one kernel that splits a
// reduction instead, gemm_tn_split (long-k weight gradients), does so with
// size-only chunk boundaries and sums its partials in a fixed tree: a
// second size-only reduction order, bit-exact across thread counts too.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "backend/parallel.h"

namespace adept::backend {

// Logical operand layout for gemm: N uses the array as stored, T applies a
// transpose through the index map — the data is never copied into a
// materialized transpose visible to the caller.
enum class Trans { N, T };

// Complex operand layout: N as stored, T logical transpose, H conjugate
// transpose (the variant complex-matmul backward needs: dA = G B^H,
// dB = A^H G).
enum class CTrans { N, T, H };

// C = alpha * op(A) @ op(B) + beta * C, all row-major. op(A) is [m, k],
// op(B) is [k, n], C is [m, n]. `lda`/`ldb`/`ldc` are the physical row
// strides of the stored arrays (for a Trans::T operand the stride of the
// array as laid out in memory, not of its logical view).
void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          float alpha, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float beta, float* c, std::int64_t ldc);
// Weight-gradient product over a long reduction: C = beta * C + A^T @ G,
// with A stored [k, m] (row stride lda), G [k, n] (row stride ldg) and C
// [m, n]. This is `ag::matmul`'s dB, i.e. every conv and linear weight
// gradient, whose reduction runs over the batch (times the output pixels).
// gemm splits only output rows, and a conv dW has few of them (C*kh*kw), so
// where gemm's per-k-panel row launch cannot fan out, a long reduction is
// split instead: into a power-of-two number of chunks (at most 8) of at
// least a minimum number of rows, with boundaries k*c/chunks as in
// comm::shard_range, provided the chunks carry the work to fan out. Each chunk's gemm(T, N) writes a partial product (a
// nested launch runs inline), and the partials are summed in the fixed
// pairwise tree of comm::ShardedGradReducer. Every other shape runs
// gemm(T, N, m, n, k, 1, ...) unchanged. The decision and the chunking read
// only (m, n, k) — never the thread budget, the SIMD level or the rank — so
// this is the second, size-only reduction order next to gemm's: results are
// identical at every thread and rank count. With beta == 0, C is never read.
void gemm_tn_split(std::int64_t m, std::int64_t n, std::int64_t k,
                   const float* a, std::int64_t lda, const float* g,
                   std::int64_t ldg, float beta, float* c, std::int64_t ldc);

// Double precision for the K x K circuit model and SPL's Procrustes step:
// blocked loops that skip zero entries of op(A) (permutation factors are
// mostly zeros), run at every SIMD level, so results are identical at every
// level.
void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          double alpha, const double* a, std::int64_t lda, const double* b,
          std::int64_t ldb, double beta, double* c, std::int64_t ldc);
void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          std::complex<double> alpha, const std::complex<double>* a,
          std::int64_t lda, const std::complex<double>* b, std::int64_t ldb,
          std::complex<double> beta, std::complex<double>* c, std::int64_t ldc);

// Pre-packed right operand for the float gemm — the frozen-weight serving
// path (runtime::CompiledModel). `pack_gemm_b` materializes op(B)'s k-panels
// in the ACTIVE dispatch level's layout once; `gemm_packed` then skips the
// per-call pack. Results are bit-identical to gemm(): the panel contents and
// microkernel call sequence do not change, only when the packing happens.
// When the active level has no packed path (scalar dispatch), or the level
// changed between packing and use (ADEPT_SIMD / SimdScope), gemm_packed
// falls back to the plain gemm using the raw `b` the caller still owns.
struct PackedGemmB {
  std::int64_t k = 0, n = 0;
  int level = -1;              // SimdLevel the panels target (-1 = none)
  std::vector<float> panels;   // [k-panel][tile][kc][16], zero-padded tails
};

PackedGemmB pack_gemm_b(Trans tb, std::int64_t k, std::int64_t n,
                        const float* b, std::int64_t ldb);

// C = alpha * A @ op(B) + beta * C with A [m, k] row-major (Trans::N).
// `b`/`ldb` describe the unpacked operand for the fallback path.
void gemm_packed(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float* a, std::int64_t lda, Trans tb, const float* b,
                 std::int64_t ldb, const PackedGemmB& pb, float beta, float* c,
                 std::int64_t ldc);

// ---- int8 quantized serving path ------------------------------------------
//
// The quantized CompiledModel execution mode (runtime/plan.h) runs its gemms
// on int8 operands with exact int32 accumulation and dequantizes on store.
// Because integer addition is associative, every dispatch level, thread
// count, and tiling produces IDENTICAL bits — tests ASSERT_EQ the int32
// output across scalar/avx2/avx512 (no float-style tolerance tiers).

// C = A @ B with A [m, k] row-major int8, B [k, n] row-major int8, C [m, n]
// int32 (overwritten, no beta). Safe against int32 overflow for any
// k <= 2^17 with s8-range operands (|a*b| <= 127*127).
void gemm_s8s8s32(std::int64_t m, std::int64_t n, std::int64_t k,
                  const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                  std::int64_t ldb, std::int32_t* c, std::int64_t ldc);

// Pre-packed right operand for the int8 gemm, the quantized analogue of
// PackedGemmB: freeze-time weights are packed once into the active level's
// interleaved k-pair panel layout (the _mm256_madd_epi16 operand order).
// Scalar dispatch has no packed layout (level -1, empty panels); the packed
// driver then falls back to gemm_s8s8s32 on the raw `b` — identical bits
// either way.
struct PackedGemmBS8 {
  std::int64_t k = 0, n = 0;
  int level = -1;                    // SimdLevel the panels target (-1 = none)
  std::vector<std::int8_t> panels;   // [tile][k-pair][16 cols x 2 ks], zero-padded
};

PackedGemmBS8 pack_gemm_b_s8(std::int64_t k, std::int64_t n,
                             const std::int8_t* b, std::int64_t ldb);

// gemm_s8s8s32 with op(B) pre-packed; `b`/`ldb` describe the unpacked
// operand for the fallback path (scalar level, or level changed since pack).
void gemm_s8_packed(std::int64_t m, std::int64_t n, std::int64_t k,
                    const std::int8_t* a, std::int64_t lda,
                    const std::int8_t* b, std::int64_t ldb,
                    const PackedGemmBS8& pb, std::int32_t* c, std::int64_t ldc);

// max |x[i]| over n floats (0 for n == 0). Dispatched, but bit-exact at
// every level — max is order-independent — so the quantization *decision*
// never depends on the SIMD level.
float absmax(std::size_t n, const float* x);

// out[i] = clamp(round-to-nearest-even(x[i] * inv_scale), -127, 127).
// Dispatched; exact at every level because the vector float->int32 convert
// rounds to nearest-even exactly like std::lrintf under the default
// rounding mode (asserted across levels in tests/test_plan.cpp).
void quantize_s8(std::size_t n, const float* x, float inv_scale,
                 std::int8_t* out);

// Fused complex float gemm over split re/im planar operands:
//   C = op(A) @ op(B) + beta * C   (both planes)
// op(A) is [m, k], op(B) is [k, n]; `lda`/`ldb`/`ldc` are the physical row
// strides of the stored planes (re and im share one layout). One blocked
// traversal produces both output planes, so memory traffic is ~half of the
// four-real-gemm lowering. Deterministic across thread counts like `gemm`.
void cgemm(CTrans ta, CTrans tb, std::int64_t m, std::int64_t n,
           std::int64_t k, const float* ar, const float* ai, std::int64_t lda,
           const float* br, const float* bi, std::int64_t ldb, float beta,
           float* cr, float* ci, std::int64_t ldc);

// Real-by-complex gemm: C = op(A) @ B + beta * C with A real [m, k] and B a
// planar complex [k, n]; one traversal of A feeds both output planes.
void rcgemm(Trans ta, std::int64_t m, std::int64_t n, std::int64_t k,
            const float* a, std::int64_t lda, const float* br, const float* bi,
            std::int64_t ldb, float beta, float* cr, float* ci,
            std::int64_t ldc);

// Batched planar complex gemm: C[t] = op(A[t]) @ op(B[t]) + beta * C[t] for
// t in [0, batch). Operand planes are [batch, m, k] / [batch, k, n] stacks
// with physical batch strides `stride_a` / `stride_b` (rows inside one item
// stride by `lda` / `ldb`); a batch stride of 0 shares that operand across
// the whole batch (a shared transposed/conjugated op(B) is packed once per
// k-panel for all batch items). The row/k chunking spans the whole
// [batch*m] row space so tiny per-tile products still fill whole chunks, and
// the per-element accumulation order (two-step k pairing) is identical to
// `cgemm`, making a batched call bit-exact against per-item cgemm calls at
// any thread count.
void cgemm_batched(CTrans ta, CTrans tb, std::int64_t batch, std::int64_t m,
                   std::int64_t n, std::int64_t k, const float* ar,
                   const float* ai, std::int64_t stride_a, std::int64_t lda,
                   const float* br, const float* bi, std::int64_t stride_b,
                   std::int64_t ldb, float beta, float* cr, float* ci,
                   std::int64_t stride_c, std::int64_t ldc);

// Simultaneous cos/sin of a phase vector — the exp(-i*phi) table feeding the
// phase-column ops. SIMD levels use a Cephes-style
// polynomial (~1-2 ulp vs libm for |x| < 8192, libm fallback per lane
// beyond); the scalar level is a plain std::cos/std::sin loop.
void sincos(std::int64_t n, const float* x, float* cos_out, float* sin_out);

// Row-wise softmax / log-softmax forward over a [rows, cols] matrix
// (max-subtracted, exp vectorized at SIMD levels). The scalar level keeps
// the pre-SIMD double-accumulator loop bit for bit.
void softmax_rows(std::int64_t rows, std::int64_t cols, const float* a,
                  float* out);
void log_softmax_rows(std::int64_t rows, std::int64_t cols, const float* a,
                      float* out);

// ---- convolution ------------------------------------------------------------
//
// An NCHW conv with a square kernel is a gemm whose A operand is the patch
// matrix im2col would build, [n*oh*ow, c*k*k] with row (image, yo, xo) and
// column (ci, ky, kx). The conv kernels never build it: the gemm driver
// reads A[r][kk] = x[row_base(r) + tap(kk)] straight from the input
// (implicit GEMM), zero-padded once when pad > 0. Every value reaching the
// microkernels is the one the materialized matrix holds, and the k order of
// every accumulation is gemm's, so results are bit-identical to im2col +
// gemm (+ col2im) at every SIMD level and thread count.

struct ConvShape {
  std::int64_t n = 0, c = 0, h = 0, w = 0;  // input [n, c, h, w]
  std::int64_t k = 1, stride = 1, pad = 0;  // k x k kernel
  std::int64_t out_c = 0;
  std::int64_t oh() const { return (h + 2 * pad - k) / stride + 1; }
  std::int64_t ow() const { return (w + 2 * pad - k) / stride + 1; }
  std::int64_t fan_in() const { return c * k * k; }
  std::int64_t rows() const { return n * oh() * ow(); }
};

// Per-output-channel store of conv2d_forward, applied in this order, each
// stage skipped when its pointer is null: v += bias; v = (v - mu) * invstd *
// gamma + beta (eval BatchNorm: all four or none); v = max(v, 0) if relu.
struct ConvEpilogue {
  const float* bias = nullptr;
  const float* mu = nullptr;
  const float* invstd = nullptr;
  const float* gamma = nullptr;
  const float* beta = nullptr;
  bool relu = false;
};

// y [n, out_c, oh, ow] = epilogue(patches(x) @ op(B)), op(B) the [fan_in,
// out_c] weight: the plan's gemm-ready copy (Trans::N, ldb = out_c) or the
// tape's [out_c, fan_in] weight (Trans::T, ldb = fan_in). `pb`, when it
// holds panels packed by pack_gemm_b for the active level, replaces the
// per-call pack of op(B). Threads split the patch rows.
void conv2d_forward(const ConvShape& s, const float* x, Trans tb,
                    const float* b, std::int64_t ldb, const PackedGemmB* pb,
                    const ConvEpilogue& ep, float* y);

// The three gradients of y = patches(x) @ w^T + bias from gy [n, out_c,
// oh, ow], w [out_c, fan_in]; a null output skips its gradient. Each is
// computed the way matmul + im2col's tape ops compute it, so the bits match:
//   gbias [out_c]     += column sums of dY in row order;
//   gw    [out_c, fan_in] += (patches^T @ dY)^T, the product in
//                        gemm_tn_split's size-only chunking;
//   gx    [n, c, h, w] += one image at a time, dY_img @ w into scratch,
//                        scattered in col2im's order.
// Nothing the size of the patch matrix is allocated: the scratch is dY
// (the size of y), w packed once, and one image's columns per thread.
void conv2d_backward(const ConvShape& s, const float* x, const float* w,
                     const float* gy, float* gw, float* gbias, float* gx);

// The materialized patch matrix: `out` is [n*oh*ow, c*kh*kw] with oh =
// (h + 2*pad - kh)/stride + 1 (ow analogous); out-of-image taps are 0. The
// fp32 convs no longer call it; it is the reference their tests compare
// against.
void im2col(const float* x, std::int64_t n, std::int64_t c, std::int64_t h,
            std::int64_t w, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* out);

// im2col over int8 elements, for the quantized serving path: the feature
// map is quantized once per sample (cheap — c*h*w values), then patches are
// gathered as bytes, a quarter of the fp32 scratch traffic. Pure data
// movement, so gathering quantized pixels equals quantizing gathered
// pixels element for element.
void im2col_s8(const std::int8_t* x, std::int64_t n, std::int64_t c,
               std::int64_t h, std::int64_t w, std::int64_t kh,
               std::int64_t kw, std::int64_t stride, std::int64_t pad,
               std::int8_t* out);

// Adjoint of im2col: scatters `cols` (same layout as im2col's output) back
// into the image, *accumulating* into gx. conv2d_backward scatters each
// image in the same order; like im2col, this is the tests' reference.
void col2im(const float* cols, std::int64_t n, std::int64_t c, std::int64_t h,
            std::int64_t w, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* gx);

// Deterministic sum: fixed 8192-element blocks accumulated in double, block
// partials combined in index order — identical bits for any thread count.
double reduce_sum(const float* a, std::size_t n);

namespace detail {
constexpr std::int64_t kElemGrain = 1 << 14;  // elementwise chunk size

// Reduction chunks gemm_tn_split uses at these sizes (1: it runs gemm).
int gemm_tn_split_chunks(std::int64_t m, std::int64_t n, std::int64_t k);
}

// Fused elementwise kernels. The functor is applied per element; chunks of
// kElemGrain indices run across threads.

// out[i] = f(a[i])
template <typename F>
inline void map(std::size_t n, const float* a, float* out, F f) {
  parallel_for(static_cast<std::int64_t>(n), detail::kElemGrain,
               [=](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i) out[i] = f(a[i]);
               });
}

// out[i] = f(a[i], b[i])
template <typename F>
inline void zip(std::size_t n, const float* a, const float* b, float* out, F f) {
  parallel_for(static_cast<std::int64_t>(n), detail::kElemGrain,
               [=](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t i = lo; i < hi; ++i) out[i] = f(a[i], b[i]);
               });
}

// f(i) for i in [0, n); f must only touch state indexed by i (or otherwise
// disjoint per index). Heavier bodies pass a coarser `grain` and their
// per-index `cost` (see parallel.h).
template <typename F>
inline void for_each_index(std::int64_t n, F f,
                           std::int64_t grain = detail::kElemGrain,
                           std::int64_t cost = kElemCost) {
  parallel_for(n, grain, cost, [=](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) f(i);
  });
}

}  // namespace adept::backend
