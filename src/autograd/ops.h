// Differentiable operator library on ag::Tensor.
//
// Broadcasting for binary elementwise ops supports the cases this project
// needs (kept deliberately small per CppCoreGuidelines P.9):
//   * identical shapes
//   * either operand a 1-element scalar
//   * [N,M] op [1,M] (row-vector broadcast) and [N,M] op [N,1] (column)
// Gradients for broadcast operands are reduced over the broadcast dims.
#pragma once

#include <vector>

#include "autograd/tensor.h"

namespace adept::ag {

// ---- elementwise binary (broadcasting) -----------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

// ---- elementwise unary ----------------------------------------------------
Tensor sqrt(const Tensor& a);         // clamps input at 0
Tensor abs(const Tensor& a);          // d|x|/dx = sign(x), 0 at x == 0
Tensor square(const Tensor& a);
Tensor relu(const Tensor& a);
Tensor reciprocal(const Tensor& a);   // 1/x with 1e-12 magnitude clamp

// ---- scalar arithmetic ------------------------------------------------
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

// ---- matrix ops -------------------------------------------------------
Tensor matmul(const Tensor& a, const Tensor& b);      // [N,K]x[K,M] -> [N,M]
Tensor transpose(const Tensor& a);                    // 2-D only
Tensor reshape(const Tensor& a, std::vector<std::int64_t> shape);

// ---- reductions -------------------------------------------------------
Tensor sum(const Tensor& a);                          // -> [1]
Tensor mean(const Tensor& a);                         // -> [1]
Tensor row_sum(const Tensor& a);                      // [N,M] -> [N,1]
Tensor col_sum(const Tensor& a);                      // [N,M] -> [1,M]
// l2 norm of each row: [N,M] -> [N,1] (adds eps inside sqrt for stability).
Tensor row_l2_norm(const Tensor& a, float eps = 1e-12f);
Tensor col_l2_norm(const Tensor& a, float eps = 1e-12f);
// Per-tile column sums of a stacked [T,N,M]: out[t,j] = sum_i a[t,i,j],
// as [T,M]. The batched analogue of col_sum (same per-column accumulation
// order, so tile t's slice is bit-exact against col_sum of that tile).
Tensor tile_col_sum(const Tensor& a);

// ---- softmax family ---------------------------------------------------
Tensor softmax_rows(const Tensor& a);                 // [N,M] row-wise
Tensor log_softmax_rows(const Tensor& a);
// Cross entropy with integer labels; returns scalar mean loss.
Tensor cross_entropy(const Tensor& logits, const std::vector<int>& labels);

// ---- indexing / assembly ---------------------------------------------
// Single element of a flat tensor as a [1] tensor (gradient scatters back).
Tensor index(const Tensor& a, std::int64_t i);
// Sub-matrix copy: rows [r0, r0+rows), cols [c0, c0+cols).
Tensor slice2d(const Tensor& a, std::int64_t r0, std::int64_t rows,
               std::int64_t c0, std::int64_t cols);
// Assemble a [P*K, Q*K] matrix from one stacked [P*Q,K,K] tensor of tiles
// (tile t = grid cell (t/Q, t%Q), row-major grid).
Tensor block_matrix(const Tensor& stacked, std::int64_t p, std::int64_t q);
// Per-tile column scaling of a stacked [T,N,M] by s [T,M] (or [T,1,M]):
// out[t,i,j] = a[t,i,j] * s[t,j]. The batched analogue of the [N,M] x [1,M]
// row-vector broadcast of mul(); per-slot gradient accumulation follows the
// same ascending-row order.
Tensor bscale_cols(const Tensor& a, const Tensor& s);

// ---- convolution / pooling -------------------------------------------
// 2-D convolution of x [N,C,H,W] with a square K x K kernel: w is
// [O,C*K*K] (PyTorch's [O,C,K,K] flattened, PtcWeight's layout; K follows
// from C), bias [O] / [1,O] or an undefined Tensor; the result is
// [N,O,OH,OW]. One tape node over the
// backend's implicit-GEMM conv (backend::conv2d_forward / _backward): no
// patch matrix is built, forward or backward, and the bits equal the
// im2col + matmul + bias add + NCHW rearrangement it replaces.
Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
              std::int64_t stride, std::int64_t pad);
// Adaptive average pooling to (out_h, out_w); bins follow PyTorch semantics.
Tensor adaptive_avgpool2d(const Tensor& x, std::int64_t out_h, std::int64_t out_w);
// Its bin boundaries, shared with the compiled runtime (runtime/
// compiled_model.cpp) so the two implementations cannot drift: output bin o
// of an `in`-wide axis pooled to `out` covers [pool_bin_start, pool_bin_end).
inline std::int64_t pool_bin_start(std::int64_t o, std::int64_t in, std::int64_t out) {
  return (o * in) / out;
}
inline std::int64_t pool_bin_end(std::int64_t o, std::int64_t in, std::int64_t out) {
  return ((o + 1) * in + out - 1) / out;
}
Tensor maxpool2d(const Tensor& x, std::int64_t k, std::int64_t stride);
// Batch norm over N,H,W per channel. gamma/beta: [C]. In training mode the
// batch statistics are used and running stats are updated in-place.
Tensor batchnorm2d(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   std::vector<float>& running_mean, std::vector<float>& running_var,
                   bool training, float momentum = 0.1f, float eps = 1e-5f);

// ---- utilities ---------------------------------------------------------
// argmax over each row of [N,M].
std::vector<int> argmax_rows(const Tensor& a);

}  // namespace adept::ag
