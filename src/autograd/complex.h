// Complex tensors as (re, im) pairs of real autograd tensors.
//
// Photonic transfer matrices are complex-valued; representing them as two
// real tensors lets a single real-valued tape differentiate through complex
// matrix chains. Gradients are the standard real-pair gradients, i.e.
// dL/d(re) and dL/d(im) independently, which is exactly what training a
// real-valued loss requires.
//
// The SuperMesh chain ops work on [T,K,K] stacks: every tile of a weight
// shares one topology (paper Eq. 1), so each chain stage advances all tiles
// as ONE tape node. `bcmatmul` lowers to one backend cgemm_batched node (a
// packed [2,T,N,M] grad-routing node plus two plane views), and its backward
// is two conjugate-transpose batched cgemms (dA = G B^H, dB = A^H G).
// `bblock_transfer` folds a photonic block P~ @ T @ R(Phi) into one node: a
// single real-by-complex gemm for the tile-shared P~ @ T, then each tile's
// diagonal phase column as a column scaling.
#pragma once

#include "autograd/ops.h"
#include "autograd/tensor.h"

namespace adept::ag {

struct CxTensor {
  Tensor re;
  Tensor im;

  bool defined() const { return re.defined() && im.defined(); }
  const std::vector<std::int64_t>& shape() const { return re.shape(); }
  std::int64_t dim(std::size_t i) const { return re.dim(i); }

  static CxTensor eye(std::int64_t n);
};

// Directional-coupler column transfer matrix T_b as [K,K] (paper Sec. 3.2).
//
// `t` holds one transmission coefficient per coupler slot. Slot i couples
// waveguides (s + 2i, s + 2i + 1) where s is the start parity. The 2x2 cell
// is [[t, j*sqrt(1-t^2)], [j*sqrt(1-t^2), t]]; t == 1 degenerates to a bar
// (identity) connection. Rows not covered by a slot pass through unchanged.
// Both the real diagonal entries (t) and the imaginary cross terms
// (sqrt(1-t^2)) carry gradients back into `t`.
CxTensor coupler_column(const Tensor& t, std::int64_t k, std::int64_t start);

// Row-wise l2 normalization of a complex matrix (norm over re^2 + im^2).
// Stabilizes relaxed SuperMesh unitaries during search (paper Sec. 3.3.2).
CxTensor row_normalize(const CxTensor& a, float eps = 1e-12f);

// ---- batched ([T,K,K]) chain ops --------------------------------------
// All tiles of a layer advance through each stage of the U/V block chain as
// ONE tape node (PtcWeight::weight_expr / SuperMesh::tile_unitary_batched).
// Every batched op is bit-exact against the per-tile composition it
// replaces — identical per-element accumulation order in the forward AND in
// every gradient, including the reverse-tile-order accumulation into
// operands shared across tiles. tests/mesh_reference.h keeps that per-tile
// chain as a test oracle, and the batched weight paths agree with it to the
// bit at any thread count.

// Batched complex matmul: a [T,N,P] x b [T,P,M] -> [T,N,M]. A 2-D b [P,M]
// is shared across the batch (e.g. the identity seeding a chain). One
// packed compute node; backward is two batched conjugate-transpose cgemms.
CxTensor bcmatmul(const CxTensor& a, const CxTensor& b);

// Batched column phase scaling of one shared matrix: out[t] = a @ R(phi[t])
// with a [N,M] shared and phi a [T,M] phase stack -> [T,N,M].
CxTensor bcolphase_scale(const CxTensor& a, const Tensor& phi);

// Batched fused block transfer over a [T,K] phase stack: out[t] =
// P~ @ T @ R(phi[t]). The tile-shared product P~ @ T runs as ONE
// real-by-complex gemm and the per-tile phase columns are applied as an
// epilogue — T tiles cost one K^3 gemm plus T*K^2 phase scalings instead of
// T K^3 gemms.
CxTensor bblock_transfer(const Tensor& p, const CxTensor& t, const Tensor& phi);

// Batched Gumbel identity mix: out[t] = skip * I + select * block[t] over a
// [T,K,K] block stack (skip/select scalar [1] tensors shared by all tiles).
CxTensor bcmix_identity(const Tensor& skip, const Tensor& select,
                        const CxTensor& block);

// Batched per-tile column scaling by a real [T,M] stack (U diag(Sigma)).
CxTensor bcscale_cols(const CxTensor& a, const Tensor& s);

// Per-tile row/column l2 normalization of a stacked [T,K,K] tensor.
CxTensor brow_normalize(const CxTensor& a, float eps = 1e-12f);
CxTensor bcol_normalize(const CxTensor& a, float eps = 1e-12f);

}  // namespace adept::ag
