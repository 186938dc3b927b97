// Per-tile reference for the batched SuperMesh and PtcWeight chains.
//
// The library builds every unitary for a [T,K] phase stack at once
// (SuperMesh::tile_unitary_batched, PtcWeight::weight_expr). This reference
// builds one [K,K] chain per tile instead: its own block transfers, identity
// mixes and complex products, with the tiles assembled into the blocked
// weight one by one. Each op performs the same float operations in the same
// order as the batched op that replaced it, so the batched paths must match
// the reference bit for bit, in values and in gradients, at any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "autograd/complex.h"
#include "core/supermesh.h"
#include "nn/onn_layers.h"

namespace adept::test::ref {

// Complex matrix product [N,P] x [P,M]: one cgemm compute node shared by the
// two plane views; backward is the conjugate-transpose pair dA = G B^H,
// dB = A^H G.
ag::CxTensor cmatmul(const ag::CxTensor& a, const ag::CxTensor& b);

// Both planes times a real tensor (ops.h broadcasting).
ag::CxTensor cscale(const ag::CxTensor& a, const ag::Tensor& s);

// A @ R(Phi) = column j of `a` times exp(-i*phi_j); `phi` holds one phase per
// column ([M] or [1,M]).
ag::CxTensor colphase_scale(const ag::CxTensor& a, const ag::Tensor& phi);

// One tile's block transfer P~ @ T @ R(Phi): a real-by-complex rcgemm, then
// the column rotation as an uncontracted mul+add loop.
ag::CxTensor block_transfer(const ag::Tensor& p, const ag::CxTensor& t,
                            const ag::Tensor& phi);

// skip * I + select * block for one [K,K] block (skip/select [1] scalars).
ag::CxTensor cmix_identity(const ag::Tensor& skip, const ag::Tensor& select,
                           const ag::CxTensor& block);

// Column-wise l2 normalization of a complex matrix.
ag::CxTensor col_normalize(const ag::CxTensor& a, float eps = 1e-12f);

// [P*K, Q*K] from P*Q separate [K,K] tiles, row-major grid.
ag::Tensor block_matrix(const std::vector<ag::Tensor>& tiles, std::int64_t p,
                        std::int64_t q);

// One tile's mixed-block unitary [K,K] from its per-block phases ([K] or
// [1,K] each), on the expressions of the mesh's current step.
ag::CxTensor tile_unitary(const core::SuperMesh& mesh, core::Side side,
                          const std::vector<ag::Tensor>& phases);

// The weight of `w` built one tile at a time. Phase noise must be off.
ag::Tensor weight_expr_per_tile(nn::PtcWeight& w);

}  // namespace adept::test::ref
