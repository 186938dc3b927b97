#include "mesh_reference.h"

#include <memory>

#include "autograd/ops.h"
#include "backend/kernels.h"
#include "photonics/devices.h"

namespace adept::test::ref {

namespace be = ::adept::backend;
using ag::CxTensor;
using ag::Tensor;
using ag::TensorImpl;

namespace {

// One plane of a packed [2,N,M] compute node: the backward routes the plane's
// gradient into the node's grad buffer, where the node's backward reads both
// planes at once.
Tensor plane_view(const Tensor& packed, std::vector<float> plane,
                  std::vector<std::int64_t> shape, std::size_t offset) {
  return ag::make_op(std::move(plane), std::move(shape), {packed},
                     [packed, offset](TensorImpl& o) {
                       if (!packed.requires_grad()) return;
                       float* g = const_cast<Tensor&>(packed).grad().data() + offset;
                       for (std::size_t i = 0; i < o.grad.size(); ++i) g[i] += o.grad[i];
                     });
}

struct PhaseTables {
  std::vector<float> c, s;
};

// cos/sin of a phase vector from the same dispatched kernel the library uses.
std::shared_ptr<PhaseTables> phase_tables(const Tensor& phi) {
  auto t = std::make_shared<PhaseTables>();
  const auto& pd = phi.data();
  t->c.resize(pd.size());
  t->s.resize(pd.size());
  be::sincos(static_cast<std::int64_t>(pd.size()), pd.data(), t->c.data(),
             t->s.data());
  return t;
}

// The constant P * T of one fixed block, as PtcWeight builds it.
CxTensor block_pt_constant(const photonics::BlockSpec& block, int k) {
  const std::vector<double> t(block.dc_mask.size(), photonics::balanced_coupler_t());
  const photonics::CMat tm =
      photonics::coupler_column_matrix(k, block.start, block.dc_mask, t);
  const photonics::CMat pt = block.perm.to_cmatrix() * tm;
  std::vector<float> re(static_cast<std::size_t>(k * k)), im(re.size());
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      re[static_cast<std::size_t>(i * k + j)] = static_cast<float>(pt.at(i, j).real());
      im[static_cast<std::size_t>(i * k + j)] = static_cast<float>(pt.at(i, j).imag());
    }
  }
  return {ag::make_tensor(std::move(re), {k, k}, false),
          ag::make_tensor(std::move(im), {k, k}, false)};
}

CxTensor fixed_tile_unitary(std::int64_t k, const std::vector<CxTensor>& pt_consts,
                            const std::vector<Tensor>& phases) {
  CxTensor acc = CxTensor::eye(k);
  for (std::size_t b = 0; b < pt_consts.size(); ++b) {
    acc = cmatmul(colphase_scale(pt_consts[b], phases[b]), acc);
  }
  return acc;
}

}  // namespace

CxTensor cmatmul(const CxTensor& a, const CxTensor& b) {
  ag::check(a.re.ndim() == 2 && b.re.ndim() == 2, "cmatmul: expects 2-D tensors");
  const std::int64_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
  ag::check(b.dim(0) == k, "cmatmul: inner dims mismatch");
  const std::size_t nm = static_cast<std::size_t>(n * m);
  std::vector<float> re(nm), im(nm);
  be::cgemm(be::CTrans::N, be::CTrans::N, n, m, k, a.re.data().data(),
            a.im.data().data(), k, b.re.data().data(), b.im.data().data(), m,
            0.0f, re.data(), im.data(), m);
  // The node's data only sizes the packed grad the plane views route into.
  Tensor node = ag::make_op(
      std::vector<float>(2 * nm, 0.0f), {2, n, m}, {a.re, a.im, b.re, b.im},
      [ar = a.re, ai = a.im, br = b.re, bi = b.im, n, k, m, nm](TensorImpl& o) {
        const float* gre = o.grad.data();
        const float* gim = o.grad.data() + nm;
        if (ar.requires_grad() || ai.requires_grad()) {
          be::cgemm(be::CTrans::N, be::CTrans::H, n, k, m, gre, gim, m,
                    br.data().data(), bi.data().data(), m, 1.0f,
                    const_cast<Tensor&>(ar).grad().data(),
                    const_cast<Tensor&>(ai).grad().data(), k);
        }
        if (br.requires_grad() || bi.requires_grad()) {
          be::cgemm(be::CTrans::H, be::CTrans::N, k, m, n, ar.data().data(),
                    ai.data().data(), k, gre, gim, m, 1.0f,
                    const_cast<Tensor&>(br).grad().data(),
                    const_cast<Tensor&>(bi).grad().data(), m);
        }
      });
  return {plane_view(node, std::move(re), {n, m}, 0),
          plane_view(node, std::move(im), {n, m}, nm)};
}

CxTensor cscale(const CxTensor& a, const Tensor& s) {
  return {ag::mul(a.re, s), ag::mul(a.im, s)};
}

CxTensor colphase_scale(const CxTensor& a, const Tensor& phi) {
  ag::check(a.re.ndim() == 2, "colphase_scale: expects 2-D");
  const std::int64_t n = a.dim(0), m = a.dim(1);
  ag::check(phi.numel() == m, "colphase_scale: need one phase per column");
  auto tab = phase_tables(phi);
  const std::size_t nm = static_cast<std::size_t>(n * m);
  std::vector<float> outr(nm), outi(nm);
  const auto& ar = a.re.data();
  const auto& ai = a.im.data();
  for (std::size_t i = 0; i < nm; ++i) {
    const std::size_t j = i % static_cast<std::size_t>(m);
    outr[i] = ar[i] * tab->c[j] + ai[i] * tab->s[j];
    outi[i] = ai[i] * tab->c[j] - ar[i] * tab->s[j];
  }
  // dphi_j accumulates over column j in a double, rows ascending.
  auto dphi = [n, m](const Tensor& phi, const float* g, auto term) {
    float* d = const_cast<Tensor&>(phi).grad().data();
    for (std::int64_t j = 0; j < m; ++j) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < n; ++i) acc += term(g, i * m + j, j);
      d[j] += static_cast<float>(acc);
    }
  };
  Tensor re = ag::make_op(
      std::move(outr), a.re.shape(), {a.re, a.im, phi},
      [ar = a.re, ai = a.im, phi, tab, nm, m, dphi](TensorImpl& o) {
        const float* g = o.grad.data();
        const float* c = tab->c.data();
        const float* s = tab->s.data();
        if (ar.requires_grad()) {
          float* d = const_cast<Tensor&>(ar).grad().data();
          for (std::size_t i = 0; i < nm; ++i) d[i] += g[i] * c[i % m];
        }
        if (ai.requires_grad()) {
          float* d = const_cast<Tensor&>(ai).grad().data();
          for (std::size_t i = 0; i < nm; ++i) d[i] += g[i] * s[i % m];
        }
        if (phi.requires_grad()) {
          const float* arp = ar.data().data();
          const float* aip = ai.data().data();
          dphi(phi, g, [=](const float* gg, std::int64_t e, std::int64_t j) {
            return static_cast<double>(gg[e]) * (aip[e] * c[j] - arp[e] * s[j]);
          });
        }
      });
  Tensor im = ag::make_op(
      std::move(outi), a.re.shape(), {a.re, a.im, phi},
      [ar = a.re, ai = a.im, phi, tab, nm, m, dphi](TensorImpl& o) {
        const float* g = o.grad.data();
        const float* c = tab->c.data();
        const float* s = tab->s.data();
        if (ai.requires_grad()) {
          float* d = const_cast<Tensor&>(ai).grad().data();
          for (std::size_t i = 0; i < nm; ++i) d[i] += g[i] * c[i % m];
        }
        if (ar.requires_grad()) {
          float* d = const_cast<Tensor&>(ar).grad().data();
          for (std::size_t i = 0; i < nm; ++i) d[i] -= g[i] * s[i % m];
        }
        if (phi.requires_grad()) {
          const float* arp = ar.data().data();
          const float* aip = ai.data().data();
          dphi(phi, g, [=](const float* gg, std::int64_t e, std::int64_t j) {
            return -(static_cast<double>(gg[e]) * (aip[e] * s[j] + arp[e] * c[j]));
          });
        }
      });
  return {re, im};
}

CxTensor block_transfer(const Tensor& p, const CxTensor& t, const Tensor& phi) {
  ag::check(p.ndim() == 2 && p.dim(0) == p.dim(1), "block_transfer: P must be square");
  const std::int64_t k = p.dim(0);
  ag::check(t.re.ndim() == 2 && t.dim(0) == k && t.dim(1) == k,
            "block_transfer: T must be [K,K]");
  ag::check(phi.numel() == k, "block_transfer: need K phases");
  auto tab = phase_tables(phi);
  const std::size_t kk = static_cast<std::size_t>(k * k);
  std::vector<float> packed(2 * kk);
  be::rcgemm(be::Trans::N, k, k, k, p.data().data(), k, t.re.data().data(),
             t.im.data().data(), k, 0.0f, packed.data(), packed.data() + kk, k);
  // Column j times e^{-i phi_j}, uncontracted mul+add.
  for (std::size_t i = 0; i < kk; ++i) {
    const std::size_t j = i % static_cast<std::size_t>(k);
    const float re = packed[i], im = packed[kk + i];
    packed[i] = re * tab->c[j] + im * tab->s[j];
    packed[kk + i] = im * tab->c[j] - re * tab->s[j];
  }
  Tensor node = ag::make_op(
      std::move(packed), {2, k, k}, {p, t.re, t.im, phi},
      [p, tr = t.re, ti = t.im, phi, tab, k, kk](TensorImpl& o) {
        const float* gre = o.grad.data();
        const float* gim = o.grad.data() + kk;
        const float* c = tab->c.data();
        const float* s = tab->s.data();
        if (phi.requires_grad()) {
          // d out / d phi_j = -i out, so dphi_j = sum_i (G_re * out_im -
          // G_im * out_re) over column j.
          const float* ore = o.data.data();
          const float* oim = o.data.data() + kk;
          float* d = const_cast<Tensor&>(phi).grad().data();
          for (std::int64_t j = 0; j < k; ++j) {
            double acc = 0.0;
            for (std::int64_t i = 0; i < k; ++i) {
              acc += static_cast<double>(gre[i * k + j]) * oim[i * k + j] -
                     static_cast<double>(gim[i * k + j]) * ore[i * k + j];
            }
            d[j] += static_cast<float>(acc);
          }
        }
        if (!p.requires_grad() && !tr.requires_grad() && !ti.requires_grad()) {
          return;
        }
        // Chain through the column phase: G_PT = G * e^{+i phi_j}.
        std::vector<float> gpt(2 * kk);
        for (std::size_t i = 0; i < kk; ++i) {
          const std::size_t j = i % static_cast<std::size_t>(k);
          gpt[i] = gre[i] * c[j] - gim[i] * s[j];
          gpt[kk + i] = gim[i] * c[j] + gre[i] * s[j];
        }
        if (p.requires_grad()) {
          auto& gp = const_cast<Tensor&>(p).grad();
          be::gemm(be::Trans::N, be::Trans::T, k, k, k, 1.0f, gpt.data(), k,
                   tr.data().data(), k, 1.0f, gp.data(), k);
          be::gemm(be::Trans::N, be::Trans::T, k, k, k, 1.0f, gpt.data() + kk,
                   k, ti.data().data(), k, 1.0f, gp.data(), k);
        }
        if (tr.requires_grad() || ti.requires_grad()) {
          be::rcgemm(be::Trans::T, k, k, k, p.data().data(), k, gpt.data(),
                     gpt.data() + kk, k, 1.0f,
                     const_cast<Tensor&>(tr).grad().data(),
                     const_cast<Tensor&>(ti).grad().data(), k);
        }
      });
  const auto& nd = node.data();
  const auto mid = nd.begin() + static_cast<std::ptrdiff_t>(kk);
  return {plane_view(node, {nd.begin(), mid}, {k, k}, 0),
          plane_view(node, {mid, nd.end()}, {k, k}, kk)};
}

CxTensor cmix_identity(const Tensor& skip, const Tensor& select,
                       const CxTensor& block) {
  ag::check(skip.numel() == 1 && select.numel() == 1,
            "cmix_identity: skip/select must be scalars");
  ag::check(block.re.ndim() == 2 && block.dim(0) == block.dim(1),
            "cmix_identity: block must be square");
  const std::int64_t k = block.dim(0);
  const float sk = skip.data()[0];
  const float se = select.data()[0];
  const std::size_t kk = static_cast<std::size_t>(k * k);
  std::vector<float> outr(kk), outi(kk);
  for (std::size_t i = 0; i < kk; ++i) {
    outr[i] = se * block.re.data()[i];
    outi[i] = se * block.im.data()[i];
  }
  for (std::int64_t i = 0; i < k; ++i) outr[static_cast<std::size_t>(i * k + i)] += sk;
  // d/dselect of one plane: sum of G * block over the plane, in a double.
  auto select_grad = [](const Tensor& select, const TensorImpl& o, const Tensor& plane) {
    double acc = 0.0;
    for (std::size_t i = 0; i < o.grad.size(); ++i) {
      acc += static_cast<double>(o.grad[i]) * plane.data()[i];
    }
    const_cast<Tensor&>(select).grad()[0] += static_cast<float>(acc);
  };
  auto block_grad = [](const Tensor& select, const TensorImpl& o, const Tensor& plane) {
    const float se = select.data()[0];
    float* d = const_cast<Tensor&>(plane).grad().data();
    for (std::size_t i = 0; i < o.grad.size(); ++i) d[i] += se * o.grad[i];
  };
  Tensor re = ag::make_op(
      std::move(outr), block.re.shape(), {skip, select, block.re},
      [skip, select, br = block.re, k, select_grad, block_grad](TensorImpl& o) {
        if (skip.requires_grad()) {
          double acc = 0.0;
          for (std::int64_t i = 0; i < k; ++i) acc += o.grad[static_cast<std::size_t>(i * k + i)];
          const_cast<Tensor&>(skip).grad()[0] += static_cast<float>(acc);
        }
        if (select.requires_grad()) select_grad(select, o, br);
        if (br.requires_grad()) block_grad(select, o, br);
      });
  Tensor im = ag::make_op(
      std::move(outi), block.re.shape(), {select, block.im},
      [select, bi = block.im, select_grad, block_grad](TensorImpl& o) {
        if (select.requires_grad()) select_grad(select, o, bi);
        if (bi.requires_grad()) block_grad(select, o, bi);
      });
  return {re, im};
}

CxTensor col_normalize(const CxTensor& a, float eps) {
  Tensor norm2 = ag::add(ag::col_sum(ag::square(a.re)), ag::col_sum(ag::square(a.im)));
  Tensor inv = ag::reciprocal(ag::sqrt(ag::add_scalar(norm2, eps)));
  return {ag::mul(a.re, inv), ag::mul(a.im, inv)};
}

Tensor block_matrix(const std::vector<Tensor>& tiles, std::int64_t p, std::int64_t q) {
  ag::check(!tiles.empty() && static_cast<std::int64_t>(tiles.size()) == p * q,
            "block_matrix: tile count mismatch");
  const std::int64_t k = tiles[0].dim(0);
  for (const auto& t : tiles) {
    ag::check(t.ndim() == 2 && t.dim(0) == k && t.dim(1) == k,
              "block_matrix: tiles must be square and uniform");
  }
  const std::int64_t cols = q * k;
  // Element (i, j) of grid cell t, as an offset into the [P*K, Q*K] matrix.
  auto at = [k, q, cols](std::int64_t t, std::int64_t i, std::int64_t j) {
    return static_cast<std::size_t>(((t / q) * k + i) * cols + (t % q) * k + j);
  };
  std::vector<float> out(static_cast<std::size_t>(p * k * cols));
  for (std::int64_t t = 0; t < p * q; ++t) {
    const auto& td = tiles[static_cast<std::size_t>(t)].data();
    for (std::int64_t i = 0; i < k; ++i) {
      for (std::int64_t j = 0; j < k; ++j) {
        out[at(t, i, j)] = td[static_cast<std::size_t>(i * k + j)];
      }
    }
  }
  return ag::make_op(std::move(out), {p * k, cols}, tiles, [tiles, k, at](TensorImpl& o) {
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      if (!tiles[t].requires_grad()) continue;
      auto& g = const_cast<Tensor&>(tiles[t]).grad();
      for (std::int64_t i = 0; i < k; ++i) {
        for (std::int64_t j = 0; j < k; ++j) {
          g[static_cast<std::size_t>(i * k + j)] +=
              o.grad[at(static_cast<std::int64_t>(t), i, j)];
        }
      }
    }
  });
}

CxTensor tile_unitary(const core::SuperMesh& mesh, core::Side side,
                      const std::vector<Tensor>& phases) {
  const core::SuperMesh::StepState& s = mesh.step_exprs(side);
  const int nb = mesh.blocks_per_unitary();
  ag::check(static_cast<int>(phases.size()) == nb,
            "tile_unitary: need one phase vector per block");
  CxTensor acc = CxTensor::eye(mesh.k());
  for (int b = 0; b < nb; ++b) {
    const auto bz = static_cast<std::size_t>(b);
    CxTensor block = block_transfer(s.p_tilde[bz], s.coupler_mat[bz], phases[bz]);
    CxTensor mixed = mesh.block_always_on(b)
                         ? block
                         : cmix_identity(s.skip[bz], s.select[bz], block);
    acc = cmatmul(mixed, acc);
  }
  if (mesh.config().normalize_unitaries && !mesh.permutations_frozen()) {
    acc = side == core::Side::u ? ag::row_normalize(acc) : col_normalize(acc);
  }
  return acc;
}

Tensor weight_expr_per_tile(nn::PtcWeight& w) {
  const nn::PtcBinding& binding = w.binding();
  if (binding.kind == nn::PtcBinding::Kind::dense) return w.dense_weight();
  ag::check(w.phase_noise() == 0.0, "weight_expr_per_tile: phase noise must be off");
  const std::int64_t k = binding.k;
  const std::int64_t p = w.tile_rows(), q = w.tile_cols();
  std::vector<CxTensor> pt_u, pt_v;
  if (binding.kind == nn::PtcBinding::Kind::ptc) {
    for (const auto& b : binding.topology->u_blocks) pt_u.push_back(block_pt_constant(b, binding.k));
    for (const auto& b : binding.topology->v_blocks) pt_v.push_back(block_pt_constant(b, binding.k));
  }
  std::vector<Tensor> tiles;
  for (std::int64_t t = 0; t < p * q; ++t) {
    // Row t of each [T,K] stack as this tile's [1,K] phase vectors.
    auto tile_rows_of = [&](const std::vector<Tensor>& stacks) {
      std::vector<Tensor> rows;
      for (const auto& s : stacks) rows.push_back(ag::slice2d(s, t, 1, 0, k));
      return rows;
    };
    CxTensor u, v;
    if (binding.kind == nn::PtcBinding::Kind::ptc) {
      u = fixed_tile_unitary(k, pt_u, tile_rows_of(w.phi_u()));
      v = fixed_tile_unitary(k, pt_v, tile_rows_of(w.phi_v()));
    } else {
      u = tile_unitary(*binding.supermesh, core::Side::u, tile_rows_of(w.phi_u()));
      v = tile_unitary(*binding.supermesh, core::Side::v, tile_rows_of(w.phi_v()));
    }
    // W = U * diag(sigma) * V, real part (coherent detection).
    CxTensor us = cscale(u, ag::slice2d(w.sigma_stack(), t, 1, 0, k));
    tiles.push_back(cmatmul(us, v).re);
  }
  Tensor blocked = block_matrix(tiles, p, q);
  if (p * k == w.out_features() && q * k == w.in_features()) return blocked;
  return ag::slice2d(blocked, 0, w.out_features(), 0, w.in_features());
}

}  // namespace adept::test::ref
