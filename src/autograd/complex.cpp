#include "autograd/complex.h"

#include <cmath>
#include <memory>

#include "backend/kernels.h"

namespace adept::ag {

namespace be = ::adept::backend;

CxTensor CxTensor::eye(std::int64_t n) {
  return {Tensor::eye(n), Tensor::zeros({n, n})};
}

namespace {

bool tracking(std::initializer_list<const Tensor*> ts) {
  if (!GradMode::enabled()) return false;
  for (const Tensor* t : ts) {
    if (t->requires_grad()) return true;
  }
  return false;
}

// One plane of a packed [2,N,M] compute node. The view owns a copy of the
// plane's data; its backward just routes the gradient into the packed node's
// grad buffer, where the fused backward picks up both planes at once. The
// packed node's own data is never read (it only sizes the grad), so it is
// taken unzeroed.
Tensor plane_view(const Tensor& packed, std::vector<float> plane,
                  std::vector<std::int64_t> shape, std::size_t offset) {
  return make_op(
      std::move(plane), std::move(shape), {packed},
      [packed, offset](TensorImpl& o) {
        if (!packed.requires_grad()) return;
        auto& g = const_cast<Tensor&>(packed).grad();
        float* gp = g.data() + offset;
        const float* op = o.grad.data();
        be::for_each_index(static_cast<std::int64_t>(o.grad.size()),
                           [=](std::int64_t i) { gp[i] += op[i]; });
      });
}

// cos/sin of a phase vector, shared between forward and backward of the
// column-phase ops.
struct PhaseTables {
  std::vector<float> c, s;
};

std::shared_ptr<PhaseTables> phase_tables(const Tensor& phi) {
  auto t = std::make_shared<PhaseTables>();
  const auto& pd = phi.data();
  t->c.resize(pd.size());
  t->s.resize(pd.size());
  // Dispatched: SIMD levels vectorize the sincos pair (backend/simd.h); the
  // scalar level is the libm loop this code always ran. Every consumer of a
  // phase column shares these tables, so the fixed-topology and SuperMesh
  // block transfers apply identical rotations at any level.
  be::sincos(static_cast<std::int64_t>(pd.size()), pd.data(), t->c.data(),
             t->s.data());
  return t;
}

}  // namespace

CxTensor coupler_column(const Tensor& t, std::int64_t k, std::int64_t start) {
  check(t.ndim() == 1, "coupler_column: t must be 1-D");
  const std::int64_t slots = t.numel();
  check(start == 0 || start == 1, "coupler_column: start parity must be 0/1");
  check(start + 2 * slots <= k, "coupler_column: too many slots for K");
  const auto& td = t.data();

  // Forward: assemble the dense [K,K] matrix.
  std::vector<float> re(static_cast<std::size_t>(k * k), 0.0f);
  std::vector<float> im(static_cast<std::size_t>(k * k), 0.0f);
  for (std::int64_t i = 0; i < k; ++i) re[static_cast<std::size_t>(i * k + i)] = 1.0f;
  for (std::int64_t s = 0; s < slots; ++s) {
    const std::int64_t a = start + 2 * s;
    const float tv = td[static_cast<std::size_t>(s)];
    const float cross = std::sqrt(std::max(0.0f, 1.0f - tv * tv));
    re[static_cast<std::size_t>(a * k + a)] = tv;
    re[static_cast<std::size_t>((a + 1) * k + a + 1)] = tv;
    im[static_cast<std::size_t>(a * k + a + 1)] = cross;
    im[static_cast<std::size_t>((a + 1) * k + a)] = cross;
  }

  // Backward: gather gradients from the four cells of each slot.
  //   d re[a,a]/dt = d re[a+1,a+1]/dt = 1
  //   d im[a,a+1]/dt = d im[a+1,a]/dt = -t / sqrt(1 - t^2)
  auto grad_into_t = [t, k, start, slots](TensorImpl& o, bool is_im) {
    if (!t.requires_grad()) return;
    auto& gt = const_cast<Tensor&>(t).grad();
    const auto& td = t.data();
    for (std::int64_t s = 0; s < slots; ++s) {
      const std::int64_t a = start + 2 * s;
      const float tv = td[static_cast<std::size_t>(s)];
      if (!is_im) {
        gt[static_cast<std::size_t>(s)] +=
            o.grad[static_cast<std::size_t>(a * k + a)] +
            o.grad[static_cast<std::size_t>((a + 1) * k + a + 1)];
      } else {
        const float denom = std::sqrt(std::max(1e-12f, 1.0f - tv * tv));
        const float dcross = -tv / denom;
        gt[static_cast<std::size_t>(s)] +=
            dcross * (o.grad[static_cast<std::size_t>(a * k + a + 1)] +
                      o.grad[static_cast<std::size_t>((a + 1) * k + a)]);
      }
    }
  };
  Tensor re_t = make_op(std::move(re), {k, k}, {t},
                        [grad_into_t](TensorImpl& o) { grad_into_t(o, false); });
  Tensor im_t = make_op(std::move(im), {k, k}, {t},
                        [grad_into_t](TensorImpl& o) { grad_into_t(o, true); });
  return {re_t, im_t};
}

CxTensor row_normalize(const CxTensor& a, float eps) {
  Tensor norm2 = add(row_sum(square(a.re)), row_sum(square(a.im)));
  Tensor inv = reciprocal(sqrt(add_scalar(norm2, eps)));
  return {mul(a.re, inv), mul(a.im, inv)};
}

// ---- batched ([T,K,K]) chain ops ------------------------------------------
//
// Bit-exactness contract: each batched op performs, per output element and
// per gradient slot, the identical sequence of float operations as the
// per-tile composition it replaces (kept as the test oracle in
// tests/mesh_reference.h). Gradients into operands shared across tiles
// accumulate per tile in REVERSE tile order — the order a per-tile tape
// fires its nodes in (tiles are built ascending, so reverse post-order
// processes them descending) — and within one tile the IM-plane node fires
// before the RE-plane node (plane views are pushed re-first onto parent
// lists, so post-order reversal flips them).

CxTensor bcmatmul(const CxTensor& a, const CxTensor& b) {
  check(a.re.ndim() == 3, "bcmatmul: a must be [T,N,P]");
  const std::int64_t t = a.dim(0), n = a.dim(1), p = a.dim(2);
  const bool shared_b = b.re.ndim() == 2;
  check(shared_b || b.re.ndim() == 3, "bcmatmul: b must be 2-D or [T,P,M]");
  const std::int64_t m = shared_b ? b.dim(1) : b.dim(2);
  check(shared_b ? b.dim(0) == p : (b.dim(0) == t && b.dim(1) == p),
        "bcmatmul: inner dims mismatch");
  const std::int64_t sa = n * p, sb = shared_b ? 0 : p * m, sc = n * m;
  const std::size_t tnm = static_cast<std::size_t>(t * n * m);
  std::vector<float> re = empty_buffer(tnm), im = empty_buffer(tnm);
  be::cgemm_batched(be::CTrans::N, be::CTrans::N, t, n, m, p,
                    a.re.data().data(), a.im.data().data(), sa, p,
                    b.re.data().data(), b.im.data().data(), sb, m, 0.0f,
                    re.data(), im.data(), sc, m);
  if (!tracking({&a.re, &a.im, &b.re, &b.im})) {
    return {make_tensor(std::move(re), {t, n, m}, false),
            make_tensor(std::move(im), {t, n, m}, false)};
  }
  Tensor node = make_op(
      empty_buffer(2 * tnm), {2, t, n, m},
      {a.re, a.im, b.re, b.im},
      [ar = a.re, ai = a.im, br = b.re, bi = b.im, t, n, p, m, sa, sb, sc,
       tnm, shared_b](TensorImpl& o) {
        const float* gre = o.grad.data();
        const float* gim = o.grad.data() + tnm;
        if (ar.requires_grad() || ai.requires_grad()) {
          auto& gar = const_cast<Tensor&>(ar).grad();
          auto& gai = const_cast<Tensor&>(ai).grad();
          // dA[t] = G[t] B[t]^H for every tile in one batched call.
          be::cgemm_batched(be::CTrans::N, be::CTrans::H, t, n, p, m, gre, gim,
                            sc, m, br.data().data(), bi.data().data(), sb, m,
                            1.0f, gar.data(), gai.data(), sa, p);
        }
        if (br.requires_grad() || bi.requires_grad()) {
          auto& gbr = const_cast<Tensor&>(br).grad();
          auto& gbi = const_cast<Tensor&>(bi).grad();
          if (!shared_b) {
            be::cgemm_batched(be::CTrans::H, be::CTrans::N, t, p, m, n,
                              ar.data().data(), ai.data().data(), sa, p, gre,
                              gim, sc, m, 1.0f, gbr.data(), gbi.data(), sb, m);
          } else {
            // Shared b: one accumulating cgemm per tile, reverse tile order.
            for (std::int64_t ti = t - 1; ti >= 0; --ti) {
              be::cgemm(be::CTrans::H, be::CTrans::N, p, m, n,
                        ar.data().data() + ti * sa,
                        ai.data().data() + ti * sa, p, gre + ti * sc,
                        gim + ti * sc, m, 1.0f, gbr.data(), gbi.data(), m);
            }
          }
        }
      });
  return {plane_view(node, std::move(re), {t, n, m}, 0),
          plane_view(node, std::move(im), {t, n, m}, tnm)};
}

CxTensor bcolphase_scale(const CxTensor& a, const Tensor& phi) {
  check(a.re.ndim() == 2, "bcolphase_scale: a must be [N,M]");
  const std::int64_t n = a.dim(0), m = a.dim(1);
  check(phi.ndim() == 2 && phi.dim(1) == m, "bcolphase_scale: phi must be [T,M]");
  const std::int64_t t = phi.dim(0);
  auto tab = phase_tables(phi);
  const std::int64_t nm = n * m;
  const std::size_t tnm = static_cast<std::size_t>(t * nm);
  std::vector<float> outr = empty_buffer(tnm), outi = empty_buffer(tnm);
  {
    const float* arp = a.re.data().data();
    const float* aip = a.im.data().data();
    const float* c = tab->c.data();
    const float* s = tab->s.data();
    float* orp = outr.data();
    float* oip = outi.data();
    be::for_each_index(t * n, [=](std::int64_t row) {
      const std::int64_t ti = row / n, i = row % n;
      const float* ar_row = arp + i * m;
      const float* ai_row = aip + i * m;
      const float* ct = c + ti * m;
      const float* st = s + ti * m;
      float* our = orp + row * m;
      float* oui = oip + row * m;
      for (std::int64_t j = 0; j < m; ++j) {
        const float re = ar_row[j], im = ai_row[j];
        our[j] = re * ct[j] + im * st[j];
        oui[j] = im * ct[j] - re * st[j];
      }
    });
  }
  if (!tracking({&a.re, &a.im, &phi})) {
    return {make_tensor(std::move(outr), {t, n, m}, false),
            make_tensor(std::move(outi), {t, n, m}, false)};
  }
  Tensor node = make_op(
      empty_buffer(2 * tnm), {2, t, n, m}, {a.re, a.im, phi},
      [ar = a.re, ai = a.im, phi, tab, t, n, m, nm, tnm](TensorImpl& o) {
        const float* gre = o.grad.data();
        const float* gim = o.grad.data() + tnm;
        const float* c = tab->c.data();
        const float* s = tab->s.data();
        const float* arp = ar.data().data();
        const float* aip = ai.data().data();
        float* dar = ar.requires_grad() ? const_cast<Tensor&>(ar).grad().data()
                                        : nullptr;
        float* dai = ai.requires_grad() ? const_cast<Tensor&>(ai).grad().data()
                                        : nullptr;
        float* dphi = phi.requires_grad()
                          ? const_cast<Tensor&>(phi).grad().data()
                          : nullptr;
        for (std::int64_t ti = t - 1; ti >= 0; --ti) {
          const float* gr_t = gre + ti * nm;
          const float* gi_t = gim + ti * nm;
          const float* ct = c + ti * m;
          const float* st = s + ti * m;
          // IM-plane contributions first (per-tile node firing order).
          if (dai != nullptr) {
            be::for_each_index(nm, [=](std::int64_t i) {
              dai[i] += gi_t[i] * ct[i % m];
            });
          }
          if (dar != nullptr) {
            be::for_each_index(nm, [=](std::int64_t i) {
              dar[i] -= gi_t[i] * st[i % m];
            });
          }
          if (dphi != nullptr) {
            be::for_each_index(
                m,
                [=](std::int64_t j) {
                  double acc = 0.0;
                  for (std::int64_t i = 0; i < n; ++i) {
                    acc -= static_cast<double>(gi_t[i * m + j]) *
                           (aip[i * m + j] * st[j] + arp[i * m + j] * ct[j]);
                  }
                  dphi[ti * m + j] += static_cast<float>(acc);
                },
                /*grain=*/1, 3 * n * be::kElemCost);
          }
          // RE-plane contributions.
          if (dar != nullptr) {
            be::for_each_index(nm, [=](std::int64_t i) {
              dar[i] += gr_t[i] * ct[i % m];
            });
          }
          if (dai != nullptr) {
            be::for_each_index(nm, [=](std::int64_t i) {
              dai[i] += gr_t[i] * st[i % m];
            });
          }
          if (dphi != nullptr) {
            be::for_each_index(
                m,
                [=](std::int64_t j) {
                  double acc = 0.0;
                  for (std::int64_t i = 0; i < n; ++i) {
                    acc += static_cast<double>(gr_t[i * m + j]) *
                           (aip[i * m + j] * ct[j] - arp[i * m + j] * st[j]);
                  }
                  dphi[ti * m + j] += static_cast<float>(acc);
                },
                /*grain=*/1, 3 * n * be::kElemCost);
          }
        }
      });
  return {plane_view(node, std::move(outr), {t, n, m}, 0),
          plane_view(node, std::move(outi), {t, n, m}, tnm)};
}

CxTensor bblock_transfer(const Tensor& p, const CxTensor& t, const Tensor& phi) {
  check(p.ndim() == 2 && p.dim(0) == p.dim(1), "bblock_transfer: P must be square");
  const std::int64_t k = p.dim(0);
  check(t.re.ndim() == 2 && t.dim(0) == k && t.dim(1) == k,
        "bblock_transfer: T must be [K,K]");
  check(phi.ndim() == 2 && phi.dim(1) == k, "bblock_transfer: phi must be [T,K]");
  const std::int64_t nt = phi.dim(0);
  auto tab = phase_tables(phi);
  const std::int64_t kk = k * k;
  const std::size_t tkk = static_cast<std::size_t>(nt * kk);
  // The passive product P~ @ T is shared by every tile: ONE gemm, then each
  // tile applies its own phase column as an uncontracted mul+add rotation.
  auto pt = std::make_shared<std::vector<float>>(static_cast<std::size_t>(2 * kk));
  be::rcgemm(be::Trans::N, k, k, k, p.data().data(), k, t.re.data().data(),
             t.im.data().data(), k, 0.0f, pt->data(), pt->data() + kk, k);
  std::vector<float> outr = empty_buffer(tkk), outi = empty_buffer(tkk);
  {
    const float* ptr_ = pt->data();
    const float* pti_ = pt->data() + kk;
    const float* c = tab->c.data();
    const float* s = tab->s.data();
    float* orp = outr.data();
    float* oip = outi.data();
    be::for_each_index(nt * k, [=](std::int64_t row) {
      const std::int64_t ti = row / k, i = row % k;
      const float* ct = c + ti * k;
      const float* st = s + ti * k;
      const float* pr = ptr_ + i * k;
      const float* pi = pti_ + i * k;
      float* our = orp + row * k;
      float* oui = oip + row * k;
      for (std::int64_t j = 0; j < k; ++j) {
        const float re = pr[j], im = pi[j];
        our[j] = re * ct[j] + im * st[j];
        oui[j] = im * ct[j] - re * st[j];
      }
    });
  }
  if (!tracking({&p, &t.re, &t.im, &phi})) {
    return {make_tensor(std::move(outr), {nt, k, k}, false),
            make_tensor(std::move(outi), {nt, k, k}, false)};
  }
  Tensor node = make_op(
      empty_buffer(2 * tkk), {2, nt, k, k},
      {p, t.re, t.im, phi},
      [p, tr = t.re, ti_ = t.im, phi, tab, pt, k, nt, kk, tkk](TensorImpl& o) {
        const float* gre = o.grad.data();
        const float* gim = o.grad.data() + tkk;
        const float* c = tab->c.data();
        const float* s = tab->s.data();
        const float* ptr_ = pt->data();
        const float* pti_ = pt->data() + kk;
        const bool pt_grad =
            p.requires_grad() || tr.requires_grad() || ti_.requires_grad();
        float* dphi = phi.requires_grad()
                          ? const_cast<Tensor&>(phi).grad().data()
                          : nullptr;
        std::vector<float> gpt(pt_grad ? static_cast<std::size_t>(2 * kk) : 0);
        // Reverse tile order: dP/dT accumulate through the same kernel calls,
        // in the same order, as T per-tile block-transfer backwards.
        for (std::int64_t t2 = nt - 1; t2 >= 0; --t2) {
          const float* gr_t = gre + t2 * kk;
          const float* gi_t = gim + t2 * kk;
          const float* ct = c + t2 * k;
          const float* st = s + t2 * k;
          if (dphi != nullptr) {
            // dphi_j = sum_i (G_re * out_im - G_im * out_re); the output is
            // recomputed from the shared P~T product — same floats as the
            // forward stored.
            be::for_each_index(
                k,
                [=](std::int64_t j) {
                  double acc = 0.0;
                  for (std::int64_t i = 0; i < k; ++i) {
                    const float re =
                        ptr_[i * k + j] * ct[j] + pti_[i * k + j] * st[j];
                    const float im =
                        pti_[i * k + j] * ct[j] - ptr_[i * k + j] * st[j];
                    acc += static_cast<double>(gr_t[i * k + j]) * im -
                           static_cast<double>(gi_t[i * k + j]) * re;
                  }
                  dphi[t2 * k + j] += static_cast<float>(acc);
                },
                /*grain=*/1, 6 * k * be::kElemCost);
          }
          if (!pt_grad) continue;
          // Chain through this tile's column phase: G_PT = G * e^{+i phi_j}.
          {
            float* gptr = gpt.data();
            float* gpti = gpt.data() + kk;
            be::for_each_index(kk, [=](std::int64_t i) {
              const std::int64_t j = i % k;
              gptr[i] = gr_t[i] * ct[j] - gi_t[i] * st[j];
              gpti[i] = gi_t[i] * ct[j] + gr_t[i] * st[j];
            });
          }
          if (p.requires_grad()) {
            auto& gp = const_cast<Tensor&>(p).grad();
            be::gemm(be::Trans::N, be::Trans::T, k, k, k, 1.0f, gpt.data(), k,
                     tr.data().data(), k, 1.0f, gp.data(), k);
            be::gemm(be::Trans::N, be::Trans::T, k, k, k, 1.0f,
                     gpt.data() + kk, k, ti_.data().data(), k, 1.0f,
                     gp.data(), k);
          }
          if (tr.requires_grad() || ti_.requires_grad()) {
            auto& gtr = const_cast<Tensor&>(tr).grad();
            auto& gti = const_cast<Tensor&>(ti_).grad();
            be::rcgemm(be::Trans::T, k, k, k, p.data().data(), k, gpt.data(),
                       gpt.data() + kk, k, 1.0f, gtr.data(), gti.data(), k);
          }
        }
      });
  return {plane_view(node, std::move(outr), {nt, k, k}, 0),
          plane_view(node, std::move(outi), {nt, k, k}, tkk)};
}

CxTensor bcmix_identity(const Tensor& skip, const Tensor& select,
                        const CxTensor& block) {
  check(skip.numel() == 1 && select.numel() == 1,
        "bcmix_identity: skip/select must be scalars");
  check(block.re.ndim() == 3 && block.dim(1) == block.dim(2),
        "bcmix_identity: block must be [T,K,K]");
  const std::int64_t nt = block.dim(0), k = block.dim(1);
  const float sk = skip.data()[0];
  const float se = select.data()[0];
  const std::int64_t kk = k * k;
  const std::size_t tkk = static_cast<std::size_t>(nt * kk);
  std::vector<float> outr = empty_buffer(tkk), outi = empty_buffer(tkk);
  {
    const float* brp = block.re.data().data();
    const float* bip = block.im.data().data();
    float* orp = outr.data();
    float* oip = outi.data();
    be::for_each_index(static_cast<std::int64_t>(tkk), [=](std::int64_t i) {
      orp[i] = se * brp[i];
      oip[i] = se * bip[i];
    });
    be::for_each_index(nt * k, [=](std::int64_t row) {
      const std::int64_t ti = row / k, d = row % k;
      orp[ti * kk + d * k + d] += sk;
    });
  }
  if (!tracking({&skip, &select, &block.re, &block.im})) {
    return {make_tensor(std::move(outr), {nt, k, k}, false),
            make_tensor(std::move(outi), {nt, k, k}, false)};
  }
  Tensor node = make_op(
      empty_buffer(2 * tkk), {2, nt, k, k},
      {skip, select, block.re, block.im},
      [skip, select, br = block.re, bi = block.im, nt, k, kk,
       tkk](TensorImpl& o) {
        const float* gre = o.grad.data();
        const float* gim = o.grad.data() + tkk;
        if (br.requires_grad()) {
          const float se = select.data()[0];
          float* d = const_cast<Tensor&>(br).grad().data();
          be::for_each_index(static_cast<std::int64_t>(tkk),
                             [=](std::int64_t i) { d[i] += se * gre[i]; });
        }
        if (bi.requires_grad()) {
          const float se = select.data()[0];
          float* d = const_cast<Tensor&>(bi).grad().data();
          be::for_each_index(static_cast<std::int64_t>(tkk),
                             [=](std::int64_t i) { d[i] += se * gim[i]; });
        }
        const bool skg = skip.requires_grad();
        const bool seg = select.requires_grad();
        if (!skg && !seg) return;
        const float* brd = br.data().data();
        const float* bid = bi.data().data();
        // Reverse tile order; within a tile the IM-plane select term lands
        // first, then the RE-plane skip/select terms (per-tile node order).
        for (std::int64_t t2 = nt - 1; t2 >= 0; --t2) {
          if (seg) {
            double acc = 0.0;
            for (std::int64_t i = 0; i < kk; ++i) {
              acc += static_cast<double>(gim[t2 * kk + i]) * bid[t2 * kk + i];
            }
            const_cast<Tensor&>(select).grad()[0] += static_cast<float>(acc);
          }
          if (skg) {
            double acc = 0.0;
            for (std::int64_t d = 0; d < k; ++d) {
              acc += gre[t2 * kk + d * k + d];
            }
            const_cast<Tensor&>(skip).grad()[0] += static_cast<float>(acc);
          }
          if (seg) {
            double acc = 0.0;
            for (std::int64_t i = 0; i < kk; ++i) {
              acc += static_cast<double>(gre[t2 * kk + i]) * brd[t2 * kk + i];
            }
            const_cast<Tensor&>(select).grad()[0] += static_cast<float>(acc);
          }
        }
      });
  return {plane_view(node, std::move(outr), {nt, k, k}, 0),
          plane_view(node, std::move(outi), {nt, k, k}, tkk)};
}

CxTensor bcscale_cols(const CxTensor& a, const Tensor& s) {
  return {bscale_cols(a.re, s), bscale_cols(a.im, s)};
}

CxTensor brow_normalize(const CxTensor& a, float eps) {
  check(a.re.ndim() == 3, "brow_normalize: expects [T,K,K]");
  const std::int64_t t = a.dim(0), n = a.dim(1), m = a.dim(2);
  // Row norms don't cross tile boundaries, so the stacked rows normalize as
  // one [T*K, K] matrix through the 2-D path (reshape is a pure pass-through
  // for both values and gradients).
  CxTensor flat = {reshape(a.re, {t * n, m}), reshape(a.im, {t * n, m})};
  CxTensor out = row_normalize(flat, eps);
  return {reshape(out.re, {t, n, m}), reshape(out.im, {t, n, m})};
}

CxTensor bcol_normalize(const CxTensor& a, float eps) {
  check(a.re.ndim() == 3, "bcol_normalize: expects [T,K,K]");
  Tensor norm2 = add(tile_col_sum(square(a.re)), tile_col_sum(square(a.im)));
  Tensor inv = reciprocal(sqrt(add_scalar(norm2, eps)));
  return {bscale_cols(a.re, inv), bscale_cols(a.im, inv)};
}

}  // namespace adept::ag
