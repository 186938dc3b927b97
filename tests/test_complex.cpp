#include <gtest/gtest.h>

#include <cmath>

#include "autograd/complex.h"
#include "autograd/gradcheck.h"
#include "common/rng.h"
#include "mesh_reference.h"
#include "photonics/devices.h"
#include "photonics/linalg.h"

namespace {

namespace ag = adept::ag;
namespace ph = adept::photonics;
namespace ref = adept::test::ref;
using adept::Rng;
using ag::CxTensor;
using ag::Tensor;

CxTensor random_cx(const std::vector<std::int64_t>& shape, Rng& rng, bool rg = true) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  auto mk = [&]() {
    std::vector<float> d(static_cast<std::size_t>(n));
    for (auto& v : d) v = static_cast<float>(rng.uniform(-1, 1));
    return ag::make_tensor(std::move(d), shape, rg);
  };
  return {mk(), mk()};
}

CxTensor random_cx(std::int64_t r, std::int64_t c, Rng& rng, bool rg = true) {
  return random_cx({r, c}, rng, rg);
}

// A [K,K] matrix, or the first tile of a [T,K,K] stack.
ph::CMat to_cmat(const CxTensor& t) {
  const std::int64_t r = t.dim(t.re.ndim() - 2), c = t.dim(t.re.ndim() - 1);
  ph::CMat m(r, c);
  for (std::int64_t i = 0; i < r; ++i) {
    for (std::int64_t j = 0; j < c; ++j) {
      const auto e = static_cast<std::size_t>(i * c + j);
      m.at(i, j) = ph::cplx(t.re.data()[e], t.im.data()[e]);
    }
  }
  return m;
}

ph::CMat to_cmat(const Tensor& real) {
  return to_cmat(CxTensor{real, Tensor::zeros(real.shape())});
}

TEST(Complex, ExpNegIUnitMagnitude) {
  // The SuperMesh block transfer of P = T = I is the bare phase column
  // R(phi) = diag(exp(-i*phi)).
  const std::int64_t k = 4;
  Tensor phi = Tensor::from_data({1, k}, {0.0f, 1.0f, -2.0f, 3.14159265f});
  CxTensor eye = CxTensor::eye(k);
  CxTensor r = ag::bblock_transfer(eye.re, eye, phi);
  for (std::int64_t i = 0; i < k; ++i) {
    const auto d = static_cast<std::size_t>(i * k + i);
    const float mag = r.re.data()[d] * r.re.data()[d] + r.im.data()[d] * r.im.data()[d];
    EXPECT_NEAR(mag, 1.0f, 1e-5);
  }
  EXPECT_NEAR(r.re.data()[0], 1.0f, 1e-6);
  EXPECT_NEAR(r.im.data()[0], 0.0f, 1e-6);
  EXPECT_NEAR(r.im.data()[k + 1], -std::sin(1.0f), 1e-5);  // exp(-i*phi)
}

TEST(Complex, PhaseColumnMatchesDeviceModel) {
  // The fixed-topology block transfer of P*T = I is the phase column.
  Tensor phi = Tensor::from_data({1, 3}, {0.3f, -0.7f, 2.1f});
  CxTensor r = ag::bcolphase_scale(CxTensor::eye(3), phi);
  const ph::CMat ref = ph::phase_column_matrix({0.3, -0.7, 2.1});
  EXPECT_LT(ref.max_abs_diff(to_cmat(r)), 1e-5);
}

TEST(Complex, CouplerColumnMatchesDeviceModel) {
  // 2 slots at parity 0 on K=4, t = (0.8, 0.6)
  Tensor t = Tensor::from_data({2}, {0.8f, 0.6f});
  CxTensor m = ag::coupler_column(t, 4, 0);
  const ph::CMat ref =
      ph::coupler_column_matrix(4, 0, {true, true}, {0.8, 0.6});
  EXPECT_LT(ref.max_abs_diff(to_cmat(m)), 1e-5);
}

TEST(Complex, CouplerColumnParityOnePassThrough) {
  Tensor t = Tensor::from_data({1}, {0.5f});
  CxTensor m = ag::coupler_column(t, 4, 1);
  // rows 0 and 3 are pass-through
  EXPECT_FLOAT_EQ(m.re.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.re.at(3, 3), 1.0f);
  EXPECT_FLOAT_EQ(m.im.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(m.re.at(1, 1), 0.5f);
}

TEST(Complex, CouplerColumnIsUnitary) {
  Tensor t = Tensor::from_data({3}, {0.7071f, 0.3f, 0.95f});
  CxTensor m = ag::coupler_column(t, 6, 0);
  EXPECT_LT(to_cmat(m).unitarity_error(), 1e-5);
}

TEST(Complex, CouplerColumnGradcheck) {
  Rng rng(3);
  std::vector<float> tv = {0.3f, 0.8f};
  Tensor t = ag::make_tensor(std::move(tv), {2}, true);
  auto fn = [](const std::vector<Tensor>& in) {
    CxTensor m = ag::coupler_column(in[0], 4, 0);
    return ag::add(ag::sum(ag::square(m.re)), ag::sum(ag::square(m.im)));
  };
  const auto result = ag::gradcheck(fn, {t});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Complex, PhaseChainGradcheck) {
  // Gradient flows through exp(-i phi) into a complex matmul chain:
  // (F @ R(phi)) @ G, checked against the double-precision device model.
  Rng rng(4);
  std::vector<float> pv(4);
  for (auto& p : pv) p = static_cast<float>(rng.uniform(-3, 3));
  Tensor phi = ag::make_tensor(std::move(pv), {1, 4}, true);
  CxTensor fixed = random_cx(4, 4, rng, false);
  CxTensor right = random_cx(4, 4, rng, false);
  auto chain = [&fixed, &right](const Tensor& p) {
    return ag::bcmatmul(ag::bcolphase_scale(fixed, p), right);
  };
  std::vector<double> phases(phi.data().begin(), phi.data().end());
  const ph::CMat model = to_cmat(fixed) * ph::phase_column_matrix(phases) * to_cmat(right);
  EXPECT_LT(model.max_abs_diff(to_cmat(chain(phi))), 1e-5);
  auto fn = [&chain](const std::vector<Tensor>& in) {
    CxTensor prod = chain(in[0]);
    return ag::add(ag::sum(ag::square(prod.re)), ag::sum(ag::square(prod.im)));
  };
  EXPECT_TRUE(ag::gradcheck(fn, {phi}).ok);
}

TEST(Complex, RowNormalizeUnitRows) {
  Rng rng(6);
  CxTensor a = random_cx(4, 4, rng, false);
  CxTensor n = ag::row_normalize(a);
  for (int i = 0; i < 4; ++i) {
    double norm = 0;
    for (int j = 0; j < 4; ++j) {
      norm += static_cast<double>(n.re.at(i, j)) * n.re.at(i, j) +
              static_cast<double>(n.im.at(i, j)) * n.im.at(i, j);
    }
    EXPECT_NEAR(norm, 1.0, 1e-4);
  }
}

// ---- batched products production relies on --------------------------------

TEST(ComplexFused, CmatmulProducesSingleComputeNode) {
  Rng rng(22);
  CxTensor a = random_cx({1, 4, 4}, rng);
  CxTensor b = random_cx(4, 4, rng);
  const std::size_t before = ag::debug::op_nodes_created();
  CxTensor c = ag::bcmatmul(a, b);
  const std::size_t fused_nodes = ag::debug::op_nodes_created() - before;
  // One packed compute node + the two plane views that route its gradient.
  EXPECT_EQ(fused_nodes, 3u);
  // Both planes are views of the SAME compute node, which owns the four
  // operand planes: the product is exactly 1 tape node.
  ASSERT_EQ(c.re.impl()->parents.size(), 1u);
  ASSERT_EQ(c.im.impl()->parents.size(), 1u);
  EXPECT_EQ(c.re.impl()->parents[0].impl(), c.im.impl()->parents[0].impl());
  EXPECT_EQ(c.re.impl()->parents[0].impl()->parents.size(), 4u);
}

TEST(ComplexFused, CmatmulDroppedImagPlaneStillRoutesGrads) {
  // The weight builds keep only w.re; gradients must still reach both
  // operands of the final product.
  Rng rng(23);
  CxTensor a = random_cx({2, 3, 3}, rng);
  CxTensor b = random_cx({2, 3, 3}, rng);
  auto fn = [](const std::vector<Tensor>& in) {
    CxTensor c = ag::bcmatmul({in[0], in[1]}, {in[2], in[3]});
    return ag::sum(ag::square(c.re));  // imaginary plane dropped
  };
  EXPECT_TRUE(ag::gradcheck(fn, {a.re, a.im, b.re, b.im}).ok);
}

// ---- the per-tile reference ops (mesh_reference.h) -------------------------

TEST(Complex, CmatmulMatchesReference) {
  Rng rng(1);
  CxTensor a = random_cx(3, 4, rng, false);
  CxTensor b = random_cx(4, 2, rng, false);
  CxTensor c = ref::cmatmul(a, b);
  ph::CMat model = to_cmat(a) * to_cmat(b);
  EXPECT_LT(model.max_abs_diff(to_cmat(c)), 1e-5);
}

TEST(Complex, ColNormalizeUnitCols) {
  Rng rng(7);
  CxTensor a = random_cx(4, 4, rng, false);
  CxTensor n = ref::col_normalize(a);
  for (int j = 0; j < 4; ++j) {
    double norm = 0;
    for (int i = 0; i < 4; ++i) {
      norm += static_cast<double>(n.re.at(i, j)) * n.re.at(i, j) +
              static_cast<double>(n.im.at(i, j)) * n.im.at(i, j);
    }
    EXPECT_NEAR(norm, 1.0, 1e-4);
  }
}

TEST(ComplexFused, CmatmulMatchesUnfusedForwardAndGrads) {
  Rng rng(20);
  CxTensor a = random_cx(5, 4, rng);
  CxTensor b = random_cx(4, 3, rng);
  CxTensor fused = ref::cmatmul(a, b);
  // The unfused lowering: four real matmuls and two combines.
  CxTensor unfused = {ag::sub(ag::matmul(a.re, b.re), ag::matmul(a.im, b.im)),
                      ag::add(ag::matmul(a.re, b.im), ag::matmul(a.im, b.re))};
  EXPECT_LT(to_cmat(unfused).max_abs_diff(to_cmat(fused)), 1e-5);

  // Same scalar head on both lowerings must give the same parameter grads.
  auto head = [](const CxTensor& c) {
    return ag::add(ag::sum(ag::square(c.re)), ag::sum(ag::square(c.im)));
  };
  head(fused).backward();
  std::vector<std::vector<float>> fused_grads = {a.re.grad(), a.im.grad(),
                                                 b.re.grad(), b.im.grad()};
  for (auto* t : {&a.re, &a.im, &b.re, &b.im}) t->zero_grad();
  head(unfused).backward();
  const std::vector<std::vector<float>*> unfused_grads = {
      &a.re.grad(), &a.im.grad(), &b.re.grad(), &b.im.grad()};
  for (std::size_t g = 0; g < fused_grads.size(); ++g) {
    for (std::size_t i = 0; i < fused_grads[g].size(); ++i) {
      EXPECT_NEAR(fused_grads[g][i], (*unfused_grads[g])[i], 1e-5f)
          << "grad " << g << " elem " << i;
    }
  }
}

TEST(ComplexFused, CmatmulGradcheck) {
  Rng rng(21);
  CxTensor a = random_cx(3, 4, rng);
  CxTensor b = random_cx(4, 2, rng);
  auto fn = [](const std::vector<Tensor>& in) {
    CxTensor c = ref::cmatmul({in[0], in[1]}, {in[2], in[3]});
    return ag::add(ag::sum(ag::square(c.re)), ag::sum(ag::square(c.im)));
  };
  EXPECT_TRUE(ag::gradcheck(fn, {a.re, a.im, b.re, b.im}).ok);
}

TEST(ComplexFused, BlockTransferMatchesComposition) {
  Rng rng(24);
  const std::int64_t k = 6;
  CxTensor t = random_cx(k, k, rng);
  Tensor p = random_cx(k, k, rng, true).re;
  std::vector<float> pv(static_cast<std::size_t>(k));
  for (auto& v : pv) v = static_cast<float>(rng.uniform(-3, 3));
  Tensor phi = ag::make_tensor(std::move(pv), {k}, true);

  CxTensor fused = ref::block_transfer(p, t, phi);
  // Device model: P @ T @ R(phi) in double precision.
  std::vector<double> phases(phi.data().begin(), phi.data().end());
  const ph::CMat model = to_cmat(p) * to_cmat(t) * ph::phase_column_matrix(phases);
  EXPECT_LT(model.max_abs_diff(to_cmat(fused)), 1e-5);
}

TEST(ComplexFused, BlockTransferGradcheck) {
  Rng rng(25);
  const std::int64_t k = 4;
  CxTensor t = random_cx(k, k, rng);
  Tensor p = random_cx(k, k, rng, true).re;
  std::vector<float> pv(static_cast<std::size_t>(k));
  for (auto& v : pv) v = static_cast<float>(rng.uniform(-3, 3));
  Tensor phi = ag::make_tensor(std::move(pv), {k}, true);
  auto fn = [](const std::vector<Tensor>& in) {
    CxTensor b = ref::block_transfer(in[0], {in[1], in[2]}, in[3]);
    return ag::add(ag::sum(ag::square(b.re)), ag::sum(ag::square(b.im)));
  };
  EXPECT_TRUE(ag::gradcheck(fn, {p, t.re, t.im, phi}).ok);
}

TEST(ComplexFused, CmixIdentityGradcheck) {
  Rng rng(26);
  const std::int64_t k = 4;
  CxTensor block = random_cx(k, k, rng);
  Tensor skip = Tensor::scalar(0.3f, true);
  Tensor select = Tensor::scalar(0.7f, true);
  // Value: skip * I + select * block.
  CxTensor mixed = ref::cmix_identity(skip, select, block);
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < k; ++j) {
      const float expect_re =
          0.7f * block.re.at(i, j) + (i == j ? 0.3f : 0.0f);
      EXPECT_NEAR(mixed.re.at(i, j), expect_re, 1e-6f);
      EXPECT_NEAR(mixed.im.at(i, j), 0.7f * block.im.at(i, j), 1e-6f);
    }
  }
  auto fn = [](const std::vector<Tensor>& in) {
    CxTensor m = ref::cmix_identity(in[0], in[1], {in[2], in[3]});
    return ag::add(ag::sum(ag::square(m.re)), ag::sum(ag::square(m.im)));
  };
  EXPECT_TRUE(ag::gradcheck(fn, {skip, select, block.re, block.im}).ok);
}

TEST(ComplexFused, ColphaseScaleMatchesCmulAndGradchecks) {
  Rng rng(27);
  const std::int64_t k = 5;
  CxTensor a = random_cx(k, k, rng);
  std::vector<float> pv(static_cast<std::size_t>(k));
  for (auto& v : pv) v = static_cast<float>(rng.uniform(-3, 3));
  Tensor phi = ag::make_tensor(std::move(pv), {k}, true);
  CxTensor fused = ref::colphase_scale(a, phi);
  // Device model: A @ R(phi) in double precision.
  std::vector<double> phases(phi.data().begin(), phi.data().end());
  const ph::CMat model = to_cmat(a) * ph::phase_column_matrix(phases);
  EXPECT_LT(model.max_abs_diff(to_cmat(fused)), 1e-5);
  auto fn = [](const std::vector<Tensor>& in) {
    CxTensor c = ref::colphase_scale({in[0], in[1]}, in[2]);
    return ag::add(ag::sum(ag::square(c.re)), ag::sum(ag::square(c.im)));
  };
  EXPECT_TRUE(ag::gradcheck(fn, {a.re, a.im, phi}).ok);
}

}  // namespace
