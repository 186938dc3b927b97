#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "common/rng.h"
#include "common/version.h"
#include "core/supermesh.h"
#include "nn/onn_layers.h"
#include "optim/optimizer.h"
#include "photonics/builders.h"

namespace {

namespace ag = adept::ag;
namespace core = adept::core;
namespace nn = adept::nn;
namespace ph = adept::photonics;
using adept::Rng;
using ag::Tensor;

Tensor random_input(std::vector<std::int64_t> shape, Rng& rng) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  std::vector<float> data(static_cast<std::size_t>(n));
  for (auto& v : data) v = static_cast<float>(rng.uniform(-1, 1));
  return ag::make_tensor(std::move(data), std::move(shape), false);
}

std::shared_ptr<const ph::PtcTopology> butterfly8() {
  return std::make_shared<ph::PtcTopology>(ph::butterfly(8));
}

TEST(PtcBinding, Factories) {
  EXPECT_EQ(nn::PtcBinding::dense().kind, nn::PtcBinding::Kind::dense);
  auto fixed = nn::PtcBinding::fixed(butterfly8());
  EXPECT_EQ(fixed.kind, nn::PtcBinding::Kind::ptc);
  EXPECT_EQ(fixed.k, 8);
}

TEST(ONNLinear, DenseModeBehavesLikeLinear) {
  Rng rng(1);
  nn::ONNLinear fc(6, 4, nn::PtcBinding::dense(), rng);
  Tensor x = random_input({3, 6}, rng);
  Tensor y = fc.forward(x);
  EXPECT_EQ(y.dim(0), 3);
  EXPECT_EQ(y.dim(1), 4);
  EXPECT_EQ(fc.parameters().size(), 2u);  // weight + bias
}

TEST(ONNLinear, PtcModeShapesWithPadding) {
  Rng rng(2);
  // 10 in / 12 out with K=8 -> 2x2 tile grid, sliced back to 12x10.
  nn::ONNLinear fc(10, 12, nn::PtcBinding::fixed(butterfly8()), rng);
  Tensor x = random_input({5, 10}, rng);
  Tensor y = fc.forward(x);
  EXPECT_EQ(y.dim(0), 5);
  EXPECT_EQ(y.dim(1), 12);
}

TEST(ONNLinear, PtcParameterCountFormula) {
  Rng rng(3);
  auto topo = butterfly8();  // 3 blocks per unitary, K=8
  nn::ONNLinear fc(8, 8, nn::PtcBinding::fixed(topo), rng, /*bias=*/false);
  // 1 tile: phases 2 unitaries * 3 blocks * [8] + sigma [1,8] = 7 tensors
  EXPECT_EQ(fc.parameters().size(), 7u);
}

TEST(ONNLinear, PtcWeightMatchesCircuitSimulation) {
  // The autograd-built weight must equal the complex<double> circuit-level
  // transfer: W = Re(U Sigma V) with the same phases.
  Rng rng(4);
  auto topo = butterfly8();
  nn::ONNLinear fc(8, 8, nn::PtcBinding::fixed(topo), rng, /*bias=*/false);
  // Extract the layer's parameters: 3 phi_u, 3 phi_v, 1 sigma (order per
  // PtcWeight::parameters: all phi_u tiles, all phi_v tiles, sigmas).
  auto params = fc.parameters();
  ASSERT_EQ(params.size(), 7u);
  ph::MeshPhases u_phases, v_phases;
  for (int b = 0; b < 3; ++b) {
    std::vector<double> phi(8);
    for (int i = 0; i < 8; ++i) {
      phi[static_cast<std::size_t>(i)] =
          params[static_cast<std::size_t>(b)].data()[static_cast<std::size_t>(i)];
    }
    u_phases.per_block.push_back(phi);
  }
  for (int b = 0; b < 3; ++b) {
    std::vector<double> phi(8);
    for (int i = 0; i < 8; ++i) {
      phi[static_cast<std::size_t>(i)] =
          params[static_cast<std::size_t>(3 + b)].data()[static_cast<std::size_t>(i)];
    }
    v_phases.per_block.push_back(phi);
  }
  std::vector<double> sigma(8);
  for (int i = 0; i < 8; ++i) {
    sigma[static_cast<std::size_t>(i)] = params[6].data()[static_cast<std::size_t>(i)];
  }
  const ph::CMat w_ref = ph::weight_transfer(*topo, u_phases, v_phases, sigma);
  // Probe the layer with identity input to read its effective weight.
  Tensor eye = Tensor::eye(8);
  Tensor y = fc.forward(eye);  // y = I @ W^T -> y[i][j] = W[j][i]
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_NEAR(y.at(i, j), w_ref.at(j, i).real(), 5e-4)
          << "mismatch at (" << i << "," << j << ")";
    }
  }
}

TEST(ONNLinear, MziTopologyAlsoMatchesCircuit) {
  Rng rng(5);
  auto topo = std::make_shared<ph::PtcTopology>(ph::clements_mzi(4));
  nn::ONNLinear fc(4, 4, nn::PtcBinding::fixed(topo), rng, false);
  Tensor eye = Tensor::eye(4);
  Tensor y = fc.forward(eye);
  EXPECT_EQ(y.dim(0), 4);
  // Smoke: output finite and weight nonzero.
  double norm = 0;
  for (float v : y.data()) {
    ASSERT_TRUE(std::isfinite(v));
    norm += std::fabs(v);
  }
  EXPECT_GT(norm, 1e-3);
}

TEST(ONNLinear, GradientsReachPhasesAndSigma) {
  Rng rng(6);
  nn::ONNLinear fc(8, 8, nn::PtcBinding::fixed(butterfly8()), rng);
  Tensor x = random_input({2, 8}, rng);
  Tensor loss = ag::sum(ag::square(fc.forward(x)));
  loss.backward();
  for (auto& p : fc.parameters()) {
    EXPECT_TRUE(p.has_grad());
    bool nonzero = false;
    for (float g : p.grad()) nonzero = nonzero || g != 0.0f;
    EXPECT_TRUE(nonzero);
  }
}

TEST(ONNLinear, PhaseNoiseChangesOutputsStochastically) {
  Rng rng(7);
  nn::ONNLinear fc(8, 8, nn::PtcBinding::fixed(butterfly8()), rng, false);
  Tensor x = random_input({2, 8}, rng);
  ag::NoGradGuard guard;
  Tensor nominal = fc.forward(x);
  fc.set_phase_noise(0.05, 123);
  Tensor noisy1 = fc.forward(x);
  Tensor noisy2 = fc.forward(x);
  double d01 = 0, d12 = 0;
  for (std::size_t i = 0; i < nominal.data().size(); ++i) {
    d01 += std::fabs(nominal.data()[i] - noisy1.data()[i]);
    d12 += std::fabs(noisy1.data()[i] - noisy2.data()[i]);
  }
  EXPECT_GT(d01, 1e-4);  // noise perturbs
  EXPECT_GT(d12, 1e-4);  // fresh noise every forward
  fc.set_phase_noise(0.0, 0);
  Tensor back = fc.forward(x);
  for (std::size_t i = 0; i < nominal.data().size(); ++i) {
    EXPECT_FLOAT_EQ(back.data()[i], nominal.data()[i]);
  }
}

TEST(ONNConv2d, GeometryAndParams) {
  Rng rng(8);
  nn::ONNConv2d conv(1, 4, 3, nn::PtcBinding::fixed(butterfly8()), rng, 1, 1);
  Tensor x = random_input({2, 1, 6, 6}, rng);
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 4);
  EXPECT_EQ(y.dim(2), 6);
  EXPECT_GT(conv.parameters().size(), 1u);
}

TEST(ONNConv2d, DenseMatchesConvSemantics) {
  Rng rng(9);
  nn::ONNConv2d conv(1, 2, 2, nn::PtcBinding::dense(), rng, 1, 0, false);
  Tensor x = Tensor::from_data({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor y = conv.forward(x);
  const auto& w = conv.parameters()[0].data();  // [2 out, 4 taps] row-major
  EXPECT_NEAR(y.data()[0], 1 * w[0] + 2 * w[1] + 3 * w[2] + 4 * w[3], 1e-5);
  EXPECT_NEAR(y.data()[1], 1 * w[4] + 2 * w[5] + 3 * w[6] + 4 * w[7], 1e-5);
}

TEST(ONNLinear, SuperMeshBindingTrainsEndToEnd) {
  Rng rng(10);
  core::SuperMeshConfig config;
  config.k = 4;
  config.super_blocks_per_unitary = 2;
  config.always_on_per_unitary = 1;
  core::SuperMesh mesh(config, rng);
  nn::ONNLinear fc(4, 4, nn::PtcBinding::searched(&mesh), rng);
  mesh.begin_step(1.0, rng);
  Tensor x = random_input({3, 4}, rng);
  Tensor loss = ag::sum(ag::square(fc.forward(x)));
  loss.backward();
  // Gradients reach both the layer weights and the mesh's search params.
  bool phase_grad = false;
  for (auto& p : fc.parameters()) phase_grad = phase_grad || p.has_grad();
  EXPECT_TRUE(phase_grad);
  bool arch_grad = false;
  for (auto& t : mesh.arch_params()) arch_grad = arch_grad || t.has_grad();
  EXPECT_TRUE(arch_grad);
}

// A pin is tied to its mesh's step count, not to the process-wide
// parameter version: another rank's mesh stepping and another rank's
// optimizer stepping bump that version, and the pin must survive both.
TEST(WeightPin, ValidUntilItsOwnMeshStepsAgain) {
  core::SuperMeshConfig config;
  config.k = 4;
  config.super_blocks_per_unitary = 2;
  config.always_on_per_unitary = 1;
  Rng rng(12);
  core::SuperMesh mesh(config, rng);
  nn::PtcWeight w(4, 6, nn::PtcBinding::searched(&mesh), rng);
  mesh.begin_step(1.0, rng);
  // No pins unless the step's pins were opened: each call builds afresh.
  w.pin_step_weight();
  EXPECT_TRUE(mesh.weight_pins().empty());
  EXPECT_NE(w.weight_expr().impl(), w.weight_expr().impl());

  mesh.open_weight_pins();
  w.pin_step_weight();
  ASSERT_EQ(mesh.weight_pins().size(), 1u);
  const Tensor leaf = mesh.weight_pins()[0].leaf;
  EXPECT_TRUE(leaf.requires_grad());
  EXPECT_EQ(leaf.data(), mesh.weight_pins()[0].graph.data());
  EXPECT_EQ(w.weight_expr().impl(), leaf.impl());
  EXPECT_THROW(mesh.pin_weight(&w, w.weight_expr()), std::invalid_argument);

  const std::uint64_t version = adept::param_version();
  std::thread other([&config] {
    Rng r(13);
    core::SuperMesh other_mesh(config, r);
    other_mesh.begin_step(1.0, r);
    Tensor p = Tensor::full({3}, 1.0f, /*requires_grad=*/true);
    p.grad().assign(3, 0.5f);
    adept::optim::Adam opt({p}, 0.1);
    opt.step();
  });
  other.join();
  EXPECT_GT(adept::param_version(), version);
  EXPECT_TRUE(mesh.weight_pins_open());
  EXPECT_EQ(w.weight_expr().impl(), leaf.impl());

  // The mesh's next step never returns the previous step's pin, whether
  // or not its pins are opened again.
  mesh.begin_step(1.0, rng);
  EXPECT_FALSE(mesh.weight_pins_open());
  EXPECT_FALSE(mesh.pinned_weight(&w).defined());
  EXPECT_NE(w.weight_expr().impl(), leaf.impl());
  mesh.open_weight_pins();
  EXPECT_FALSE(mesh.pinned_weight(&w).defined());
  w.pin_step_weight();
  EXPECT_NE(w.weight_expr().impl(), leaf.impl());
  mesh.close_weight_pins();
  EXPECT_FALSE(mesh.pinned_weight(&w).defined());
}

}  // namespace
