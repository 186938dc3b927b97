#include <gtest/gtest.h>

#include "core/supermesh.h"
#include "photonics/builders.h"
#include "data/synthetic.h"
#include "nn/train.h"

namespace {

namespace core = adept::core;
namespace data = adept::data;
namespace nn = adept::nn;
using adept::Rng;

data::DatasetSpec tiny_spec() {
  auto spec = data::DatasetSpec::mnist_like();
  spec.height = 14;
  spec.width = 14;
  return spec;
}

TEST(Train, DenseProxyCnnLearnsAboveChance) {
  const auto spec = tiny_spec();
  data::SyntheticDataset train(spec, 256, 1);
  data::SyntheticDataset test(spec, 128, 2);
  Rng rng(1);
  auto model = nn::make_proxy_cnn(1, 14, 10, nn::PtcBinding::dense(), rng, 4);
  nn::TrainConfig config;
  config.epochs = 4;
  config.batch_size = 32;
  config.lr = 3e-3;
  const auto stats = nn::train_classifier(model, train, test, config);
  EXPECT_EQ(stats.train_loss_per_epoch.size(), 4u);
  EXPECT_GT(stats.final_accuracy, 0.3);  // 10-class chance is 0.1
  // Loss should drop.
  EXPECT_LT(stats.train_loss_per_epoch.back(), stats.train_loss_per_epoch.front());
}

TEST(Train, EvaluateAccuracyIsDeterministicWithoutNoise) {
  const auto spec = tiny_spec();
  data::SyntheticDataset test(spec, 64, 3);
  Rng rng(2);
  auto model = nn::make_proxy_cnn(1, 14, 10, nn::PtcBinding::dense(), rng, 4);
  const double a1 = nn::evaluate_accuracy(model, test);
  const double a2 = nn::evaluate_accuracy(model, test);
  EXPECT_DOUBLE_EQ(a1, a2);
}

TEST(Train, VariationAwareTrainingRuns) {
  const auto spec = tiny_spec();
  data::SyntheticDataset train(spec, 96, 4);
  data::SyntheticDataset test(spec, 48, 5);
  Rng rng(3);
  auto topo = std::make_shared<adept::photonics::PtcTopology>(
      adept::photonics::butterfly(8));
  auto model = nn::make_proxy_cnn(1, 14, 10, nn::PtcBinding::fixed(topo), rng, 4);
  nn::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 32;
  config.train_phase_noise = 0.02;
  const auto stats = nn::train_classifier(model, train, test, config);
  EXPECT_EQ(stats.test_accuracy_per_epoch.size(), 1u);
  EXPECT_GE(stats.final_accuracy, 0.0);
}

TEST(Train, NoisyEvaluationDegradesOrMatches) {
  const auto spec = tiny_spec();
  data::SyntheticDataset train(spec, 128, 6);
  data::SyntheticDataset test(spec, 64, 7);
  Rng rng(4);
  auto topo = std::make_shared<adept::photonics::PtcTopology>(
      adept::photonics::clements_mzi(8));
  auto model = nn::make_proxy_cnn(1, 14, 10, nn::PtcBinding::fixed(topo), rng, 4);
  nn::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 32;
  nn::train_classifier(model, train, test, config);
  const double clean = nn::evaluate_accuracy(model, test);
  // Heavy drift on a deep MZI mesh should not *help*.
  const double noisy = nn::evaluate_accuracy(model, test, 128, 0.3, 9);
  EXPECT_LE(noisy, clean + 0.08);
}

TEST(Train, OnnProxyTaskLossAndMetric) {
  const auto spec = tiny_spec();
  data::SyntheticDataset train(spec, 64, 8);
  data::SyntheticDataset val(spec, 64, 9);
  core::SuperMeshConfig mesh_config;
  mesh_config.k = 4;
  mesh_config.super_blocks_per_unitary = 2;
  mesh_config.always_on_per_unitary = 1;
  Rng rng(5);
  core::SuperMesh mesh(mesh_config, rng);
  nn::OnnProxyTask task(train, val, /*batch=*/16, /*width=*/4, /*seed=*/10);
  task.bind(mesh);
  mesh.begin_step(1.0, rng);
  auto loss = task.loss(mesh, /*validation=*/false);
  EXPECT_TRUE(std::isfinite(loss.item()));
  EXPECT_GT(loss.item(), 0.0f);
  EXPECT_FALSE(task.weights().empty());
  const double acc = task.metric(mesh);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(Train, OnnProxyTaskLossOutsideSearchReachesPhases) {
  // ProxyTask::loss is for callers outside the searcher: with no weight
  // pins open its graph must reach every PtcWeight phase and Sigma stack.
  const auto spec = tiny_spec();
  data::SyntheticDataset train(spec, 32, 8);
  data::SyntheticDataset val(spec, 32, 9);
  core::SuperMeshConfig mesh_config;
  mesh_config.k = 8;
  mesh_config.super_blocks_per_unitary = 2;
  mesh_config.always_on_per_unitary = 1;
  Rng rng(5);
  core::SuperMesh mesh(mesh_config, rng);
  nn::OnnProxyTask task(train, val, /*batch=*/16, /*width=*/4, /*seed=*/10);
  task.bind(mesh);
  // At K = 8 and width 4 the phase and Sigma stacks ([T, 8]) are the only
  // task parameters with 8 columns: 2 + 2 + 1 per layer, 3 layers.
  std::vector<adept::ag::Tensor> stacks;
  for (auto& p : task.weights()) {
    if (p.ndim() == 2 && p.dim(1) == 8) stacks.push_back(p);
  }
  ASSERT_EQ(stacks.size(), 15u);
  auto loss_reaches_every_stack = [&] {
    for (auto& p : task.weights()) p.zero_grad();
    task.loss(mesh, /*validation=*/false).backward();
    for (auto& p : stacks) {
      if (!p.has_grad()) return false;
      bool any = false;
      for (float g : p.grad()) any = any || g != 0.0f;
      if (!any) return false;
    }
    return true;
  };
  mesh.begin_step(1.0, rng);
  EXPECT_TRUE(loss_reaches_every_stack());
  // In a step whose pins are open the forward reads the pinned leaves, so
  // the loss stops there...
  mesh.begin_step(1.0, rng);
  mesh.open_weight_pins();
  EXPECT_FALSE(loss_reaches_every_stack());
  EXPECT_EQ(mesh.weight_pins().size(), 3u);
  // ...and the mesh's next step hands out no pin again.
  mesh.begin_step(1.0, rng);
  EXPECT_TRUE(mesh.weight_pins().empty());
  EXPECT_TRUE(loss_reaches_every_stack());
}

TEST(Train, EvaluateAccuracyRestoresTrainingMode) {
  // Regression: evaluate_accuracy used to force set_training(true) on exit,
  // clobbering the caller's mode (OnnProxyTask::metric left the model in
  // training mode for the rest of the search step).
  const auto spec = tiny_spec();
  data::SyntheticDataset test(spec, 32, 11);
  Rng rng(7);
  auto model = nn::make_proxy_cnn(1, 14, 10, nn::PtcBinding::dense(), rng, 4);
  model.set_training(false);
  nn::evaluate_accuracy(model, test);
  EXPECT_FALSE(model.training());
  model.set_training(true);
  nn::evaluate_accuracy(model, test);
  EXPECT_TRUE(model.training());
}

TEST(Train, EvaluateAccuracyPreservesNoiseStream) {
  // Regression: a nominal eval used to stomp the stored phase-noise stream
  // with set_phase_noise(0.0, 0). Two identical models, identically armed:
  // one runs an eval between its noisy forwards, the other does not — their
  // noisy outputs must stay identical.
  const auto spec = tiny_spec();
  data::SyntheticDataset test(spec, 32, 12);
  auto topo = std::make_shared<adept::photonics::PtcTopology>(
      adept::photonics::butterfly(8));
  Rng rng_a(8), rng_b(8);
  auto a = nn::make_proxy_cnn(1, 14, 10, nn::PtcBinding::fixed(topo), rng_a, 4);
  auto b = nn::make_proxy_cnn(1, 14, 10, nn::PtcBinding::fixed(topo), rng_b, 4);
  a.set_phase_noise(0.05, 42);
  b.set_phase_noise(0.05, 42);
  a.set_training(false);
  b.set_training(false);
  adept::ag::NoGradGuard guard;
  std::vector<float> x(14 * 14);
  Rng xr(13);
  for (auto& v : x) v = static_cast<float>(xr.uniform(-1, 1));
  auto input = [&] { return adept::ag::make_tensor(x, {1, 1, 14, 14}, false); };
  // First noisy forward consumes the same drift on both models.
  auto y_a1 = a.net->forward(input());
  auto y_b1 = b.net->forward(input());
  for (std::size_t i = 0; i < y_a1.data().size(); ++i) {
    ASSERT_EQ(y_a1.data()[i], y_b1.data()[i]);
  }
  // Model a runs a nominal eval in between; model b does not.
  nn::evaluate_accuracy(a, test);
  auto y_a2 = a.net->forward(input());
  auto y_b2 = b.net->forward(input());
  for (std::size_t i = 0; i < y_a2.data().size(); ++i) {
    ASSERT_EQ(y_a2.data()[i], y_b2.data()[i])
        << "eval disturbed the noise stream at elem " << i;
  }
}

TEST(Train, NoisyEvaluationRestoresArmedNoise) {
  // A noisy robustness eval (noise_sigma > 0) must pop back the
  // variation-aware training noise it replaced, not leave sigma at 0.
  const auto spec = tiny_spec();
  data::SyntheticDataset test(spec, 32, 14);
  Rng rng(9);
  auto topo = std::make_shared<adept::photonics::PtcTopology>(
      adept::photonics::butterfly(8));
  auto model = nn::make_proxy_cnn(1, 14, 10, nn::PtcBinding::fixed(topo), rng, 4);
  model.set_phase_noise(0.02, 77);
  nn::evaluate_accuracy(model, test, 32, /*noise_sigma=*/0.3, /*noise_seed=*/5);
  for (auto* layer : model.onn_layers) {
    EXPECT_DOUBLE_EQ(layer->phase_noise_state().sigma, 0.02);
  }
}

}  // namespace
