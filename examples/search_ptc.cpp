// ADEPT search on the CNN proxy task (the paper's main flow, reduced scale).
//
// Searches an 8x8 PTC on the synthetic-MNIST proxy with a 2-layer CNN, then
// re-trains a fresh classifier on the frozen searched topology and compares
// it against the MZI and FFT baselines at equal training budget.
//
// Scale knobs (environment): ADEPT_EXAMPLE_TRAIN (default 384 samples),
// ADEPT_EXAMPLE_EPOCHS (default 4 search epochs).
#include <cstdio>
#include <memory>

#include "common/env.h"
#include "core/search.h"
#include "data/synthetic.h"
#include "nn/train.h"
#include "photonics/builders.h"

namespace core = adept::core;
namespace data = adept::data;
namespace nn = adept::nn;
namespace ph = adept::photonics;

int main() {
  const int train_n = adept::env_int("ADEPT_EXAMPLE_TRAIN", 384);
  const int search_epochs = adept::env_int("ADEPT_EXAMPLE_EPOCHS", 4);

  auto spec = data::DatasetSpec::mnist_like();
  data::SyntheticDataset train(spec, train_n, 1);
  data::SyntheticDataset val(spec, train_n / 2, 2);

  std::printf("ADEPT search: K=8, AMF PDK, footprint target [240, 300] k-um^2\n");
  core::SearchConfig config;
  config.mesh.k = 8;
  config.mesh.super_blocks_per_unitary = 0;  // derive from Eq. 16
  config.footprint.pdk = ph::Pdk::amf();
  config.footprint.f_min = 240;
  config.footprint.f_max = 300;
  config.epochs = search_epochs;
  config.warmup_epochs = 1;
  config.spl_epoch = search_epochs / 2;
  config.steps_per_epoch = 12;
  config.alm.rho0 = 1e-4;
  config.seed = 11;

  const auto mesh = core::SuperMeshConfig::from_bounds(
      config.mesh.k, config.footprint, config.max_super_blocks_per_unitary);
  std::printf("SuperMesh: %d super blocks per unitary (%d always-on)\n",
              mesh.super_blocks_per_unitary, mesh.always_on_per_unitary);
  // ADEPT_RANKS > 1 runs the data-parallel search (bit-identical at any
  // rank count); otherwise the one-shard search on this thread.
  const auto result = core::run_search_data_parallel(config, [&] {
    return std::make_unique<nn::OnnProxyTask>(train, val, /*batch=*/24,
                                              /*width=*/6, /*seed=*/5);
  });
  if (adept::comm::use_rank_group()) {
    std::printf("data-parallel search: %d ranks\n", adept::comm::resolve_ranks());
  }
  const auto counts = result.topology.counts();
  std::printf("searched: #CR=%lld #DC=%lld #Blk=%lld footprint=%.0f k-um^2\n",
              static_cast<long long>(counts.cr), static_cast<long long>(counts.dc),
              static_cast<long long>(counts.blocks),
              result.topology.footprint_um2(config.footprint.pdk) / 1000.0);

  // Re-train fresh models: searched vs baselines, same budget.
  nn::TrainConfig tconfig;
  tconfig.epochs = 3;
  tconfig.batch_size = 24;
  auto retrain = [&](std::shared_ptr<const ph::PtcTopology> topo, const char* name) {
    adept::Rng rng(21);
    auto model = nn::make_proxy_cnn(1, 28, 10, nn::PtcBinding::fixed(topo), rng, 6);
    const auto stats = nn::train_classifier(model, train, val, tconfig);
    std::printf("%-10s footprint %7.0f  accuracy %.3f\n", name,
                topo->footprint_um2(config.footprint.pdk) / 1000.0,
                stats.final_accuracy);
  };
  std::printf("\nRe-training comparison (%d epochs each):\n", tconfig.epochs);
  retrain(std::make_shared<ph::PtcTopology>(result.topology), "ADEPT");
  retrain(std::make_shared<ph::PtcTopology>(ph::butterfly(8)), "FFT");
  retrain(std::make_shared<ph::PtcTopology>(ph::clements_mzi(8)), "MZI");
  return 0;
}
