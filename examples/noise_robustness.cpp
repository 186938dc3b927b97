// Variation-aware training and phase-noise robustness (paper Fig. 4 flow).
//
// Trains the proxy CNN with three 8x8 PTC weight implementations (MZI mesh,
// butterfly mesh, and a randomly sampled compact topology as an ADEPT
// stand-in), all with Gaussian phase-noise injection (sigma = 0.02) during
// training, then sweeps test-time phase noise. The deep MZI mesh degrades
// fastest — the effect Fig. 4 reports.
#include <cstdio>
#include <iostream>
#include <memory>

#include "common/env.h"
#include "common/table.h"
#include "data/synthetic.h"
#include "nn/train.h"
#include "photonics/builders.h"

namespace data = adept::data;
namespace nn = adept::nn;
namespace ph = adept::photonics;

int main() {
  const int train_n = adept::env_int("ADEPT_EXAMPLE_TRAIN", 320);
  auto spec = data::DatasetSpec::mnist_like();
  data::SyntheticDataset train(spec, train_n, 1);
  data::SyntheticDataset test(spec, train_n / 2, 2);

  adept::Rng topo_rng(5);
  std::vector<std::pair<std::string, std::shared_ptr<const ph::PtcTopology>>> designs;
  designs.emplace_back("MZI", std::make_shared<ph::PtcTopology>(ph::clements_mzi(8)));
  designs.emplace_back("FFT", std::make_shared<ph::PtcTopology>(ph::butterfly(8)));
  designs.emplace_back("compact",
                       std::make_shared<ph::PtcTopology>(ph::random_topology(8, 5, topo_rng, 0.6)));

  adept::Table table({"design", "sigma=0.00", "0.02", "0.04", "0.06", "0.08", "0.10"});
  for (auto& [name, topo] : designs) {
    adept::Rng rng(33);
    auto model = nn::make_proxy_cnn(1, 28, 10, nn::PtcBinding::fixed(topo), rng, 6);
    nn::TrainConfig config;
    config.epochs = 3;
    config.batch_size = 32;
    config.train_phase_noise = 0.02;  // variation-aware training
    nn::train_classifier(model, train, test, config);
    std::vector<std::string> row = {name};
    for (double sigma : {0.0, 0.02, 0.04, 0.06, 0.08, 0.10}) {
      double acc = 0.0;
      const int runs = 4;
      for (int r = 0; r < runs; ++r) {
        acc += nn::evaluate_accuracy(model, test, 64, sigma,
                                     static_cast<std::uint64_t>(100 + r));
      }
      row.push_back(adept::Table::fmt(acc / runs, 3));
    }
    table.add_row(row);
    std::printf("trained %s\n", name.c_str());
  }
  std::printf("\nAccuracy vs test-time phase noise (variation-aware trained):\n");
  table.print(std::cout);
  return 0;
}
