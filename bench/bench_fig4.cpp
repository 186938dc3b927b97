// Fig. 4 reproduction: accuracy vs phase-noise std for 16x16 PTCs with
// variation-aware training (sigma=0.02 during training), mean +/- 3-sigma
// uncertainty over repeated noisy evaluations.
//   (a) 2-layer CNN on synthetic-MNIST
//   (b) LeNet-5 on synthetic-FMNIST
// Shape target: MZI degrades fastest (deepest mesh); FFT and the searched
// ADEPT designs stay flat or degrade gently.
#include <cmath>

#include "backend/parallel.h"
#include "bench_common.h"
#include "obs/metrics.h"

namespace data = adept::data;
namespace nn = adept::nn;
namespace ph = adept::photonics;
using adept::Table;
using adept::bench::BenchScale;

namespace {

struct NoisyEval {
  double mean, band3;  // mean and 3*std over runs
};

NoisyEval eval_under_noise(nn::OnnModel& model, const data::SyntheticDataset& test,
                           double sigma, int runs) {
  double s = 0, s2 = 0;
  for (int r = 0; r < runs; ++r) {
    const double acc =
        nn::evaluate_accuracy(model, test, 64, sigma, static_cast<std::uint64_t>(r * 7 + 1));
    s += acc;
    s2 += acc * acc;
  }
  const double mean = s / runs;
  const double var = std::max(s2 / runs - mean * mean, 0.0);
  return {mean, 3.0 * std::sqrt(var)};
}

// --json mode: end-to-end timings of the Fig. 4 pipeline phases (search,
// variation-aware retraining, noisy evaluation) at reduced scale, for the
// perf trajectory. Schema in bench/README.md.
int run_json_report(const std::string& path) {
  namespace be = adept::backend;
  const BenchScale scale = adept::bench::json_scale();
  const int runs = adept::env_int("ADEPT_BENCH_NOISE_RUNS", 2);
  const int k = 16;
  const ph::Pdk pdk = ph::Pdk::amf();
  const auto spec = data::DatasetSpec::mnist_like();
  data::SyntheticDataset train(spec, scale.train_n, 1);
  data::SyntheticDataset val(spec, scale.test_n, 2);
  data::SyntheticDataset test(spec, scale.test_n, 6);

  adept::bench::JsonReport report("fig4");
  adept::core::SearchResult searched;
  // Telemetry deltas around the first search: the legalization count comes
  // from the metrics registry (counters are process-monotonic, so the delta
  // isolates this search), the final task loss from its gauge.
  auto legalize_count = [] {
    const auto* c = adept::obs::snapshot().find_counter("search.legalize_count");
    return c != nullptr ? c->value : 0;
  };
  const std::uint64_t legalize_before = legalize_count();
  const double search_s = adept::bench::time_once([&] {
    searched = adept::bench::run_search(k, pdk, 672, 840, scale, train, val, 71);
  });
  const adept::obs::MetricsSnapshot search_snap = adept::obs::snapshot();
  const auto* g_task_loss = search_snap.find_gauge("search.task_loss");
  report.add({"search",
              {{"size", static_cast<double>(k)},
               {"wall_s", search_s},
               {"epochs", static_cast<double>(scale.search_epochs)},
               {"task_loss", g_task_loss != nullptr ? g_task_loss->value : 0.0},
               {"legalizations",
                static_cast<double>(legalize_count() - legalize_before)},
               {"footprint", searched.topology.footprint_um2(pdk) / 1000.0}}});

  // Data-parallel trajectory: the same search at explicit rank counts. The
  // sharded numerics are bit-identical across ranks, so wall_s is the only
  // thing that moves; the speedup is hardware-bound (ranks timeslice on
  // fewer cores — see bench/README.md).
  for (int r : {1, 2, 4}) {
    adept::core::SearchResult res;
    const double s = adept::bench::time_once([&] {
      res = adept::bench::run_search(k, pdk, 672, 840, scale, train, val, 71,
                                     /*max_super_blocks=*/10, /*ranks=*/r);
    });
    report.add({"search_r" + std::to_string(r),
                {{"size", static_cast<double>(k)},
                 {"wall_s", s},
                 {"ranks", static_cast<double>(r)},
                 {"epochs", static_cast<double>(scale.search_epochs)},
                 {"footprint", res.topology.footprint_um2(pdk) / 1000.0}}});
  }

  auto topo = std::make_shared<ph::PtcTopology>(searched.topology);
  adept::Rng rng(91);
  nn::OnnModel model = nn::make_proxy_cnn(1, spec.height, 10,
                                          nn::PtcBinding::fixed(topo), rng,
                                          scale.cnn_width);
  nn::TrainConfig config;
  config.epochs = scale.retrain_epochs;
  config.batch_size = scale.batch;
  config.train_phase_noise = 0.02;  // variation-aware training
  nn::TrainStats stats;
  const double retrain_s = adept::bench::time_once(
      [&] { stats = nn::train_classifier(model, train, test, config); });
  const adept::obs::MetricsSnapshot train_snap = adept::obs::snapshot();
  const auto* g_train_loss = train_snap.find_gauge("train.loss");
  const auto* g_train_acc = train_snap.find_gauge("train.accuracy");
  report.add({"retrain_noise_aware",
              {{"size", static_cast<double>(k)},
               {"wall_s", retrain_s},
               {"epochs", static_cast<double>(scale.retrain_epochs)},
               {"final_loss", g_train_loss != nullptr ? g_train_loss->value : 0.0},
               {"accuracy_gauge", g_train_acc != nullptr ? g_train_acc->value : 0.0},
               {"accuracy", stats.final_accuracy}}});

  NoisyEval noisy{};
  const double eval_s = adept::bench::time_once(
      [&] { noisy = eval_under_noise(model, test, 0.06, runs); });
  report.add({"noisy_eval",
              {{"size", static_cast<double>(k)},
               {"wall_s", eval_s},
               {"runs", static_cast<double>(runs)},
               {"mean_accuracy", noisy.mean}}});

  if (!report.write(path, be::num_threads())) {
    std::cerr << "bench_fig4: cannot write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << " (threads=" << be::num_threads() << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  if (adept::bench::parse_json_flag(argc, argv, "BENCH_fig4.json", &json_path)) {
    return run_json_report(json_path);
  }
  BenchScale scale = BenchScale::from_env();
  scale.train_n = adept::env_int("ADEPT_BENCH_TRAIN", adept::bench_full_scale() ? 4096 : 288);
  const int runs = adept::env_int("ADEPT_BENCH_NOISE_RUNS",
                                  adept::bench_full_scale() ? 20 : 5);
  const int k = 16;
  const ph::Pdk pdk = ph::Pdk::amf();
  const double sigmas[] = {0.02, 0.04, 0.06, 0.08, 0.10};

  // Designs: baselines + searched a2/a4 (searched on the MNIST-like proxy).
  const auto proxy_spec = data::DatasetSpec::mnist_like();
  data::SyntheticDataset proxy_train(proxy_spec, scale.train_n, 1);
  data::SyntheticDataset proxy_val(proxy_spec, scale.test_n, 2);
  std::printf("searching ADEPT-a2 and ADEPT-a4 (16x16, AMF)...\n");
  const auto a2 = adept::bench::run_search(k, pdk, 672, 840, scale, proxy_train,
                                           proxy_val, 71).topology;
  const auto a4 = adept::bench::run_search(k, pdk, 1056, 1320, scale, proxy_train,
                                           proxy_val, 72).topology;
  struct Design {
    std::string name;
    std::shared_ptr<const ph::PtcTopology> topo;
  };
  const std::vector<Design> designs = {
      {"MZI", std::make_shared<ph::PtcTopology>(ph::clements_mzi(k))},
      {"FFT", std::make_shared<ph::PtcTopology>(ph::butterfly(k))},
      {"ADEPT-a2", std::make_shared<ph::PtcTopology>(a2)},
      {"ADEPT-a4", std::make_shared<ph::PtcTopology>(a4)},
  };

  struct Panel {
    const char* title;
    const char* model;
    data::DatasetSpec spec;
  };
  const Panel panels[] = {
      {"(a) 2-layer CNN on synthetic-MNIST", "cnn", data::DatasetSpec::mnist_like()},
      {"(b) LeNet-5 on synthetic-FMNIST", "lenet", data::DatasetSpec::fmnist_like()},
  };

  for (const auto& panel : panels) {
    std::printf("\n=== Fig. 4%s ===\n", panel.title);
    data::SyntheticDataset train(panel.spec, scale.train_n, 5);
    data::SyntheticDataset test(panel.spec, scale.test_n, 6);
    Table table({"design", "s=0.02", "0.04", "0.06", "0.08", "0.10", "(mean +/- 3sigma)"});
    for (const auto& d : designs) {
      adept::Rng rng(91);
      nn::OnnModel model;
      if (std::string(panel.model) == "cnn") {
        model = nn::make_proxy_cnn(1, panel.spec.height, 10,
                                   nn::PtcBinding::fixed(d.topo), rng, scale.cnn_width);
      } else {
        model = nn::make_lenet5(1, panel.spec.height, 10, nn::PtcBinding::fixed(d.topo),
                                rng, /*width_scale=*/0.5);
      }
      nn::TrainConfig config;
      config.epochs = scale.retrain_epochs;
      config.batch_size = scale.batch;
      config.train_phase_noise = 0.02;  // variation-aware training
      nn::train_classifier(model, train, test, config);
      std::vector<std::string> row = {d.name};
      for (double sigma : sigmas) {
        const auto e = eval_under_noise(model, test, sigma, runs);
        row.push_back(Table::fmt(e.mean * 100, 1) + "+-" + Table::fmt(e.band3 * 100, 1));
      }
      row.push_back("");
      table.add_row(row);
      std::printf("  evaluated %s\n", d.name.c_str());
    }
    table.print(std::cout);
  }
  std::printf("\nShape target (paper): MZI curve collapses with sigma; FFT and the\n"
              "ADEPT designs degrade gently and stay close together.\n");
  return 0;
}
