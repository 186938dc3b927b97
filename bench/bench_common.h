// Shared helpers for the paper-reproduction benchmark harnesses.
//
// Every bench prints the paper-reported values next to the measured ones.
// Defaults are reduced-scale (CPU-minutes); ADEPT_BENCH_* env vars scale
// toward paper scale:
//   ADEPT_BENCH_TRAIN        training-set size        (default 384)
//   ADEPT_BENCH_TEST         test-set size            (default 256)
//   ADEPT_BENCH_EPOCHS       retraining epochs        (default 3)
//   ADEPT_BENCH_SEARCH_EPOCHS search epochs           (default 5)
//   ADEPT_BENCH_WIDTH        proxy CNN width          (default 6)
//   ADEPT_BENCH_FULL=1       lift the reductions (paper-sized runs)
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/table.h"
#include "core/search.h"
#include "data/synthetic.h"
#include "nn/train.h"
#include "photonics/builders.h"

namespace adept::bench {

struct BenchScale {
  int train_n;
  int test_n;
  int retrain_epochs;
  int search_epochs;
  int cnn_width;
  int batch;

  static BenchScale from_env() {
    BenchScale s;
    const bool full = bench_full_scale();
    s.train_n = env_int("ADEPT_BENCH_TRAIN", full ? 4096 : 384);
    s.test_n = env_int("ADEPT_BENCH_TEST", full ? 1024 : 256);
    s.retrain_epochs = env_int("ADEPT_BENCH_EPOCHS", full ? 10 : 3);
    s.search_epochs = env_int("ADEPT_BENCH_SEARCH_EPOCHS", full ? 30 : 5);
    s.cnn_width = env_int("ADEPT_BENCH_WIDTH", full ? 32 : 6);
    s.batch = env_int("ADEPT_BENCH_BATCH", 24);
    return s;
  }
};

// Run the ADEPT search for one footprint target on the CNN proxy task.
// `ranks` goes to core::run_search_data_parallel: 0 runs the one-shard
// single-process search unless ADEPT_RANKS resolves above 1; an explicit
// count >= 1 always runs the data-parallel numerics, so the search_r{1,2,4}
// trajectory records compare like against like (bit-identical across rank
// counts).
inline core::SearchResult run_search(int k, const photonics::Pdk& pdk, double f_min,
                                     double f_max, const BenchScale& scale,
                                     const data::SyntheticDataset& train,
                                     const data::SyntheticDataset& val,
                                     std::uint64_t seed,
                                     int max_super_blocks = 10, int ranks = 0) {
  core::SearchConfig config;
  config.mesh.k = k;
  config.mesh.super_blocks_per_unitary = 0;  // derive from Eq. 16
  config.max_super_blocks_per_unitary = max_super_blocks;
  config.footprint.pdk = pdk;
  config.footprint.f_min = f_min;
  config.footprint.f_max = f_max;
  config.epochs = scale.search_epochs;
  config.warmup_epochs = std::max(1, scale.search_epochs / 9);
  config.spl_epoch = std::max(1, scale.search_epochs * 5 / 9);
  config.steps_per_epoch = 12;
  config.alm.rho0 = 1e-4 * k / 8.0;
  config.seed = seed;
  return core::run_search_data_parallel(
      config,
      [&] {
        return std::make_unique<nn::OnnProxyTask>(train, val, scale.batch,
                                                  scale.cnn_width, seed + 1);
      },
      ranks);
}

// Re-train a fresh proxy CNN with a frozen topology; returns test accuracy.
inline double retrain_accuracy(const photonics::PtcTopology& topo,
                               const data::SyntheticDataset& train,
                               const data::SyntheticDataset& test,
                               const BenchScale& scale, std::uint64_t seed,
                               double phase_noise = 0.0) {
  auto shared = std::make_shared<photonics::PtcTopology>(topo);
  adept::Rng rng(seed);
  auto model = nn::make_proxy_cnn(train.spec().channels, train.spec().height,
                                  train.spec().classes, nn::PtcBinding::fixed(shared),
                                  rng, scale.cnn_width);
  nn::TrainConfig config;
  config.epochs = scale.retrain_epochs;
  config.batch_size = scale.batch;
  config.seed = seed;
  config.train_phase_noise = phase_noise;
  const auto stats = nn::train_classifier(model, train, test, config);
  return stats.final_accuracy;
}

// ---- machine-readable perf reports (--json mode) --------------------------
//
// Benches invoked with `--json [path]` skip the interactive google-benchmark
// run and instead emit a BENCH_<name>.json file consumed by the perf
// trajectory (schema documented in bench/README.md). Each record carries a
// kernel/config name plus flat numeric metrics, so future PRs can diff
// GFLOP/s against the checked-in baseline of any earlier revision.

struct JsonRecord {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;
};

class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) : bench_(std::move(bench_name)) {}

  void add(JsonRecord record) { records_.push_back(std::move(record)); }

  bool write(const std::string& path, int threads) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\n  \"bench\": \"" << bench_ << "\",\n  \"threads\": " << threads
        << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const auto& r = records_[i];
      out << "    {\"name\": \"" << r.name << "\"";
      for (const auto& [key, value] : r.metrics) {
        out << ", \"" << key << "\": ";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", value);
        out << buf;
      }
      out << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    out.flush();  // surface late I/O errors (disk full) in the return value
    return static_cast<bool>(out);
  }

 private:
  std::string bench_;
  std::vector<JsonRecord> records_;
};

// Wall-clock seconds of the best run of `fn()` out of `reps`, after one
// warm-up call; fn is repeated until each timed sample spans >= min_sample_s.
template <typename Fn>
double time_best(Fn&& fn, int reps = 5, double min_sample_s = 0.02) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up
  int inner = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (int i = 0; i < inner; ++i) fn();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    if (s >= min_sample_s || inner >= (1 << 20)) break;
    inner *= 2;
  }
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    for (int i = 0; i < inner; ++i) fn();
    const double s =
        std::chrono::duration<double>(clock::now() - t0).count() / inner;
    if (s < best) best = s;
  }
  return best;
}

// Wall-clock seconds of a single run of `fn()` — for the end-to-end search
// and training phases of the `--json` reports, which are far too slow for
// best-of-N repetition and are reported as coarse trajectory numbers.
template <typename Fn>
double time_once(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Reduced problem sizes for the end-to-end `--json` reports (CI runs them on
// every push): env overrides still apply, but the defaults are minutes
// smaller than the interactive reproduction scale.
inline BenchScale json_scale() {
  BenchScale s;
  s.train_n = env_int("ADEPT_BENCH_TRAIN", 96);
  s.test_n = env_int("ADEPT_BENCH_TEST", 64);
  s.retrain_epochs = env_int("ADEPT_BENCH_EPOCHS", 1);
  s.search_epochs = env_int("ADEPT_BENCH_SEARCH_EPOCHS", 2);
  s.cnn_width = env_int("ADEPT_BENCH_WIDTH", 4);
  s.batch = env_int("ADEPT_BENCH_BATCH", 24);
  return s;
}

// Shared `--json [path]` dispatch: returns true (and fills `path`) when the
// bench should emit a JSON report instead of running google-benchmark.
inline bool parse_json_flag(int argc, char** argv, const std::string& def_path,
                            std::string* path) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      *path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[i + 1] : def_path;
      return true;
    }
  }
  return false;
}

inline std::string census_str(const photonics::PtcTopology& topo) {
  const auto c = topo.counts();
  return std::to_string(c.cr) + "/" + std::to_string(c.dc) + "/" +
         std::to_string(c.blocks);
}

}  // namespace adept::bench
