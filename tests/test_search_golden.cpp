// Golden fingerprints of two searches: the MatrixFitTask search on the
// quickstart config (K = 8, 4 super blocks per unitary,
// examples/quickstart.cpp), and a small CNN-proxy (OnnProxyTask) search,
// whose weights are built once per step and pinned on the mesh. Each one
// hashes the bit pattern of all six SearchTrace vectors, the final metric and
// the serialized topology, so any change to the search numerics — the loss
// graph, its summation order, the RNG draw order, the shard tree — shows up
// as a mismatch. The failure message prints the new fingerprint.
//
// One golden per SIMD level family: the AVX2 and AVX-512 kernels agree bit
// for bit on this search, the scalar level differs from them by the FMA
// contraction. Release and Debug builds give the same fingerprints. They
// were recorded with GCC 12.2 on glibc 2.36; the scalar sincos and the RNG
// call libm, so a libm that rounds differently needs fingerprints of its
// own.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "backend/dispatch.h"
#include "backend/parallel.h"
#include "core/search.h"
#include "data/synthetic.h"
#include "nn/train.h"

namespace {

namespace be = adept::backend;
namespace core = adept::core;
namespace data = adept::data;
namespace nn = adept::nn;
namespace ph = adept::photonics;

// FNV-1a, 64 bit.
class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ull;
    }
  }
  void value(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  void values(const std::vector<double>& xs) {
    const std::uint64_t n = xs.size();
    bytes(&n, sizeof n);
    for (double x : xs) value(x);
  }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t fingerprint(const core::SearchResult& r) {
  Fnv f;
  f.values(r.trace.task_loss);
  f.values(r.trace.alm_lambda);
  f.values(r.trace.alm_rho);
  f.values(r.trace.permutation_error);
  f.values(r.trace.expected_footprint);
  f.values(r.trace.footprint_penalty);
  f.value(r.final_metric);
  const std::string topo = r.topology.serialize();
  f.bytes(topo.data(), topo.size());
  return f.digest();
}

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, h);
  return buf;
}

core::SearchConfig quickstart_config() {
  core::SearchConfig config;
  config.mesh.k = 8;
  config.mesh.super_blocks_per_unitary = 4;
  config.mesh.always_on_per_unitary = 1;
  config.footprint.pdk = ph::Pdk::amf();
  config.footprint.f_min = 240;
  config.footprint.f_max = 300;
  config.epochs = 10;
  config.warmup_epochs = 2;
  config.spl_epoch = 6;
  config.steps_per_epoch = 15;
  config.alm.rho0 = 1e-4;
  return config;
}

struct Golden {
  std::uint64_t scalar;
  std::uint64_t simd;  // avx2 and avx512
};

void expect_golden(const core::SearchResult& r, const Golden& g) {
  const bool scalar = be::simd_level() == be::SimdLevel::scalar;
  const std::uint64_t want = scalar ? g.scalar : g.simd;
  const std::uint64_t got = fingerprint(r);
  EXPECT_EQ(got, want) << "fingerprint " << hex(got) << " at SIMD level "
                       << be::simd_level_name(be::simd_level());
}

core::SearchResult two_tile_search(int threads) {
  be::ThreadScope scope(threads);
  core::MatrixFitTask task(/*tiles=*/2, /*seed=*/3);
  core::AdeptSearcher searcher(quickstart_config(), task);
  return searcher.run();
}

constexpr Golden kTwoTiles = {0x4264a49fc4903915ull, 0x574290e235dd04edull};
constexpr Golden kFiveTilesFourRanks = {0xdc3f4cb7ddebf349ull,
                                        0xb0247bd5da14aab3ull};

TEST(SearchGolden, QuickstartTwoTilesOneThread) {
  expect_golden(two_tile_search(1), kTwoTiles);
}

TEST(SearchGolden, QuickstartTwoTilesFourThreads) {
  expect_golden(two_tile_search(4), kTwoTiles);
}

TEST(SearchGolden, FiveTilesOnFourRanks) {
  // 5 tiles split into 4 micro-shards with a ragged tail (the last holds 2).
  auto make_task = [] {
    return std::make_unique<core::MatrixFitTask>(/*tiles=*/5, /*seed=*/3);
  };
  expect_golden(core::run_search_data_parallel(quickstart_config(), make_task, 4),
                kFiveTilesFourRanks);
}

// The CNN proxy at K = 4 on 14x14 inputs, batch 12 (the setup of
// RankParity.OnnProxySearchBitIdenticalAcrossRanks): a single-process run
// takes one shard per step, a rank group 8 micro-shards.
core::SearchConfig cnn_proxy_config() {
  core::SearchConfig config;
  config.mesh.k = 4;
  config.mesh.super_blocks_per_unitary = 3;
  config.mesh.always_on_per_unitary = 1;
  config.footprint.pdk = ph::Pdk::amf();
  config.footprint.f_min = 40;
  config.footprint.f_max = 240;
  config.epochs = 2;
  config.warmup_epochs = 1;
  config.spl_epoch = 1;
  config.steps_per_epoch = 6;
  config.alm.rho0 = 1e-4;
  config.seed = 21;
  return config;
}

struct CnnProxyData {
  data::SyntheticDataset train, val;
  static data::DatasetSpec spec() {
    auto s = data::DatasetSpec::mnist_like();
    s.height = 14;
    s.width = 14;
    return s;
  }
  CnnProxyData() : train(spec(), 48, 1), val(spec(), 32, 2) {}
  std::unique_ptr<core::ProxyTask> make_task() const {
    return std::make_unique<nn::OnnProxyTask>(train, val, /*batch=*/12,
                                              /*width=*/4, /*seed=*/10);
  }
};

constexpr Golden kCnnProxyOneProcess = {0xe844ae1f9555c382ull,
                                         0x38ab4cfd034d3691ull};
constexpr Golden kCnnProxyFourRanks = {0x686f246797fdc902ull,
                                        0x6971da09069e720aull};

TEST(SearchGolden, CnnProxyOneProcess) {
  const CnnProxyData d;
  be::ThreadScope scope(1);
  auto task = d.make_task();
  expect_golden(core::AdeptSearcher(cnn_proxy_config(), *task).run(),
                kCnnProxyOneProcess);
}

TEST(SearchGolden, CnnProxyFourRanks) {
  const CnnProxyData d;
  expect_golden(core::run_search_data_parallel(
                    cnn_proxy_config(), [&] { return d.make_task(); }, 4),
                kCnnProxyFourRanks);
}

}  // namespace
