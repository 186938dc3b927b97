// Tape storage: the per-thread free lists behind ag::empty_buffer /
// ag::zeros_buffer and TensorImpl's destructor (src/autograd/tensor.h).
//
//   * A recycled buffer keeps its old contents, so every op that takes one
//     unzeroed must write all of it: a training call and a search over
//     free lists filled with NaN match the same runs on a fresh thread.
//   * A repeated step shape allocates nothing once the lists are warm.
//   * Lists are per thread: a buffer freed on a thread that never took its
//     size goes back to malloc, and a thread's lists die with it.
//   * Under ASan a cached buffer is poisoned.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/tensor.h"
#include "core/search.h"
#include "data/synthetic.h"
#include "nn/train.h"
#include "obs/metrics.h"
#include "photonics/builders.h"
#include "photonics/pdk.h"

#if defined(__SANITIZE_ADDRESS__)
#define ADEPT_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ADEPT_TEST_ASAN 1
#endif
#endif
#ifdef ADEPT_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace {

namespace ag = adept::ag;
namespace core = adept::core;
namespace data = adept::data;
namespace nn = adept::nn;
namespace ph = adept::photonics;
using adept::Rng;

// Runs fn on a new thread, so it starts with empty free lists.
template <typename Fn>
void on_fresh_thread(Fn&& fn) {
  std::thread t(std::forward<Fn>(fn));
  t.join();
}

data::DatasetSpec spec16() {
  auto spec = data::DatasetSpec::mnist_like();
  spec.height = 16;
  spec.width = 16;
  return spec;
}

// Everything a run produces that a stale buffer could change.
struct RunRecord {
  std::vector<double> losses, accuracies;
  std::vector<std::vector<float>> grads;
  std::string topology;
};

// At width 16 not only activations and their gradients sit above the
// storage floor but also the [T,K,K] weight-chain stacks of conv2 and the
// classifier (T = 100 tiles at K = 8).
constexpr int kWidth = 16;

// A proxy-CNN train_classifier call on a fixed butterfly PTC under phase
// noise.
RunRecord train_run() {
  const auto spec = spec16();
  data::SyntheticDataset train(spec, 48, 1);
  data::SyntheticDataset test(spec, 24, 2);
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(8));
  Rng rng(5);
  auto model = nn::make_proxy_cnn(1, 16, 10, nn::PtcBinding::fixed(topo), rng, kWidth);
  nn::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 8;
  tc.train_phase_noise = 0.02;
  tc.seed = 3;
  const nn::TrainStats stats = nn::train_classifier(model, train, test, tc);
  RunRecord rec;
  rec.losses = stats.train_loss_per_epoch;
  rec.accuracies = stats.test_accuracy_per_epoch;
  for (auto& p : model.parameters()) rec.grads.push_back(p.grad());
  return rec;
}

// A K=8 OnnProxyTask search: the SuperMesh chain ops (block transfer,
// identity mix, normalization) on top of the proxy CNN.
RunRecord search_run() {
  const auto spec = spec16();
  data::SyntheticDataset train(spec, 48, 1);
  data::SyntheticDataset val(spec, 24, 2);
  core::SearchConfig config;
  config.mesh.k = 8;
  config.mesh.super_blocks_per_unitary = 3;
  config.mesh.always_on_per_unitary = 1;
  config.footprint.pdk = ph::Pdk::amf();
  config.footprint.f_min = 120;
  config.footprint.f_max = 480;
  config.epochs = 2;
  config.warmup_epochs = 1;
  config.spl_epoch = 1;
  config.steps_per_epoch = 2;
  config.seed = 17;
  nn::OnnProxyTask task(train, val, /*batch=*/8, kWidth, /*seed=*/6);
  core::AdeptSearcher searcher(config, task);
  const core::SearchResult result = searcher.run();
  RunRecord rec;
  rec.losses = result.trace.task_loss;
  rec.accuracies = {result.final_metric};
  for (auto& p : task.weights()) rec.grads.push_back(p.grad());
  rec.topology = result.topology.serialize();
  return rec;
}

// Runs `run` on a fresh thread, and on a second thread after a warm-up
// left that thread's lists holding every size `run` takes, each buffer
// then filled with NaN. Any read of a recycled buffer before a write
// shows up as a mismatch.
template <typename Fn>
void expect_stale_buffers_unread(Fn run) {
  RunRecord fresh, stale;
  on_fresh_thread([&] { fresh = run(); });
  std::size_t filled = 0;
  on_fresh_thread([&] {
    run();
    filled = ag::debug::fill_free_lists(std::numeric_limits<float>::quiet_NaN());
    stale = run();
  });
  EXPECT_GT(filled, 0u);
  ASSERT_FALSE(fresh.losses.empty());
  for (double l : fresh.losses) ASSERT_TRUE(std::isfinite(l));
  ASSERT_EQ(fresh.losses, stale.losses);
  ASSERT_EQ(fresh.accuracies, stale.accuracies);
  ASSERT_EQ(fresh.grads.size(), stale.grads.size());
  for (std::size_t i = 0; i < fresh.grads.size(); ++i) {
    ASSERT_EQ(fresh.grads[i], stale.grads[i]) << "param " << i;
  }
  ASSERT_EQ(fresh.topology, stale.topology);
}

TEST(TapeStorage, StaleBuffersNeverReachTrainingResults) {
  expect_stale_buffers_unread(train_run);
}

TEST(TapeStorage, StaleBuffersNeverReachSearchResults) {
  expect_stale_buffers_unread(search_run);
}

std::uint64_t alloc_calls() { return adept::obs::counter("ag.alloc_calls").value(); }

// At width 4 every weight stays below the floor. A wider model's eval-time
// weight cache (PtcWeight) outlives the call and keeps one buffer of its
// size in use into the next call, whose steps then need one more: there the
// third call is the first that allocates nothing.
TEST(TapeStorage, RepeatedTrainingCallAllocatesNothing) {
  on_fresh_thread([] {
    const auto spec = spec16();
    data::SyntheticDataset train(spec, 32, 1);
    data::SyntheticDataset test(spec, 16, 2);
    auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(8));
    Rng rng(5);
    auto model = nn::make_proxy_cnn(1, 16, 10, nn::PtcBinding::fixed(topo), rng, 4);
    nn::TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = 8;
    tc.train_phase_noise = 0.02;
    // One rank, on this thread, whatever ADEPT_RANKS says: rank threads are
    // spawned per call, and each starts with empty lists.
    tc.ranks = 1;
    const std::uint64_t before = alloc_calls();
    nn::train_classifier(model, train, test, tc);
    const std::uint64_t first = alloc_calls() - before;
    nn::train_classifier(model, train, test, tc);
    EXPECT_GT(first, 0u);
    EXPECT_EQ(alloc_calls() - before - first, 0u);
  });
}

TEST(TapeStorage, BufferFreedOnThreadThatNeverTookItsSizeGoesToMalloc) {
  // Sizes no other code here uses.
  const std::int64_t foreign = static_cast<std::int64_t>(ag::kStorageFloor) + 123;
  const std::int64_t own = static_cast<std::int64_t>(ag::kStorageFloor) + 456;
  // This thread has lists, but not for `foreign`.
  const std::size_t base = ag::debug::cached_bytes();
  { ag::Tensor t = ag::Tensor::zeros({own}); }
  const std::size_t own_bytes = static_cast<std::size_t>(own) * sizeof(float);
  ASSERT_EQ(ag::debug::cached_bytes(), base + own_bytes);

  ag::Tensor moved;
  std::thread producer([&] { moved = ag::Tensor::full({foreign}, 2.0f); });
  producer.join();  // its lists are gone; the buffer lives on in `moved`
  EXPECT_EQ(ag::debug::cached_bytes(), base + own_bytes);
  moved = ag::Tensor();
  EXPECT_EQ(ag::debug::cached_bytes(), base + own_bytes);
}

// Destroys its tensor in a thread_local destructor that runs after the
// thread's free lists were released (it is constructed before them).
struct LateHolder {
  ag::Tensor tensor;
  std::size_t* cached_after = nullptr;
  ~LateHolder() {
    tensor = ag::Tensor();
    if (cached_after != nullptr) *cached_after = ag::debug::cached_bytes();
  }
};

LateHolder& late_holder() {
  static thread_local LateHolder holder;
  return holder;
}

TEST(TapeStorage, ListsAreReleasedAtThreadExit) {
  const std::int64_t n = static_cast<std::int64_t>(ag::kStorageFloor) + 789;
  const std::int64_t m = static_cast<std::int64_t>(ag::kStorageFloor) + 987;
  const std::size_t n_bytes = static_cast<std::size_t>(n) * sizeof(float);
  const std::size_t m_bytes = static_cast<std::size_t>(m) * sizeof(float);
  const std::size_t base = ag::debug::cached_bytes();
  std::size_t cached_in_thread = 0;
  std::size_t cached_after_late_free = 0;
  std::thread worker([&] {
    LateHolder& late = late_holder();  // constructed before the lists
    late.cached_after = &cached_after_late_free;
    { ag::Tensor a = ag::Tensor::zeros({n}); }
    { ag::Tensor b = ag::Tensor::zeros({m}); }
    cached_in_thread = ag::debug::cached_bytes();
    // Takes the cached n-buffer back; it dies after the lists are gone,
    // which still hold the m-buffer at exit.
    late.tensor = ag::Tensor::zeros({n});
  });
  worker.join();
  EXPECT_EQ(cached_in_thread, base + n_bytes + m_bytes);
  EXPECT_EQ(cached_after_late_free, base);
  EXPECT_EQ(ag::debug::cached_bytes(), base);
}

#ifdef ADEPT_TEST_ASAN
TEST(TapeStorage, CachedBufferIsPoisonedUnderAsan) {
  const std::int64_t n = static_cast<std::int64_t>(ag::kStorageFloor) + 321;
  const float* p = nullptr;
  {
    ag::Tensor t = ag::Tensor::zeros({n});
    p = t.data().data();
    EXPECT_FALSE(__asan_address_is_poisoned(p));
  }
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_TRUE(__asan_address_is_poisoned(p + n - 1));
  ag::Tensor again = ag::Tensor::zeros({n});
  ASSERT_EQ(again.data().data(), p);  // the cached buffer, unpoisoned
  EXPECT_FALSE(__asan_address_is_poisoned(p));
  EXPECT_EQ(again.data()[static_cast<std::size_t>(n - 1)], 0.0f);
}
#endif

}  // namespace
