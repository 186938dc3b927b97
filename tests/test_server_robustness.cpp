// Overload-hardened serving: admission control, deadlines, typed failures,
// hot checkpoint reload, crash-safe checkpoint I/O, and the failpoint seams
// that make all of it testable.
//
// Headline guarantees proven here:
//   * reject/shed_oldest admission fails futures with RejectedError instead
//     of blocking, and keeps ACCEPTED-request p99 bounded where block does
//     not (the bench_serve overload scenario measures the same effect).
//   * expired requests fail with DeadlineExceededError and never execute.
//   * shutdown resolves EVERY outstanding future — drained queue entries
//     with values, blocked submitters with ShutdownError; no deadlock.
//   * hammering submit during continuous checkpoint reloads drops zero
//     requests, and every response is bit-identical to the output of the
//     model version that answered it.
//   * a (failpoint-injected) crash mid-save never clobbers the previous
//     good checkpoint; torn reads retry; corrupt files of every truncation
//     length and every single-byte flip fail with an error, never a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/binio.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "nn/layers.h"
#include "nn/models.h"
#include "nn/onn_layers.h"
#include "photonics/builders.h"
#include "runtime/checkpoint.h"
#include "runtime/compiled_model.h"
#include "runtime/errors.h"
#include "runtime/server.h"

namespace {

namespace ph = adept::photonics;
namespace nn = adept::nn;
namespace rt = adept::runtime;
namespace fp = adept::failpoint;
using adept::Rng;

std::vector<float> random_input(std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// Small ONN MLP: ONNLinear(18 -> 10, PTC) + ReLU + ONNLinear(10 -> 4, dense).
nn::OnnModel make_mlp(std::uint64_t seed) {
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(4));
  Rng rng(seed);
  nn::OnnModel model;
  model.net = std::make_shared<nn::Sequential>();
  auto l1 = std::make_shared<nn::ONNLinear>(18, 10, nn::PtcBinding::fixed(topo), rng);
  auto l2 = std::make_shared<nn::ONNLinear>(10, 4, nn::PtcBinding::dense(), rng);
  model.net->add(l1);
  model.net->add(std::make_shared<nn::ReLU>());
  model.net->add(l2);
  model.onn_layers = {l1.get(), l2.get()};
  return model;
}

// Every robustness test disarms its failpoints even on assertion failure.
class ServerRobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override { fp::disarm_all(); }
};

// Plug a 1-worker server: the worker pops this request and stalls inside
// the forward for `stall_us`, leaving the queue free to fill behind it. The
// plug itself never has a deadline (explicit 0), so a short config default
// cannot expire it before the worker pops it.
std::future<std::vector<float>> plug_worker(rt::Server& server, Rng& rng,
                                            std::int64_t stall_us) {
  fp::arm("server.worker.batch", "1*stall(" + std::to_string(stall_us) + ")");
  auto plug = server.submit(random_input(18, rng), /*deadline_us=*/0);
  // Give the (idle, already-waiting) worker ample time to pop the plug and
  // enter the stall before the caller starts filling the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  return plug;
}

// ---- admission control ---------------------------------------------------

TEST_F(ServerRobustnessTest, RejectPolicyFailsFastWithRejectedError) {
  nn::OnnModel model = make_mlp(61);
  rt::CompiledModel cm = rt::CompiledModel::freeze(model, {18});
  rt::ServerConfig cfg;
  cfg.threads = 1;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  cfg.queue_capacity = 2;
  cfg.policy = rt::OverloadPolicy::reject;
  rt::Server server(cm, cfg);

  Rng rng(1);
  auto plug = plug_worker(server, rng, 400'000);
  auto q1 = server.submit(random_input(18, rng));
  auto q2 = server.submit(random_input(18, rng));
  const auto t0 = std::chrono::steady_clock::now();
  auto q3 = server.submit(random_input(18, rng));  // queue full -> reject, no block
  const double submit_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  EXPECT_LT(submit_ms, 100.0) << "reject must not block";
  EXPECT_THROW(q3.get(), rt::RejectedError);
  EXPECT_EQ(plug.get().size(), 4u);
  EXPECT_EQ(q1.get().size(), 4u);
  EXPECT_EQ(q2.get().size(), 4u);
  const rt::ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.requests, 3u);
}

TEST_F(ServerRobustnessTest, ShedOldestDropsTheOldestQueuedRequest) {
  nn::OnnModel model = make_mlp(67);
  rt::CompiledModel cm = rt::CompiledModel::freeze(model, {18});
  rt::ServerConfig cfg;
  cfg.threads = 1;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  cfg.queue_capacity = 2;
  cfg.policy = rt::OverloadPolicy::shed_oldest;
  rt::Server server(cm, cfg);

  Rng rng(2);
  auto plug = plug_worker(server, rng, 400'000);
  auto q1 = server.submit(random_input(18, rng));
  auto q2 = server.submit(random_input(18, rng));
  auto q3 = server.submit(random_input(18, rng));  // full -> q1 shed, q3 admitted
  EXPECT_THROW(q1.get(), rt::RejectedError);
  EXPECT_EQ(plug.get().size(), 4u);
  EXPECT_EQ(q2.get().size(), 4u);
  EXPECT_EQ(q3.get().size(), 4u);
  const rt::ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.rejected, 0u);
}

// The bounded-tail claim behind the overload policies: under offered load
// far beyond capacity (every batch slowed by a failpoint stall), `block`
// completes everything but its accepted-request p99 grows with the whole
// backlog, while `reject` keeps the queue — and therefore accepted p99 —
// bounded. bench_serve records the same comparison as a perf artifact.
// Latency is timed on the client from the moment the 64-request burst is
// offered, so block's backlog (the client waits in submit while at least 13
// stalled batches drain, and its last request completes after 16) is in its
// tail by construction, while reject answers what it admitted within a few
// batches.
TEST_F(ServerRobustnessTest, RejectKeepsAcceptedP99BoundedWhereBlockDoesNot) {
  nn::OnnModel model = make_mlp(71);
  rt::CompiledModel cm = rt::CompiledModel::freeze(model, {18});

  auto run_policy = [&](rt::OverloadPolicy policy) {
    rt::ServerConfig cfg;
    cfg.threads = 1;
    cfg.max_batch = 4;
    cfg.max_wait_us = 0;
    cfg.queue_capacity = 8;
    cfg.policy = policy;
    rt::Server server(cm, cfg);
    fp::arm("server.worker.batch", "stall(3000)");  // every batch >= 3 ms
    Rng rng(3);
    std::vector<std::vector<float>> inputs;
    for (int i = 0; i < 64; ++i) inputs.push_back(random_input(18, rng));
    const auto offered = std::chrono::steady_clock::now();
    std::vector<std::future<std::vector<float>>> futures;
    for (auto& x : inputs) futures.push_back(server.submit(std::move(x)));
    std::vector<double> latency_ms;
    for (auto& f : futures) {
      try {
        (void)f.get();
        latency_ms.push_back(std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - offered)
                                 .count());
      } catch (const rt::RejectedError&) {
      }
    }
    fp::disarm_all();
    std::sort(latency_ms.begin(), latency_ms.end());
    const double p99 =
        latency_ms.empty()
            ? 0.0
            : latency_ms[static_cast<std::size_t>(
                  std::ceil(0.99 * static_cast<double>(latency_ms.size()))) - 1];
    return std::pair<int, double>(static_cast<int>(latency_ms.size()), p99);
  };

  const auto [block_done, block_p99] = run_policy(rt::OverloadPolicy::block);
  const auto [reject_done, reject_p99] = run_policy(rt::OverloadPolicy::reject);
  EXPECT_EQ(block_done, 64);       // block completes everything...
  EXPECT_GT(block_p99, reject_p99) // ...but pays for it in the tail
      << "bounded-queue reject should beat block's backlog tail";
  EXPECT_LT(reject_done, 64);      // reject sheds the excess
  EXPECT_GT(reject_done, 0);
}

// ---- deadlines -----------------------------------------------------------

TEST_F(ServerRobustnessTest, ExpiredRequestFailsAtDequeueWithoutExecuting) {
  nn::OnnModel model = make_mlp(73);
  rt::CompiledModel cm = rt::CompiledModel::freeze(model, {18});
  rt::ServerConfig cfg;
  cfg.threads = 1;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  rt::Server server(cm, cfg);

  Rng rng(4);
  auto plug = plug_worker(server, rng, 300'000);
  // Queued behind a 300 ms stall with a 1 ms deadline: expired long before
  // the worker dequeues it.
  auto doomed = server.submit(random_input(18, rng), /*deadline_us=*/1000);
  // No deadline: served normally after the stall.
  auto fine = server.submit(random_input(18, rng), /*deadline_us=*/0);
  EXPECT_THROW(doomed.get(), rt::DeadlineExceededError);
  EXPECT_EQ(fine.get().size(), 4u);
  EXPECT_EQ(plug.get().size(), 4u);
  const rt::ServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.requests, 2u);  // the doomed request never executed
}

TEST_F(ServerRobustnessTest, ConfigDefaultDeadlineApplies) {
  nn::OnnModel model = make_mlp(79);
  rt::CompiledModel cm = rt::CompiledModel::freeze(model, {18});
  rt::ServerConfig cfg;
  cfg.threads = 1;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  cfg.deadline_us = 1000;  // every request defaults to a 1 ms deadline
  rt::Server server(cm, cfg);

  Rng rng(5);
  auto plug = plug_worker(server, rng, 300'000);
  auto doomed = server.submit(random_input(18, rng));  // inherits config deadline
  EXPECT_THROW(doomed.get(), rt::DeadlineExceededError);
  EXPECT_EQ(plug.get().size(), 4u);
}

// ---- shutdown ------------------------------------------------------------

TEST_F(ServerRobustnessTest, ShutdownResolvesBlockedSubmitters) {
  nn::OnnModel model = make_mlp(83);
  rt::CompiledModel cm = rt::CompiledModel::freeze(model, {18});
  rt::ServerConfig cfg;
  cfg.threads = 1;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  cfg.queue_capacity = 1;
  cfg.policy = rt::OverloadPolicy::block;
  rt::Server server(cm, cfg);

  Rng rng(6);
  auto plug = plug_worker(server, rng, 300'000);
  auto queued = server.submit(random_input(18, rng));  // fills the 1-slot queue

  // These three block inside submit() on the full queue.
  std::atomic<int> values{0}, shutdown_errors{0}, other{0};
  std::vector<std::thread> submitters;
  for (int i = 0; i < 3; ++i) {
    submitters.emplace_back([&, i] {
      Rng trng(static_cast<std::uint64_t>(100 + i));
      try {
        auto f = server.submit(random_input(18, trng));
        f.get();
        ++values;
      } catch (const rt::ShutdownError&) {
        ++shutdown_errors;
      } catch (...) {
        ++other;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  server.shutdown();  // must not deadlock; wakes every blocked submitter
  for (auto& t : submitters) t.join();

  EXPECT_EQ(values + shutdown_errors, 3) << "every blocked submitter resolved";
  EXPECT_EQ(other, 0);
  EXPECT_EQ(plug.get().size(), 4u);    // in-flight work still answered
  EXPECT_EQ(queued.get().size(), 4u);  // queued work drained, not dropped
  // Late submit after shutdown: typed error, not a crash.
  auto late = server.submit(random_input(18, rng));
  EXPECT_THROW(late.get(), rt::ShutdownError);
}

// ---- worker failure injection -------------------------------------------

TEST_F(ServerRobustnessTest, InjectedWorkerFailureFailsTheBatchNotTheServer) {
  nn::OnnModel model = make_mlp(89);
  rt::CompiledModel cm = rt::CompiledModel::freeze(model, {18});
  rt::ServerConfig cfg;
  cfg.threads = 1;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  rt::Server server(cm, cfg);

  Rng rng(7);
  fp::arm("server.worker.batch", "1*throw");
  auto poisoned = server.submit(random_input(18, rng));
  EXPECT_THROW(poisoned.get(), std::runtime_error);
  // The worker survives an injected forward failure and keeps serving.
  auto next = server.submit(random_input(18, rng));
  EXPECT_EQ(next.get().size(), 4u);
}

// ---- hot checkpoint reload ----------------------------------------------

// The acceptance-criteria hammer: continuous submit during >= 10 reloads,
// zero dropped requests, every response bit-identical to the model version
// that answered it.
TEST_F(ServerRobustnessTest, HotReloadHammerZeroDropsBitExactPerVersion) {
  nn::OnnModel model_a = make_mlp(1001);
  nn::OnnModel model_b = make_mlp(1002);
  const std::string path_a = ::testing::TempDir() + "adept_reload_a.bin";
  const std::string path_b = ::testing::TempDir() + "adept_reload_b.bin";
  rt::save_checkpoint(model_a, path_a);
  rt::save_checkpoint(model_b, path_b);

  auto cm_a = std::make_shared<rt::CompiledModel>(
      rt::CompiledModel::freeze(model_a, {18}));
  rt::CompiledModel cm_b = rt::CompiledModel::freeze(model_b, {18});

  // Expected outputs for both versions over a fixed input pool.
  constexpr int kPool = 24;
  Rng rng(8);
  std::vector<std::vector<float>> inputs;
  std::vector<std::vector<float>> expect_a, expect_b;
  bool versions_differ = false;
  for (int i = 0; i < kPool; ++i) {
    inputs.push_back(random_input(18, rng));
    expect_a.push_back(cm_a->run(inputs.back(), 1));
    expect_b.push_back(cm_b.run(inputs.back(), 1));
    versions_differ |= expect_a.back() != expect_b.back();
  }
  ASSERT_TRUE(versions_differ) << "the two versions must be distinguishable";

  rt::ServerConfig cfg;
  cfg.threads = 2;
  cfg.max_batch = 4;
  cfg.max_wait_us = 50;
  cfg.queue_capacity = 256;
  cfg.policy = rt::OverloadPolicy::block;
  rt::Server server(cm_a, cfg);
  const std::uint64_t version_before = server.stats().model_version;

  std::atomic<bool> stop{false};
  struct Pending {
    int idx;
    std::future<std::vector<float>> future;
  };
  std::vector<std::vector<Pending>> per_thread(2);
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      int i = t;  // interleave the pool across threads
      while (!stop.load(std::memory_order_relaxed) &&
             per_thread[t].size() < 4000) {
        const int idx = i++ % kPool;
        per_thread[t].push_back({idx, server.submit(inputs[idx])});
      }
    });
  }

  // >= 10 reloads while the hammer runs; each loads + freezes a checkpoint
  // and swaps it in between batches.
  constexpr int kReloads = 12;
  for (int r = 0; r < kReloads; ++r) {
    server.reload(r % 2 == 0 ? path_b : path_a);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  for (auto& t : submitters) t.join();

  std::uint64_t answered = 0;
  for (auto& vec : per_thread) {
    for (auto& p : vec) {
      const std::vector<float> got = p.future.get();  // throws = dropped -> fail
      const bool is_a = got == expect_a[p.idx];
      const bool is_b = got == expect_b[p.idx];
      ASSERT_TRUE(is_a || is_b)
          << "response for input " << p.idx
          << " matches neither model version bit-exactly";
      ++answered;
    }
  }
  EXPECT_GT(answered, 100u);

  const rt::ServerStats stats = server.stats();
  EXPECT_EQ(stats.reloads, static_cast<std::uint64_t>(kReloads));
  EXPECT_NE(stats.model_version, version_before)
      << "reload must swap to a model frozen at a newer param_version";
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.deadline_misses, 0u);
  server.shutdown();
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST_F(ServerRobustnessTest, FailedReloadLeavesOldModelServing) {
  nn::OnnModel model = make_mlp(97);
  auto cm = std::make_shared<rt::CompiledModel>(rt::CompiledModel::freeze(model, {18}));
  const std::string path = ::testing::TempDir() + "adept_reload_fail.bin";
  rt::save_checkpoint(model, path);

  rt::Server server(cm, rt::ServerConfig{.threads = 1, .max_wait_us = 0});
  Rng rng(9);
  const std::vector<float> x = random_input(18, rng);
  const std::vector<float> before = server.submit(x).get();

  // Freeze blows up mid-reload: the old model must keep serving.
  fp::arm("runtime.freeze", "1*throw");
  EXPECT_THROW(server.reload(path), std::runtime_error);
  EXPECT_EQ(server.submit(x).get(), before);
  EXPECT_EQ(server.stats().reloads, 0u);

  // A missing checkpoint file also leaves the old model serving.
  EXPECT_THROW(server.reload(path + ".does-not-exist"), std::runtime_error);
  EXPECT_EQ(server.submit(x).get(), before);
  std::remove(path.c_str());
}

TEST_F(ServerRobustnessTest, NonFiniteCheckpointReloadRefusedUnderLoad) {
  nn::OnnModel model = make_mlp(99);
  auto cm = std::make_shared<rt::CompiledModel>(rt::CompiledModel::freeze(model, {18}));
  // The same model with one NaN phase, checkpointed. Saving refuses a NaN,
  // so the file is a good encoding with a sentinel phase whose bytes are
  // swapped for a NaN, under a recomputed CRC trailer.
  nn::OnnModel bad = make_mlp(99);
  auto* fc = dynamic_cast<nn::ONNLinear*>(bad.onn_layers[0]);
  ASSERT_NE(fc, nullptr);
  const float sentinel = 1234.5f;
  fc->weight().phi_u()[0].data()[0] = sentinel;
  std::string bytes = rt::encode_checkpoint(bad);
  std::string sentinel_bytes, nan_bytes;
  adept::binio::put_f32(sentinel_bytes, sentinel);
  adept::binio::put_f32(nan_bytes, std::numeric_limits<float>::quiet_NaN());
  const std::size_t at = bytes.find(sentinel_bytes);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(sentinel_bytes, at + 1), std::string::npos);
  bytes.replace(at, nan_bytes.size(), nan_bytes);
  const std::size_t payload_begin = 8 + 4 + 8;  // magic + version + size
  bytes.resize(bytes.size() - 4);
  adept::binio::put_u32(bytes, rt::crc32(std::string_view(bytes).substr(payload_begin)));
  const std::string path = ::testing::TempDir() + "adept_reload_nan.bin";
  std::ofstream(path, std::ios::binary) << bytes;

  rt::ServerConfig cfg;
  cfg.threads = 2;
  cfg.max_batch = 4;
  cfg.max_wait_us = 50;
  cfg.policy = rt::OverloadPolicy::block;
  rt::Server server(cm, cfg);
  Rng rng(10);
  const std::vector<float> x = random_input(18, rng);
  const std::vector<float> before = server.submit(x).get();

  std::atomic<bool> stop{false};
  std::atomic<int> submitted{0};
  std::vector<std::future<std::vector<float>>> answers;
  std::thread submitter([&] {
    while (!stop.load(std::memory_order_relaxed) && answers.size() < 4000) {
      answers.push_back(server.submit(x));
      submitted.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (submitted.load(std::memory_order_relaxed) < 64) std::this_thread::yield();
  for (int r = 0; r < 3; ++r) {
    try {
      server.reload(path);
      ADD_FAILURE() << "reloaded a checkpoint with a NaN phase";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("module 0 (ONNLinear) phi_u[0]"),
                std::string::npos)
          << e.what();
    }
  }
  stop = true;
  submitter.join();
  // The old model answered everything, before, during and after.
  for (auto& f : answers) ASSERT_EQ(f.get(), before);
  EXPECT_EQ(server.submit(x).get(), before);
  EXPECT_EQ(server.stats().reloads, 0u);
  server.shutdown();
  std::remove(path.c_str());
}

TEST_F(ServerRobustnessTest, SwapModelRejectsShapeMismatch) {
  nn::OnnModel model = make_mlp(101);
  rt::CompiledModel cm = rt::CompiledModel::freeze(model, {18});
  rt::Server server(cm, rt::ServerConfig{.threads = 1});

  // A model with different I/O geometry (4 inputs instead of 18).
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(4));
  Rng rng(11);
  nn::OnnModel other;
  other.net = std::make_shared<nn::Sequential>();
  auto l = std::make_shared<nn::ONNLinear>(4, 4, nn::PtcBinding::fixed(topo), rng);
  other.net->add(l);
  other.onn_layers = {l.get()};
  auto cm_other =
      std::make_shared<rt::CompiledModel>(rt::CompiledModel::freeze(other, {4}));
  EXPECT_THROW(server.swap_model(cm_other), std::invalid_argument);
  EXPECT_THROW(server.swap_model(nullptr), std::invalid_argument);
  // Still serving the original.
  Rng qrng(12);
  EXPECT_EQ(server.submit(random_input(18, qrng)).get().size(), 4u);
}

// ---- crash-safe checkpoints ---------------------------------------------

TEST_F(ServerRobustnessTest, CrashMidSaveNeverClobbersPreviousCheckpoint) {
  nn::OnnModel model_a = make_mlp(103);
  nn::OnnModel model_b = make_mlp(107);
  const std::string path = ::testing::TempDir() + "adept_crash_safe.bin";
  rt::save_checkpoint(model_a, path);
  const std::string bytes_a = rt::encode_checkpoint(model_a);
  const std::string bytes_b = rt::encode_checkpoint(model_b);
  ASSERT_NE(bytes_a, bytes_b);

  // Crash after 40 bytes of the replacement write: path must still hold A.
  fp::arm("checkpoint.save.write", "1*truncate(40)");
  try {
    rt::save_checkpoint(model_b, path);
    FAIL() << "expected simulated crash";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("simulated crash"), std::string::npos);
  }
  rt::LoadedCheckpoint after_crash = rt::load_checkpoint(path);
  EXPECT_EQ(rt::encode_checkpoint(after_crash.model), bytes_a)
      << "previous good checkpoint was clobbered by a torn save";

  // After the failure clears, the same path updates normally.
  rt::save_checkpoint(model_b, path);
  rt::LoadedCheckpoint after_save = rt::load_checkpoint(path);
  EXPECT_EQ(rt::encode_checkpoint(after_save.model), bytes_b);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST_F(ServerRobustnessTest, CheckpointIoErrorsCarryErrnoAndPath) {
  nn::OnnModel model = make_mlp(109);
  const std::string bad_dir = "/nonexistent-adept-dir/ckpt.bin";
  try {
    rt::save_checkpoint(model, bad_dir);
    FAIL() << "expected I/O failure";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(bad_dir), std::string::npos) << msg;
    EXPECT_NE(msg.find("errno"), std::string::npos) << msg;
  }
  try {
    rt::load_checkpoint("/no-such-adept-checkpoint.bin");
    FAIL() << "expected I/O failure";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("/no-such-adept-checkpoint.bin"), std::string::npos) << msg;
    EXPECT_NE(msg.find("errno"), std::string::npos) << msg;
  }
}

TEST_F(ServerRobustnessTest, TornReadRetriesThenSucceeds) {
  nn::OnnModel model = make_mlp(113);
  const std::string path = ::testing::TempDir() + "adept_torn_read.bin";
  rt::save_checkpoint(model, path);
  const std::string bytes = rt::encode_checkpoint(model);

  // First two reads come back torn (truncated at byte 16); the third is
  // clean. load_checkpoint's bounded retry must absorb the tear.
  const std::uint64_t hits_before = fp::hit_count("checkpoint.load.read");
  fp::arm("checkpoint.load.read", "2*truncate(16)");
  rt::LoadedCheckpoint loaded = rt::load_checkpoint(path);
  EXPECT_EQ(rt::encode_checkpoint(loaded.model), bytes);
  EXPECT_EQ(fp::hit_count("checkpoint.load.read"), hits_before + 2);
  std::remove(path.c_str());
}

TEST_F(ServerRobustnessTest, PersistentlyTornReadGivesUpWithTruncationError) {
  nn::OnnModel model = make_mlp(127);
  const std::string path = ::testing::TempDir() + "adept_torn_forever.bin";
  rt::save_checkpoint(model, path);

  fp::arm("checkpoint.load.read", "truncate(16)");  // every read torn
  try {
    rt::load_checkpoint(path);
    FAIL() << "expected truncation error after bounded retries";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

// ---- corrupt-checkpoint fuzz --------------------------------------------

TEST_F(ServerRobustnessTest, FuzzTruncationAtEveryByteFailsActionably) {
  nn::OnnModel model = make_mlp(131);
  const std::string good = rt::encode_checkpoint(model);
  ASSERT_NO_THROW(rt::decode_checkpoint(good));
  // Every prefix — which covers every section boundary — must throw a
  // runtime_error with a non-empty message, and never crash (the ASan leg
  // runs this too).
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    try {
      rt::decode_checkpoint(good.substr(0, cut));
      FAIL() << "decode of " << cut << "-byte prefix unexpectedly succeeded";
    } catch (const std::runtime_error& e) {
      ASSERT_FALSE(std::string(e.what()).empty()) << "cut at " << cut;
    }
  }
  // Spot-check the message quality at the major boundaries.
  auto message_at = [&](std::size_t cut) {
    try {
      rt::decode_checkpoint(good.substr(0, cut));
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(message_at(4).find("truncated header"), std::string::npos);
  EXPECT_NE(message_at(20).find("truncated payload"), std::string::npos);
  EXPECT_NE(message_at(good.size() - 2).find("truncated payload"), std::string::npos);
}

TEST_F(ServerRobustnessTest, FuzzSingleByteFlipsEverywhereFailActionably) {
  nn::OnnModel model = make_mlp(137);
  const std::string good = rt::encode_checkpoint(model);
  // Flipping any single bit anywhere — magic, version, payload size,
  // payload, CRC — must be caught (magic/version/size checks up front, the
  // CRC for everything in the payload, the trailer compare for the CRC
  // itself) and throw, never crash or silently load.
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    try {
      rt::decode_checkpoint(bad);
      FAIL() << "decode with byte " << i << " flipped unexpectedly succeeded";
    } catch (const std::runtime_error& e) {
      ASSERT_FALSE(std::string(e.what()).empty()) << "flip at " << i;
    }
  }
}

// ---- new env knobs -------------------------------------------------------

TEST_F(ServerRobustnessTest, PolicyAndDeadlineEnvKnobsClamp) {
  auto with_env = [](const char* name, const char* value, auto fn) {
    ::setenv(name, value, 1);
    fn();
    ::unsetenv(name);
  };

  with_env("ADEPT_SERVE_POLICY", "reject", [] {
    EXPECT_EQ(rt::ServerConfig::from_env().policy, rt::OverloadPolicy::reject);
  });
  with_env("ADEPT_SERVE_POLICY", "shed_oldest", [] {
    EXPECT_EQ(rt::ServerConfig::from_env().policy, rt::OverloadPolicy::shed_oldest);
  });
  with_env("ADEPT_SERVE_POLICY", "block", [] {
    EXPECT_EQ(rt::ServerConfig::from_env().policy, rt::OverloadPolicy::block);
  });
  with_env("ADEPT_SERVE_POLICY", "frobnicate", [] {
    // Unknown names clamp to the default, never error.
    EXPECT_EQ(rt::ServerConfig::from_env().policy, rt::OverloadPolicy::block);
  });
  with_env("ADEPT_SERVE_DEADLINE_US", "-5", [] {
    EXPECT_EQ(rt::ServerConfig::from_env().deadline_us, 0);
  });
  with_env("ADEPT_SERVE_DEADLINE_US", "2000000000", [] {
    EXPECT_EQ(rt::ServerConfig::from_env().deadline_us, 600'000'000);
  });
  with_env("ADEPT_SERVE_DEADLINE_US", "250000", [] {
    EXPECT_EQ(rt::ServerConfig::from_env().deadline_us, 250'000);
  });
  // Unset -> defaults.
  const rt::ServerConfig def = rt::ServerConfig::from_env();
  EXPECT_EQ(def.policy, rt::OverloadPolicy::block);
  EXPECT_EQ(def.deadline_us, 0);
  // Round-trip of the policy names used by the env knob and bench output.
  EXPECT_EQ(rt::to_string(rt::parse_overload_policy("shed_oldest")), "shed_oldest");
  EXPECT_EQ(rt::to_string(rt::parse_overload_policy("reject")), "reject");
}

}  // namespace
