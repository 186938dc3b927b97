// End-to-end deployment tour: search a core, train it, checkpoint it,
// freeze it, and serve queries.
//
//   1. Run a miniature ADEPT search (matrix-fit proxy) to get a topology —
//      or load a previously saved checkpoint if a path is given.
//   2. Train the proxy CNN with every matmul mapped onto the searched core.
//   3. Save the trained model to a binary checkpoint and reload it
//      (round-trips are bit-exact; see src/runtime/checkpoint.h).
//   4. CompiledModel::freeze: lower the eval forward pass to tape-free
//      backend kernel calls (bit-exact vs the tape in eval mode).
//   5. Serve a batch of queries through the micro-batching Server and
//      compare its answers to the tape path.
//   6. Re-freeze with int8 quantization (FreezeOptions::quantize_int8) and
//      show the worst-case output delta vs the fp32 plan.
//   7. Overload the server under OverloadPolicy::reject and absorb the
//      admission refusals with the client-side retry-with-backoff helper
//      (`submit_with_backoff` below — the intended client protocol for
//      the reject policy; see docs/serving.md).
//
// Build & run:  ./build/example_serve_ptc [checkpoint.bin]
//   With an argument, steps 1-3 are replaced by loading that checkpoint.
//   Serving knobs: ADEPT_SERVE_THREADS / ADEPT_SERVE_MAX_BATCH /
//   ADEPT_SERVE_MAX_WAIT_US / ADEPT_SERVE_POLICY / ADEPT_SERVE_DEADLINE_US
//   (see src/common/env.h).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/search.h"
#include "data/synthetic.h"
#include "nn/train.h"
#include "runtime/checkpoint.h"
#include "runtime/compiled_model.h"
#include "runtime/server.h"

namespace ph = adept::photonics;
namespace nn = adept::nn;
namespace rt = adept::runtime;
namespace core = adept::core;
namespace data = adept::data;

namespace {

constexpr int kImage = 12;
constexpr int kClasses = 4;
constexpr int kWidth = 6;

ph::PtcTopology search_core() {
  std::printf("=== 1. Miniature ADEPT search (matrix-fit proxy) ===\n");
  core::SearchConfig config;
  config.mesh.k = 8;
  config.mesh.super_blocks_per_unitary = 4;
  config.mesh.always_on_per_unitary = 1;
  config.footprint.pdk = ph::Pdk::amf();
  config.footprint.f_min = 240;
  config.footprint.f_max = 300;
  config.epochs = 8;
  config.warmup_epochs = 2;
  config.spl_epoch = 5;
  config.steps_per_epoch = 12;
  config.alm.rho0 = 1e-4;
  config.seed = 21;
  core::MatrixFitTask task(/*tiles=*/2, /*seed=*/3);
  core::AdeptSearcher searcher(config, task);
  auto result = searcher.run();
  const auto counts = result.topology.counts();
  std::printf("searched core: #CR=%lld #DC=%lld #Blk=%lld, %.0f k-um^2 (AMF)\n\n",
              static_cast<long long>(counts.cr), static_cast<long long>(counts.dc),
              static_cast<long long>(counts.blocks),
              result.topology.footprint_um2(ph::Pdk::amf()) / 1000.0);
  return result.topology;
}

// Client-side retry with exponential backoff: under OverloadPolicy::reject
// the server fails the future with RejectedError instead of blocking, and
// the client owns the waiting. Resubmit with a doubling (capped) pause;
// every other failure — DeadlineExceededError, ShutdownError, a real
// forward error — propagates to the caller.
std::vector<float> submit_with_backoff(rt::Server& server,
                                       const std::vector<float>& input,
                                       int max_attempts = 10) {
  std::int64_t backoff_us = 200;
  for (int attempt = 1;; ++attempt) {
    auto future = server.submit(input);
    try {
      return future.get();
    } catch (const rt::RejectedError&) {
      if (attempt >= max_attempts) throw;
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      backoff_us = std::min<std::int64_t>(backoff_us * 2, 20'000);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string ckpt_path =
      argc > 1 ? argv[1] : std::string("serve_ptc_checkpoint.bin");
  nn::OnnModel model;

  if (argc > 1) {
    std::printf("=== 1-3. Loading checkpoint %s ===\n\n", ckpt_path.c_str());
    rt::LoadedCheckpoint loaded = rt::load_checkpoint(ckpt_path);
    model = std::move(loaded.model);
    if (loaded.pdk) std::printf("checkpoint PDK: %s\n\n", loaded.pdk->name.c_str());
  } else {
    auto topo = std::make_shared<ph::PtcTopology>(search_core());

    std::printf("=== 2. Training the deployable proxy CNN on the core ===\n");
    data::DatasetSpec spec = data::DatasetSpec::mnist_like();
    spec.height = spec.width = kImage;
    spec.classes = kClasses;
    data::SyntheticDataset train(spec, 192, 1), test(spec, 96, 2);
    adept::Rng rng(7);
    model = nn::make_proxy_cnn(1, kImage, kClasses, nn::PtcBinding::fixed(topo),
                               rng, kWidth);
    nn::TrainConfig tc;
    tc.epochs = 2;
    tc.batch_size = 24;
    const auto stats = nn::train_classifier(model, train, test, tc);
    std::printf("test accuracy after %d epochs: %.3f\n\n", tc.epochs,
                stats.final_accuracy);

    std::printf("=== 3. Checkpoint round trip ===\n");
    const ph::Pdk pdk = ph::Pdk::amf();
    rt::save_checkpoint(model, ckpt_path, &pdk);
    rt::LoadedCheckpoint loaded = rt::load_checkpoint(ckpt_path);
    model = std::move(loaded.model);
    std::printf("saved + reloaded %s (PDK %s, bit-exact parameters)\n\n",
                ckpt_path.c_str(), loaded.pdk ? loaded.pdk->name.c_str() : "-");
  }

  std::printf("=== 4. Freezing to a tape-free compiled plan ===\n");
  rt::CompiledModel compiled = rt::CompiledModel::freeze(model, {1, kImage, kImage});
  std::printf("%zu steps, %lld -> %lld features per sample\n\n",
              compiled.num_steps(), static_cast<long long>(compiled.input_numel()),
              static_cast<long long>(compiled.output_numel()));

  std::printf("=== 5. Serving queries ===\n");
  rt::Server server(compiled);  // knobs from ADEPT_SERVE_* env vars
  std::printf("workers=%d max_batch=%d max_wait_us=%d\n", server.config().threads,
              server.config().max_batch, server.config().max_wait_us);

  adept::Rng qrng(31);
  const int n_queries = 48;
  std::vector<std::vector<float>> queries;
  std::vector<std::future<std::vector<float>>> futures;
  for (int i = 0; i < n_queries; ++i) {
    std::vector<float> q(kImage * kImage);
    for (auto& v : q) v = static_cast<float>(qrng.uniform(-1.0, 1.0));
    queries.push_back(q);
    futures.push_back(server.submit(std::move(q)));
  }

  // Verify the served rows against the tape-based eval forward.
  int mismatches = 0;
  {
    adept::ag::NoGradGuard guard;
    model.set_training(false);
    for (int i = 0; i < n_queries; ++i) {
      const std::vector<float> served = futures[static_cast<std::size_t>(i)].get();
      adept::ag::Tensor x = adept::ag::make_tensor(
          queries[static_cast<std::size_t>(i)], {1, 1, kImage, kImage}, false);
      const std::vector<float> tape = model.net->forward(x).data();
      if (served != tape) ++mismatches;
    }
  }
  const rt::ServerStats stats = server.stats();
  std::printf("served %llu requests in %llu micro-batches (fill %.2f), "
              "p50 %.0f us, p99 %.0f us\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.batches), stats.mean_batch_fill,
              stats.latency_p50_us, stats.latency_p99_us);
  std::printf("served vs tape-eval mismatches: %d (should be 0 — bit-exact)\n",
              mismatches);
  server.shutdown();

  std::printf("\n=== 6. Opt-in int8 quantized serving ===\n");
  // A Server serves whichever plan it is handed; int8 is chosen at freeze.
  // Both plans are kept here so they can be compared side by side. int8 is
  // an accuracy trade: outputs are close, not bit-exact (the fp32 plan
  // above IS bit-exact).
  rt::FreezeOptions qopt;
  qopt.quantize_int8 = true;
  rt::CompiledModel quantized =
      rt::CompiledModel::freeze(model, {1, kImage, kImage}, qopt);
  rt::CompiledModel::Workspace qws, fws;
  std::vector<float> qout(static_cast<std::size_t>(quantized.output_numel()));
  std::vector<float> fout(static_cast<std::size_t>(compiled.output_numel()));
  double max_delta = 0.0;
  for (int i = 0; i < n_queries; ++i) {
    const auto& q = queries[static_cast<std::size_t>(i)];
    quantized.run(q.data(), 1, qout.data(), qws);
    compiled.run(q.data(), 1, fout.data(), fws);
    for (std::size_t j = 0; j < qout.size(); ++j) {
      max_delta = std::max(max_delta,
                           static_cast<double>(std::fabs(qout[j] - fout[j])));
    }
  }
  std::printf("int8 vs fp32 worst output delta over %d queries: %.4f\n",
              n_queries, max_delta);

  std::printf("\n=== 7. Overload: reject policy + client retry-with-backoff ===\n");
  // A deliberately tiny server (1 worker, 2-slot queue) flooded by 3
  // clients: admission refusals are expected, and the backoff helper turns
  // every one of them into an eventual success.
  rt::ServerConfig ocfg;
  ocfg.threads = 1;
  ocfg.max_batch = 2;
  ocfg.max_wait_us = 0;
  ocfg.queue_capacity = 2;
  ocfg.policy = rt::OverloadPolicy::reject;
  rt::Server overloaded(compiled, ocfg);
  constexpr int kClients = 3, kPerClient = 16;
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&overloaded, &answered, c] {
      adept::Rng crng(static_cast<std::uint64_t>(100 + c));
      std::vector<float> q(kImage * kImage);
      for (int i = 0; i < kPerClient; ++i) {
        for (auto& v : q) v = static_cast<float>(crng.uniform(-1.0, 1.0));
        (void)submit_with_backoff(overloaded, q);
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();
  const rt::ServerStats ostats = overloaded.stats();
  std::printf("%d queries from %d clients: %d answered, %llu admission "
              "rejections absorbed by backoff\n",
              kClients * kPerClient, kClients, answered.load(),
              static_cast<unsigned long long>(ostats.rejected));
  const bool overload_ok = answered.load() == kClients * kPerClient;
  return (mismatches == 0 && overload_ok) ? 0 : 1;
}
