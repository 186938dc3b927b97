// src/runtime: checkpointing, the compiled tape-free inference engine, and
// the micro-batching server.
//
// The headline guarantees are asserted EXACTLY (ASSERT_EQ on floats, not
// approx): CompiledModel::run is bit-identical to model.forward in eval
// mode, checkpoint round-trips restore bit-identical parameters and
// predictions, and the server returns bit-identical rows at any worker
// count / batch composition.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include "autograd/ops.h"
#include "common/binio.h"
#include "common/rng.h"
#include "common/version.h"
#include "core/supermesh.h"
#include "data/synthetic.h"
#include "nn/layers.h"
#include "nn/models.h"
#include "nn/onn_layers.h"
#include "nn/train.h"
#include "photonics/builders.h"
#include "runtime/checkpoint.h"
#include "runtime/compiled_model.h"
#include "runtime/server.h"

namespace {

namespace ph = adept::photonics;
namespace nn = adept::nn;
namespace rt = adept::runtime;
namespace core = adept::core;
using adept::Rng;
using adept::ag::Tensor;

// Random [n, ...dims] input batch.
std::vector<float> random_input(std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// Eval-mode tape forward of a flat input batch.
std::vector<float> tape_forward(nn::OnnModel& model,
                                const std::vector<float>& input,
                                std::vector<std::int64_t> shape) {
  adept::ag::NoGradGuard guard;
  const bool was_training = model.training();
  model.set_training(false);
  Tensor x = adept::ag::make_tensor(input, std::move(shape), false);
  Tensor y = model.net->forward(x);
  model.set_training(was_training);
  return y.data();
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

// Proxy CNN (conv/BN/ReLU/avgpool/flatten/fc) on 1x12x12 inputs, PTC-bound.
nn::OnnModel make_cnn(std::uint64_t seed, int classes = 4, int width = 6) {
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(8));
  Rng rng(seed);
  return nn::make_proxy_cnn(1, 12, classes, nn::PtcBinding::fixed(topo), rng, width);
}

TEST(CompiledModel, BitExactVsTapeMLP) {
  nn::OnnModel model = make_mlp(7);
  rt::CompiledModel cm = rt::CompiledModel::freeze(model, {18});
  EXPECT_EQ(cm.input_numel(), 18);
  EXPECT_EQ(cm.output_numel(), 4);

  Rng rng(3);
  for (std::int64_t batch : {1, 5, 17}) {
    const std::vector<float> x = random_input(batch * 18, rng);
    const std::vector<float> ref = tape_forward(model, x, {batch, 18});
    const std::vector<float> got = cm.run(x, batch);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i], got[i]) << "batch " << batch << " element " << i;
    }
  }
}

TEST(CompiledModel, BitExactVsTapeProxyCnn) {
  nn::OnnModel model = make_cnn(11);
  // Drive a few training steps first so BatchNorm running stats are
  // non-trivial (the compiled plan must reproduce the eval branch exactly).
  adept::data::DatasetSpec spec = adept::data::DatasetSpec::mnist_like();
  spec.height = spec.width = 12;
  spec.classes = 4;
  adept::data::SyntheticDataset train(spec, 32, 1);
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 16;
  const auto stats = nn::train_classifier(model, train, train, tc);
  (void)stats;

  rt::CompiledModel cm = rt::CompiledModel::freeze(model, {1, 12, 12});
  Rng rng(5);
  for (std::int64_t batch : {1, 4}) {
    const std::vector<float> x = random_input(batch * 144, rng);
    const std::vector<float> ref = tape_forward(model, x, {batch, 1, 12, 12});
    const std::vector<float> got = cm.run(x, batch);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i], got[i]) << "batch " << batch << " element " << i;
    }
  }
}

TEST(CompiledModel, BitExactVsTapeLenetMaxpool) {
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(8));
  Rng rng(13);
  nn::OnnModel model =
      nn::make_lenet5(1, 16, 4, nn::PtcBinding::fixed(topo), rng, 0.5);
  rt::CompiledModel cm = rt::CompiledModel::freeze(model, {1, 16, 16});
  Rng in_rng(2);
  const std::vector<float> x = random_input(3 * 256, in_rng);
  const std::vector<float> ref = tape_forward(model, x, {3, 1, 16, 16});
  const std::vector<float> got = cm.run(x, 3);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(ref[i], got[i]);
}

TEST(CompiledModel, FrozenWeightsAreSnapshots) {
  nn::OnnModel model = make_mlp(19);
  rt::CompiledModel cm = rt::CompiledModel::freeze(model, {18});
  Rng rng(1);
  const std::vector<float> x = random_input(2 * 18, rng);
  const std::vector<float> before = cm.run(x, 2);
  // Mutate the source model; the compiled plan must not move.
  for (auto& p : model.parameters()) {
    for (auto& v : p.data()) v += 0.25f;
  }
  adept::bump_param_version();
  const std::vector<float> after = cm.run(x, 2);
  ASSERT_EQ(before, after);
  // And the tape path must now differ (sanity that the mutation mattered).
  const std::vector<float> tape = tape_forward(model, x, {2, 18});
  bool any_diff = false;
  for (std::size_t i = 0; i < tape.size(); ++i) any_diff |= tape[i] != before[i];
  EXPECT_TRUE(any_diff);
}

TEST(CompiledModel, RefusesNonFiniteParameters) {
  auto expect_refused = [](nn::OnnModel& model, std::vector<std::int64_t> dims,
                           const std::string& what) {
    try {
      rt::CompiledModel::freeze(model, std::move(dims));
      ADD_FAILURE() << "froze a model with a non-finite " << what;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
  };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  {
    // A NaN in the dense layer's weight.
    nn::OnnModel model = make_mlp(24);
    auto* fc = dynamic_cast<nn::ONNLinear*>(model.onn_layers[1]);
    ASSERT_NE(fc, nullptr);
    fc->weight().dense_weight().data()[3] = nan;
    adept::bump_param_version();
    expect_refused(model, {18}, "module 2 (ONNLinear): weight");
  }
  {
    // An infinite Sigma makes the PTC layer's materialized weight non-finite.
    nn::OnnModel model = make_mlp(25);
    auto* fc = dynamic_cast<nn::ONNLinear*>(model.onn_layers[0]);
    ASSERT_NE(fc, nullptr);
    fc->weight().sigma_stack().data()[0] = std::numeric_limits<float>::infinity();
    adept::bump_param_version();
    expect_refused(model, {18}, "module 0 (ONNLinear): weight");
  }
  {
    // A NaN running variance in the CNN's BatchNorm.
    nn::OnnModel model = make_cnn(26);
    for (const auto& m : nn::flatten_modules(model.net)) {
      if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(m.get())) {
        bn->running_var()[0] = nan;
        break;
      }
    }
    expect_refused(model, {1, 12, 12}, "(BatchNorm2d): running variance");
  }
}

TEST(CompiledModel, RejectsUnknownShapes) {
  nn::OnnModel model = make_mlp(23);
  EXPECT_THROW(rt::CompiledModel::freeze(model, {17}), std::runtime_error);
  rt::CompiledModel cm = rt::CompiledModel::freeze(model, {18});
  EXPECT_THROW(cm.run(std::vector<float>(17), 1), std::runtime_error);
}

// ---- checkpointing ------------------------------------------------------

TEST(Checkpoint, RoundTripBitExact) {
  nn::OnnModel model = make_cnn(29);
  adept::data::DatasetSpec spec = adept::data::DatasetSpec::mnist_like();
  spec.height = spec.width = 12;
  spec.classes = 4;
  adept::data::SyntheticDataset train(spec, 32, 2);
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 16;
  nn::train_classifier(model, train, train, tc);

  const ph::Pdk pdk = ph::Pdk::aim();
  const std::string path = ::testing::TempDir() + "adept_ckpt_roundtrip.bin";
  rt::save_checkpoint(model, path, &pdk);
  rt::LoadedCheckpoint loaded = rt::load_checkpoint(path);

  ASSERT_TRUE(loaded.pdk.has_value());
  EXPECT_EQ(loaded.pdk->name, "AIM");
  EXPECT_EQ(loaded.pdk->ps_area_um2, pdk.ps_area_um2);
  EXPECT_EQ(loaded.pdk->cr_area_um2, pdk.cr_area_um2);

  // Parameters restore bit for bit, in the same traversal order.
  auto p0 = model.parameters();
  auto p1 = loaded.model.parameters();
  ASSERT_EQ(p0.size(), p1.size());
  for (std::size_t i = 0; i < p0.size(); ++i) {
    ASSERT_EQ(p0[i].data(), p1[i].data()) << "parameter " << i;
  }
  EXPECT_EQ(model.onn_layers.size(), loaded.model.onn_layers.size());

  // Eval predictions restore bit for bit (BatchNorm running stats incl.).
  Rng rng(4);
  const std::vector<float> x = random_input(4 * 144, rng);
  ASSERT_EQ(tape_forward(model, x, {4, 1, 12, 12}),
            tape_forward(loaded.model, x, {4, 1, 12, 12}));

  // And the loaded model freezes to the same compiled results.
  rt::CompiledModel cm = rt::CompiledModel::freeze(loaded.model, {1, 12, 12});
  ASSERT_EQ(tape_forward(model, x, {4, 1, 12, 12}), cm.run(x, 4));
  std::remove(path.c_str());
}

TEST(Checkpoint, RoundTripInMemoryMLP) {
  nn::OnnModel model = make_mlp(31);
  const std::string bytes = rt::encode_checkpoint(model);
  rt::LoadedCheckpoint loaded = rt::decode_checkpoint(bytes);
  EXPECT_FALSE(loaded.pdk.has_value());
  Rng rng(6);
  const std::vector<float> x = random_input(3 * 18, rng);
  ASSERT_EQ(tape_forward(model, x, {3, 18}), tape_forward(loaded.model, x, {3, 18}));
}

// Expects decode to throw a runtime_error whose message contains `needle`.
void expect_decode_error(const std::string& bytes, const std::string& needle) {
  try {
    rt::decode_checkpoint(bytes);
    FAIL() << "expected failure mentioning \"" << needle << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(Checkpoint, CorruptFilesFailActionably) {
  nn::OnnModel model = make_mlp(37);
  const std::string good = rt::encode_checkpoint(model);
  ASSERT_NO_THROW(rt::decode_checkpoint(good));

  {  // bad magic
    std::string bad = good;
    bad[0] = 'X';
    expect_decode_error(bad, "bad magic");
  }
  {  // version skew
    std::string bad = good;
    bad[8] = 9;
    expect_decode_error(bad, "unsupported format version 9");
  }
  {  // truncated payload
    expect_decode_error(good.substr(0, good.size() - 25), "truncated payload");
  }
  {  // absurd payload size (u64 near-max must not wrap the bounds check)
    std::string bad = good;
    for (int i = 12; i < 20; ++i) bad[static_cast<std::size_t>(i)] = '\xff';
    expect_decode_error(bad, "truncated payload");
  }
  {  // truncated header
    expect_decode_error(good.substr(0, 10), "truncated header");
  }
  {  // flipped payload byte -> CRC catches it
    std::string bad = good;
    bad[good.size() / 2] ^= 0x40;
    expect_decode_error(bad, "CRC mismatch");
  }
  {  // empty file
    expect_decode_error("", "truncated header");
  }
  {  // bytes appended after the CRC trailer
    expect_decode_error(good + "extra", "trailing garbage");
  }
  {  // a retired module tag (3 held the electronic Linear) under a valid CRC
    std::string payload;
    adept::binio::put_u8(payload, 0);   // no PDK
    adept::binio::put_u32(payload, 0);  // no topologies
    adept::binio::put_u32(payload, 1);  // one module
    adept::binio::put_u8(payload, 3);
    std::string bad = good.substr(0, 8 + 4);  // magic + version
    adept::binio::put_u64(bad, payload.size());
    bad += payload;
    adept::binio::put_u32(bad, rt::crc32(payload));
    expect_decode_error(bad, "unknown module tag 3");
  }
}

// Saving a model that holds a NaN or an infinity throws before a byte is
// written: no checkpoint and no stray temp file. The message names the
// module and the field.
TEST(Checkpoint, SaveRefusesNonFiniteParameters) {
  const std::string path = ::testing::TempDir() + "adept_ckpt_nonfinite.bin";
  std::remove(path.c_str());
  auto expect_refused = [&](nn::OnnModel& model, const std::string& field) {
    try {
      rt::save_checkpoint(model, path);
      ADD_FAILURE() << "saved a model with a non-finite " << field;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("non-finite"), std::string::npos) << msg;
      EXPECT_NE(msg.find(field), std::string::npos) << msg;
    }
    EXPECT_FALSE(std::ifstream(path).good()) << field;
    EXPECT_FALSE(std::ifstream(path + ".tmp").good()) << field;
  };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  auto linear = [](nn::OnnModel& model, std::size_t i) -> nn::ONNLinear& {
    return dynamic_cast<nn::ONNLinear&>(*model.onn_layers[i]);
  };
  {
    nn::OnnModel model = make_mlp(61);
    linear(model, 0).weight().phi_u()[0].data()[0] = nan;
    expect_refused(model, "module 0 (ONNLinear) phi_u[0]");
  }
  {
    nn::OnnModel model = make_mlp(62);
    linear(model, 0).weight().sigma_stack().data()[1] = -inf;
    expect_refused(model, "module 0 (ONNLinear) sigma");
  }
  {
    nn::OnnModel model = make_mlp(63);
    linear(model, 1).weight().dense_weight().data()[2] = inf;
    expect_refused(model, "module 2 (ONNLinear) dense weight");
  }
  {
    nn::OnnModel model = make_mlp(64);
    linear(model, 1).bias().data()[0] = nan;
    expect_refused(model, "module 2 bias");
  }
  for (const std::string field : {"gamma", "beta", "running_mean", "running_var"}) {
    nn::OnnModel model = make_cnn(65);
    const auto modules = nn::flatten_modules(model.net);
    for (std::size_t i = 0; i < modules.size(); ++i) {
      auto* bn = dynamic_cast<nn::BatchNorm2d*>(modules[i].get());
      if (bn == nullptr) continue;
      std::vector<float>& v = field == "gamma"          ? bn->gamma().data()
                              : field == "beta"         ? bn->beta().data()
                              : field == "running_mean" ? bn->running_mean()
                                                        : bn->running_var();
      v[0] = nan;
      expect_refused(model, "module " + std::to_string(i) + " " + field);
      break;
    }
  }
}

TEST(Checkpoint, ImplausibleCountsFailActionably) {
  // A crafted file can carry a VALID CRC over garbage counts; allocation
  // sizing must still fail through the contextualized path, not bad_alloc.
  nn::OnnModel model = make_mlp(59);
  const std::string good = rt::encode_checkpoint(model);
  const std::size_t payload_begin = 8 + 4 + 8;  // magic + version + size
  std::string payload = good.substr(payload_begin, good.size() - payload_begin - 4);
  // Payload layout starts: u8 pdk flag, u32 topology count.
  for (int i = 1; i <= 4; ++i) payload[static_cast<std::size_t>(i)] = '\xff';
  std::string bad = good.substr(0, payload_begin) + payload;
  adept::binio::put_u32(bad, rt::crc32(payload));  // re-seal the CRC
  expect_decode_error(bad, "implausible topology count");
}

TEST(Checkpoint, RejectsLiveSupermeshBindings) {
  core::SuperMeshConfig mc;
  mc.k = 4;
  mc.super_blocks_per_unitary = 2;
  mc.always_on_per_unitary = 1;
  Rng mesh_rng(3);
  core::SuperMesh mesh(mc, mesh_rng);
  Rng step_rng(4);
  mesh.begin_step(0.5, step_rng, /*stochastic=*/false);

  Rng rng(5);
  nn::OnnModel model;
  model.net = std::make_shared<nn::Sequential>();
  auto l = std::make_shared<nn::ONNLinear>(8, 8, nn::PtcBinding::searched(&mesh), rng);
  model.net->add(l);
  model.onn_layers = {l.get()};
  try {
    rt::encode_checkpoint(model);
    FAIL() << "expected supermesh rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("SuperMesh"), std::string::npos);
  }
}

// ---- eval-cache thread safety (regression for the check-then-assign race)

TEST(WeightExprCache, ConcurrentNoGradReadersAreSafe) {
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(8));
  Rng rng(41);
  nn::ONNLinear layer(16, 16, nn::PtcBinding::fixed(topo), rng);

  std::vector<float> reference;
  {
    adept::ag::NoGradGuard guard;
    reference = layer.weight().weight_expr().data();
  }

  // Rounds of concurrent readers; between rounds the version is bumped so
  // every round re-races the build/publish path (pre-fix this tears the
  // cached tensor under ASan).
  for (int round = 0; round < 5; ++round) {
    adept::bump_param_version();
    std::vector<std::thread> threads;
    std::vector<int> mismatches(8, 0);
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        adept::ag::NoGradGuard guard;
        for (int it = 0; it < 20; ++it) {
          const std::vector<float> w = layer.weight().weight_expr().data();
          if (w != reference) ++mismatches[static_cast<std::size_t>(t)];
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < 8; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0);
  }
}

TEST(WeightExprCache, ThreadLocalGradModeIsolation) {
  // A no-grad scope on one thread must not disable tracking on another.
  adept::ag::NoGradGuard guard;
  bool other_thread_tracks = false;
  std::thread t([&] { other_thread_tracks = adept::ag::GradMode::enabled(); });
  t.join();
  EXPECT_TRUE(other_thread_tracks);
  EXPECT_FALSE(adept::ag::GradMode::enabled());
}

// ---- serving ------------------------------------------------------------

TEST(Server, IdenticalResultsAcrossWorkerCounts) {
  nn::OnnModel model = make_mlp(43);
  rt::CompiledModel cm = rt::CompiledModel::freeze(model, {18});

  Rng rng(9);
  const int n = 64;
  std::vector<std::vector<float>> inputs;
  std::vector<std::vector<float>> expected;
  for (int i = 0; i < n; ++i) {
    inputs.push_back(random_input(18, rng));
    expected.push_back(cm.run(inputs.back(), 1));
  }

  for (int threads : {1, 4, 8}) {
    rt::ServerConfig cfg;
    cfg.threads = threads;
    cfg.max_batch = 8;
    cfg.max_wait_us = 500;
    rt::Server server(cm, cfg);
    std::vector<std::future<std::vector<float>>> futures;
    for (int i = 0; i < n; ++i) futures.push_back(server.submit(inputs[i]));
    for (int i = 0; i < n; ++i) {
      const std::vector<float> got = futures[static_cast<std::size_t>(i)].get();
      ASSERT_EQ(expected[static_cast<std::size_t>(i)], got)
          << "request " << i << " at " << threads << " threads";
    }
    const rt::ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(n));
    EXPECT_GE(stats.batches, 1u);
    EXPECT_GE(stats.mean_batch_fill, 1.0);
    EXPECT_LE(stats.mean_batch_fill, 8.0);
    EXPECT_GE(stats.latency_p99_us, stats.latency_p50_us);
  }
}

TEST(Server, GracefulShutdownAnswersQueuedWork) {
  nn::OnnModel model = make_mlp(47);
  rt::CompiledModel cm = rt::CompiledModel::freeze(model, {18});
  rt::ServerConfig cfg;
  cfg.threads = 2;
  cfg.max_batch = 4;
  cfg.max_wait_us = 0;
  rt::Server server(cm, cfg);

  Rng rng(10);
  std::vector<std::future<std::vector<float>>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(server.submit(random_input(18, rng)));
  server.shutdown();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().size(), 4u);  // all answered, none dropped
  }
  // Submitting after shutdown fails the future, not the process.
  auto late = server.submit(random_input(18, rng));
  EXPECT_THROW(late.get(), std::runtime_error);
  // Idempotent.
  server.shutdown();
}

TEST(Server, RejectsWrongInputSize) {
  nn::OnnModel model = make_mlp(53);
  rt::CompiledModel cm = rt::CompiledModel::freeze(model, {18});
  rt::Server server(cm, rt::ServerConfig{});
  EXPECT_THROW(server.submit(std::vector<float>(7)), std::invalid_argument);
  // Non-finite inputs are refused before they reach a worker, naming the
  // first bad value.
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    std::vector<float> x(18, 0.5f);
    x[11] = bad;
    x[13] = bad;
    try {
      server.submit(x);
      ADD_FAILURE() << "accepted input value " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("value 11 "), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(server.submit(std::vector<float>(18, 0.5f)).get().size(), 4u);
}

// ---- ADEPT_SERVE_* env knob clamping ------------------------------------

TEST(ServerConfig, EnvKnobsClampIntoSupportedRange) {
  auto with_env = [](const char* name, const char* value, auto fn) {
    ::setenv(name, value, 1);
    fn();
    ::unsetenv(name);
  };

  with_env("ADEPT_SERVE_THREADS", "0", [] {
    EXPECT_EQ(rt::ServerConfig::from_env().threads, 1);
  });
  with_env("ADEPT_SERVE_THREADS", "-3", [] {
    EXPECT_EQ(rt::ServerConfig::from_env().threads, 1);
  });
  with_env("ADEPT_SERVE_THREADS", "100000", [] {
    EXPECT_EQ(rt::ServerConfig::from_env().threads, 256);
  });
  with_env("ADEPT_SERVE_THREADS", "5", [] {
    EXPECT_EQ(rt::ServerConfig::from_env().threads, 5);
  });
  with_env("ADEPT_SERVE_MAX_BATCH", "-1", [] {
    EXPECT_EQ(rt::ServerConfig::from_env().max_batch, 1);
  });
  with_env("ADEPT_SERVE_MAX_BATCH", "1000000", [] {
    EXPECT_EQ(rt::ServerConfig::from_env().max_batch, 4096);
  });
  with_env("ADEPT_SERVE_MAX_BATCH", "32", [] {
    EXPECT_EQ(rt::ServerConfig::from_env().max_batch, 32);
  });
  with_env("ADEPT_SERVE_MAX_WAIT_US", "-5", [] {
    EXPECT_EQ(rt::ServerConfig::from_env().max_wait_us, 0);
  });
  with_env("ADEPT_SERVE_MAX_WAIT_US", "99999999", [] {
    EXPECT_EQ(rt::ServerConfig::from_env().max_wait_us, 1000000);
  });
  // Unset -> defaults (threads default is hardware-dependent but in range).
  const rt::ServerConfig def = rt::ServerConfig::from_env();
  EXPECT_GE(def.threads, 1);
  EXPECT_LE(def.threads, 256);
  EXPECT_EQ(def.max_batch, 16);
  EXPECT_EQ(def.max_wait_us, 100);
}

}  // namespace
