// runtime/plan.h: the freeze-time planning passes.
//
// The contract under test (see plan.h's header): every fp32 transformation —
// BatchNorm epilogue fusion, conv sample-block tiling, liveness-based slot
// reuse, weight pre-packing — preserves the exact per-element float
// operation sequence, so the OPTIMIZED plan is ASSERT_EQ-bit-identical to
// the unoptimized reference chain (and, transitively via test_runtime.cpp,
// to the tape). The opt-in int8 mode is exempt from that contract but makes
// its own promises: integer kernels are bit-identical across SIMD levels,
// results are independent of micro-batch composition, and outputs stay
// close to fp32. Both modes give the same bits at 1 and 4 kernel threads,
// and the runtime.plan.step failpoint surfaces a failed step as an error,
// standalone and through a serving future.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/dispatch.h"
#include "backend/kernels.h"
#include "backend/parallel.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/version.h"
#include "data/synthetic.h"
#include "nn/layers.h"
#include "nn/models.h"
#include "nn/train.h"
#include "photonics/builders.h"
#include "runtime/compiled_model.h"
#include "runtime/server.h"
#include "pool_fanouts.h"

namespace {

namespace be = adept::backend;
namespace ph = adept::photonics;
namespace nn = adept::nn;
namespace rt = adept::runtime;
using adept::Rng;
using adept::test::pool_fanouts;

std::vector<float> random_input(std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// ONN MLP with awkward (odd) widths so the int8 k-pair path exercises its
// zero-padded tail: 17 -> 9 -> 4.
nn::OnnModel make_mlp(std::uint64_t seed) {
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(4));
  Rng rng(seed);
  nn::OnnModel model;
  model.net = std::make_shared<nn::Sequential>();
  auto l1 =
      std::make_shared<nn::ONNLinear>(17, 9, nn::PtcBinding::fixed(topo), rng);
  auto l2 = std::make_shared<nn::ONNLinear>(9, 4, nn::PtcBinding::dense(), rng);
  model.net->add(l1);
  model.net->add(std::make_shared<nn::ReLU>());
  model.net->add(l2);
  model.onn_layers = {l1.get(), l2.get()};
  return model;
}

// Proxy CNN (conv-BN-ReLU x2, avgpool, fc) on 1x12x12; BN running stats are
// made non-trivial with a short training run so epilogue fusion has real
// mu/var to reproduce.
nn::OnnModel make_trained_cnn(std::uint64_t seed) {
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(8));
  Rng rng(seed);
  nn::OnnModel model =
      nn::make_proxy_cnn(1, 12, 4, nn::PtcBinding::fixed(topo), rng, 6);
  adept::data::DatasetSpec spec = adept::data::DatasetSpec::mnist_like();
  spec.height = spec.width = 12;
  spec.classes = 4;
  adept::data::SyntheticDataset train(spec, 32, 1);
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 16;
  (void)nn::train_classifier(model, train, train, tc);
  return model;
}

nn::OnnModel make_lenet(std::uint64_t seed) {
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(8));
  Rng rng(seed);
  return nn::make_lenet5(1, 16, 4, nn::PtcBinding::fixed(topo), rng, 0.5);
}

// Width-32 proxy CNN on 16x16 inputs: its second conv passes the backend's
// work gate even at batch 1, where the mlp and lenet above stay serial.
nn::OnnModel make_wide_cnn(std::uint64_t seed) {
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(8));
  Rng rng(seed);
  return nn::make_proxy_cnn(1, 16, 4, nn::PtcBinding::fixed(topo), rng, 32);
}

rt::CompiledModel freeze(nn::OnnModel& model, std::vector<std::int64_t> dims,
                         bool optimize, bool quantize = false) {
  rt::FreezeOptions o;
  o.optimize = optimize;
  o.quantize_int8 = quantize;
  return rt::CompiledModel::freeze(model, std::move(dims), o);
}

void expect_bit_identical(const std::vector<float>& a,
                          const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " element " << i;
  }
}

// ---- fp32 bit-exactness: optimized plan == reference chain ----------------

TEST(PlanFp32, OptimizedBitIdenticalMlp) {
  nn::OnnModel model = make_mlp(7);
  rt::CompiledModel ref = freeze(model, {17}, /*optimize=*/false);
  rt::CompiledModel opt = freeze(model, {17}, /*optimize=*/true);
  Rng rng(3);
  for (std::int64_t batch : {1, 2, 5, 16}) {
    const std::vector<float> x = random_input(batch * 17, rng);
    expect_bit_identical(ref.run(x, batch), opt.run(x, batch), "mlp");
  }
}

TEST(PlanFp32, OptimizedBitIdenticalProxyCnn) {
  nn::OnnModel model = make_trained_cnn(11);
  rt::CompiledModel ref = freeze(model, {1, 12, 12}, /*optimize=*/false);
  rt::CompiledModel opt = freeze(model, {1, 12, 12}, /*optimize=*/true);
  Rng rng(5);
  for (std::int64_t batch : {1, 3, 8}) {
    const std::vector<float> x = random_input(batch * 144, rng);
    expect_bit_identical(ref.run(x, batch), opt.run(x, batch), "proxy-cnn");
  }
}

TEST(PlanFp32, OptimizedBitIdenticalLenet) {
  nn::OnnModel model = make_lenet(13);
  rt::CompiledModel ref = freeze(model, {1, 16, 16}, /*optimize=*/false);
  rt::CompiledModel opt = freeze(model, {1, 16, 16}, /*optimize=*/true);
  Rng rng(2);
  for (std::int64_t batch : {1, 4, 9}) {
    const std::vector<float> x = random_input(batch * 256, rng);
    expect_bit_identical(ref.run(x, batch), opt.run(x, batch), "lenet");
  }
}

// ---- liveness: freed slots are really dead --------------------------------

// NaN-poison every slot that is not an operand of the step about to run. If
// the liveness analysis freed a slot some later step still reads, the NaN
// propagates and the comparison against the clean run fails.
TEST(PlanLiveness, PoisonedFreeSlotsNeverAlias) {
  nn::OnnModel model = make_trained_cnn(17);
  rt::CompiledModel opt = freeze(model, {1, 12, 12}, /*optimize=*/true);
  Rng rng(23);
  for (std::int64_t batch : {1, 6}) {
    const std::vector<float> x = random_input(batch * 144, rng);
    std::vector<float> clean(
        static_cast<std::size_t>(batch * opt.output_numel()));
    std::vector<float> poisoned(clean.size());
    rt::CompiledModel::Workspace ws;
    opt.run(x.data(), batch, clean.data(), ws);
    ws.poison_free_slots = true;
    opt.run(x.data(), batch, poisoned.data(), ws);
    for (std::size_t i = 0; i < clean.size(); ++i) {
      ASSERT_FALSE(std::isnan(poisoned[i])) << "freed-slot read at " << i;
      ASSERT_EQ(clean[i], poisoned[i]) << "element " << i;
    }
  }
}

// ---- workspace accounting -------------------------------------------------

TEST(PlanLiveness, PlannedWorkspaceIsSmaller) {
  nn::OnnModel model = make_trained_cnn(29);
  rt::CompiledModel ref = freeze(model, {1, 12, 12}, /*optimize=*/false);
  rt::CompiledModel opt = freeze(model, {1, 12, 12}, /*optimize=*/true);
  for (std::int64_t batch : {1, 16}) {
    EXPECT_LT(opt.workspace_bytes(batch), ref.workspace_bytes(batch))
        << "batch " << batch;
  }
  // The reported footprint scales with batch.
  EXPECT_GT(opt.workspace_bytes(16), opt.workspace_bytes(1));
}

TEST(PlanDump, ListsStepsSlotsAndFusions) {
  nn::OnnModel model = make_trained_cnn(31);
  rt::CompiledModel opt = freeze(model, {1, 12, 12}, /*optimize=*/true);
  std::ostringstream os;
  opt.dump_plan(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("conv"), std::string::npos) << text;
  EXPECT_NE(text.find("slot"), std::string::npos) << text;
  EXPECT_NE(text.find("bn"), std::string::npos) << text;  // fused epilogue
  // Slot text as docs/compiled_model.md shows it: the first step reads the
  // caller's input into s0, the last writes the caller's output.
  std::vector<std::string> step_lines;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("#", 0) == 0) step_lines.push_back(line);
  }
  ASSERT_GE(step_lines.size(), 2u) << text;
  const auto ends_with = [](const std::string& s, const std::string& tail) {
    return s.size() >= tail.size() &&
           s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
  };
  EXPECT_TRUE(ends_with(step_lines.front(), "  ext -> s0")) << text;
  EXPECT_TRUE(ends_with(step_lines.back(), " -> ext")) << text;

  rt::CompiledModel q =
      freeze(model, {1, 12, 12}, /*optimize=*/true, /*quantize=*/true);
  std::ostringstream qs;
  q.dump_plan(qs);
  EXPECT_NE(qs.str().find("int8"), std::string::npos) << qs.str();
}

// ---- int8: SIMD-level parity ----------------------------------------------

// The quantized plan must produce IDENTICAL bits at every dispatch level —
// integer accumulation has no rounding, and the quantization helpers
// (absmax / quantize_s8) are exact at every level by construction.
TEST(PlanInt8, BitIdenticalAcrossSimdLevels) {
  nn::OnnModel model = make_trained_cnn(37);
  rt::CompiledModel q =
      freeze(model, {1, 12, 12}, /*optimize=*/true, /*quantize=*/true);
  Rng rng(41);
  const std::int64_t batch = 5;
  const std::vector<float> x = random_input(batch * 144, rng);
  std::vector<float> ref;
  for (be::SimdLevel level : be::available_simd_levels()) {
    be::SimdScope scope(level);
    const std::vector<float> got = q.run(x, batch);
    if (ref.empty()) {
      ref = got;
      continue;
    }
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i], got[i])
          << "level " << be::simd_level_name(level) << " element " << i;
    }
  }
}

// Same parity promise at the kernel level, on awkward shapes (odd k so the
// s8 k-pair path hits its zero-padded tail, n not a multiple of the tile).
TEST(PlanInt8, KernelHelpersBitIdenticalAcrossLevels) {
  Rng rng(43);
  for (const std::size_t n : {1u, 7u, 31u, 32u, 33u, 100u, 257u}) {
    std::vector<float> x(n);
    for (auto& v : x) v = static_cast<float>(rng.uniform(-3.0, 3.0));
    float ref_max = -1.0f;
    std::vector<std::int8_t> ref_q;
    for (be::SimdLevel level : be::available_simd_levels()) {
      be::SimdScope scope(level);
      const float amax = be::absmax(n, x.data());
      std::vector<std::int8_t> q(n);
      be::quantize_s8(n, x.data(), amax > 0 ? 127.0f / amax : 0.0f, q.data());
      if (ref_max < 0) {
        ref_max = amax;
        ref_q = q;
        continue;
      }
      ASSERT_EQ(ref_max, amax) << be::simd_level_name(level) << " n=" << n;
      ASSERT_EQ(ref_q, q) << be::simd_level_name(level) << " n=" << n;
    }
  }

  for (const auto [m, n, k] :
       {std::array<std::int64_t, 3>{1, 1, 1},
        std::array<std::int64_t, 3>{3, 17, 25},
        std::array<std::int64_t, 3>{9, 16, 7},
        std::array<std::int64_t, 3>{13, 33, 75}}) {
    std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    for (auto& v : a)
      v = static_cast<std::int8_t>(rng.uniform_int(0, 254) - 127);
    for (auto& v : b)
      v = static_cast<std::int8_t>(rng.uniform_int(0, 254) - 127);
    std::vector<std::int32_t> ref;
    for (be::SimdLevel level : be::available_simd_levels()) {
      be::SimdScope scope(level);
      const be::PackedGemmBS8 pb = be::pack_gemm_b_s8(k, n, b.data(), n);
      std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), -1);
      be::gemm_s8_packed(m, n, k, a.data(), k, b.data(), n, pb, c.data(), n);
      if (ref.empty()) {
        ref = c;
        continue;
      }
      ASSERT_EQ(ref, c) << be::simd_level_name(level) << " m=" << m
                        << " n=" << n << " k=" << k;
    }
  }
}

// ---- int8: batch-composition invariance -----------------------------------

// Activations are quantized per sample, so a sample's row must not depend
// on what else shares its micro-batch (the serving batcher mixes arbitrary
// requests).
TEST(PlanInt8, RowsIndependentOfBatchComposition) {
  nn::OnnModel model = make_trained_cnn(47);
  rt::CompiledModel q =
      freeze(model, {1, 12, 12}, /*optimize=*/true, /*quantize=*/true);
  Rng rng(53);
  const std::int64_t batch = 7;
  const std::vector<float> x = random_input(batch * 144, rng);
  const std::vector<float> together = q.run(x, batch);
  const std::size_t out = static_cast<std::size_t>(q.output_numel());
  for (std::int64_t i = 0; i < batch; ++i) {
    const std::vector<float> one(x.begin() + i * 144, x.begin() + (i + 1) * 144);
    const std::vector<float> alone = q.run(one, 1);
    for (std::size_t j = 0; j < out; ++j) {
      ASSERT_EQ(together[static_cast<std::size_t>(i) * out + j], alone[j])
          << "sample " << i << " element " << j;
    }
  }
}

// ---- int8: accuracy stays close to fp32 -----------------------------------

TEST(PlanInt8, OutputsCloseToFp32) {
  nn::OnnModel model = make_trained_cnn(59);
  rt::CompiledModel f = freeze(model, {1, 12, 12}, /*optimize=*/true);
  rt::CompiledModel q =
      freeze(model, {1, 12, 12}, /*optimize=*/true, /*quantize=*/true);
  Rng rng(61);
  const std::int64_t batch = 16;
  const std::vector<float> x = random_input(batch * 144, rng);
  const std::vector<float> a = f.run(x, batch);
  const std::vector<float> b = q.run(x, batch);
  ASSERT_EQ(a.size(), b.size());
  float scale = 1e-3f;
  for (const float v : a) scale = std::max(scale, std::fabs(v));
  for (std::size_t i = 0; i < a.size(); ++i) {
    // 8-bit weights and activations across two convs + fc: a few percent of
    // the logit range is the expected regime; 10% is a loose alarm bound.
    ASSERT_NEAR(a[i], b[i], 0.10f * scale) << "element " << i;
  }
}

// ---- thread-count parity ---------------------------------------------------

// Plan steps call the backend kernels, whose chunk boundaries are pure
// functions of the problem size, so 1 and 4 kernel threads give the same
// bits at every SIMD level.
std::vector<float> run_at_threads(const rt::CompiledModel& cm,
                                  const std::vector<float>& x,
                                  std::int64_t batch, int threads) {
  be::ThreadScope scope(threads);
  return cm.run(x, batch);
}

// The wide model's 4-thread side must have posted work to pool helpers, so
// the comparison is threaded vs serial rather than serial vs serial.
void expect_threads_bit_identical_and_fanned_out(const rt::CompiledModel& cm,
                                                 const std::vector<float>& x,
                                                 std::int64_t batch,
                                                 const std::string& tag) {
  const std::vector<float> one = run_at_threads(cm, x, batch, 1);
  const std::uint64_t fanouts = pool_fanouts();
  const std::vector<float> four = run_at_threads(cm, x, batch, 4);
  EXPECT_GT(pool_fanouts(), fanouts) << tag;
  expect_bit_identical(one, four, tag.c_str());
}

TEST(PlanThreads, OneVsFourThreadsBitIdenticalAcrossSimdLevels) {
  nn::OnnModel mlp = make_mlp(7);
  nn::OnnModel lenet = make_lenet(19);
  nn::OnnModel wide = make_wide_cnn(29);
  const rt::CompiledModel mlp_cm = freeze(mlp, {17}, /*optimize=*/true);
  const rt::CompiledModel net_cm = freeze(lenet, {1, 16, 16}, /*optimize=*/true);
  const rt::CompiledModel wide_cm = freeze(wide, {1, 16, 16}, /*optimize=*/true);
  Rng rng(3);
  for (be::SimdLevel level : be::available_simd_levels()) {
    be::SimdScope scope(level);
    for (std::int64_t batch : {1, 3, 16}) {
      const std::string tag = std::string("level ") +
                              be::simd_level_name(level) + " batch " +
                              std::to_string(batch);
      const std::vector<float> xm = random_input(batch * 17, rng);
      expect_bit_identical(run_at_threads(mlp_cm, xm, batch, 1),
                           run_at_threads(mlp_cm, xm, batch, 4),
                           ("mlp " + tag).c_str());
      const std::vector<float> xl = random_input(batch * 256, rng);
      expect_bit_identical(run_at_threads(net_cm, xl, batch, 1),
                           run_at_threads(net_cm, xl, batch, 4),
                           ("lenet " + tag).c_str());
      expect_threads_bit_identical_and_fanned_out(
          wide_cm, random_input(batch * 256, rng), batch, "wide " + tag);
    }
  }
}

TEST(PlanThreads, OneVsFourThreadsBitIdenticalInt8) {
  nn::OnnModel model = make_lenet(23);
  nn::OnnModel wide = make_wide_cnn(31);
  const rt::CompiledModel q =
      freeze(model, {1, 16, 16}, /*optimize=*/true, /*quantize=*/true);
  const rt::CompiledModel wide_q =
      freeze(wide, {1, 16, 16}, /*optimize=*/true, /*quantize=*/true);
  Rng rng(5);
  for (be::SimdLevel level : be::available_simd_levels()) {
    be::SimdScope scope(level);
    for (std::int64_t batch : {1, 5, 16}) {
      const std::vector<float> x = random_input(batch * 256, rng);
      const std::string tag = std::string("int8 level ") +
                              be::simd_level_name(level) + " batch " +
                              std::to_string(batch);
      expect_bit_identical(run_at_threads(q, x, batch, 1),
                           run_at_threads(q, x, batch, 4), tag.c_str());
      expect_threads_bit_identical_and_fanned_out(wide_q, x, batch, "wide " + tag);
    }
  }
}

// ---- step failures: the runtime.plan.step failpoint ------------------------

TEST(PlanFailpoint, StepFailureThrowsFromRun) {
  nn::OnnModel model = make_mlp(13);
  const rt::CompiledModel cm = freeze(model, {17}, /*optimize=*/true);
  Rng rng(17);
  const std::vector<float> x = random_input(17, rng);
  const std::uint64_t before = adept::failpoint::hit_count("runtime.plan.step");
  {
    adept::failpoint::Scoped fp("runtime.plan.step", "throw");
    EXPECT_THROW(cm.run(x, 1), adept::failpoint::Injected);
  }
  EXPECT_GT(adept::failpoint::hit_count("runtime.plan.step"), before);
  // Disarmed, the same plan runs normally again.
  EXPECT_EQ(cm.run(x, 1).size(), 4u);
}

TEST(PlanFailpoint, StepErrorSpecRunsTheSitesOwnErrorPath) {
  nn::OnnModel model = make_mlp(31);
  const rt::CompiledModel cm = freeze(model, {17}, /*optimize=*/true);
  Rng rng(37);
  const std::vector<float> x = random_input(17, rng);
  adept::failpoint::Scoped fp("runtime.plan.step", "error");
  // "error" makes maybe_fail return true: the step loop maps that onto its
  // own failure, a std::runtime_error naming the site and the step.
  try {
    (void)cm.run(x, 1);
    FAIL() << "expected the plan step loop to fail";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("runtime.plan.step"), std::string::npos) << msg;
    EXPECT_NE(msg.find("step 0 (linear)"), std::string::npos) << msg;
  }
}

TEST(PlanFailpoint, StepFailureSurfacesThroughServingFuture) {
  nn::OnnModel model = make_mlp(41);
  const rt::CompiledModel cm = freeze(model, {17}, /*optimize=*/true);
  rt::ServerConfig cfg;
  cfg.threads = 1;
  cfg.max_batch = 4;
  cfg.max_wait_us = 0;
  rt::Server server(cm, cfg);
  Rng rng(43);
  {
    adept::failpoint::Scoped fp("runtime.plan.step", "throw");
    auto fut = server.submit(random_input(17, rng));
    EXPECT_THROW(fut.get(), adept::failpoint::Injected);
  }
  // The worker survives a failed step: the next request is answered
  // normally by the same (sole) worker.
  auto ok = server.submit(random_input(17, rng));
  EXPECT_EQ(ok.get().size(), 4u);
}

// ---- refresh: no repack when parameters did not move -----------------------

TEST(PlanRefresh, SkipsWeightRepackWhenVersionUnchanged) {
  nn::OnnModel model = make_mlp(67);
  rt::CompiledModel cm = freeze(model, {17}, /*optimize=*/true);
  const std::uint64_t packs_after_freeze = rt::weight_pack_count();
  // No parameter mutation in between: refresh must be a no-op that packs
  // nothing (the redundant-repack regression).
  EXPECT_FALSE(cm.refresh(model));
  EXPECT_EQ(rt::weight_pack_count(), packs_after_freeze);

  adept::bump_param_version();
  EXPECT_TRUE(cm.refresh(model));
  EXPECT_GT(rt::weight_pack_count(), packs_after_freeze);
}

}  // namespace
