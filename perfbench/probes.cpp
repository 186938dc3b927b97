// Layer probes: direct timed calls into one layer each, at the shapes the
// workloads use. Every probe reports the median over several batches of
// calls, after one warm-up call.
#include <cstdio>
#include <random>
#include <unistd.h>

#include "backend/kernels.h"
#include "backend/parallel.h"
#include "nn/train.h"
#include "photonics/builders.h"
#include "runtime/checkpoint.h"
#include "runtime/compiled_model.h"
#include "workloads.h"

namespace perfbench {

namespace be = adept::backend;
namespace data = adept::data;
namespace nn = adept::nn;
namespace ph = adept::photonics;
namespace rt = adept::runtime;

data::DatasetSpec deploy_dataset_spec() {
  data::DatasetSpec spec = data::DatasetSpec::mnist_like();
  spec.height = spec.width = kDeployImage;
  spec.classes = kDeployClasses;
  return spec;
}

nn::OnnModel make_deploy_model(std::uint64_t seed) {
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(kDeployPtcK));
  adept::Rng rng(seed);
  return nn::make_proxy_cnn(1, kDeployImage, kDeployClasses,
                            nn::PtcBinding::fixed(topo), rng, kDeployWidth);
}

namespace {

// Seconds per call of fn(): median over `batches` batches of `inner` calls.
template <typename Fn>
double median_call_s(Fn&& fn, int batches, int inner) {
  fn();
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < inner; ++i) fn();
    per_call.push_back(seconds_between(t0, Clock::now()) / inner);
  }
  return median(per_call);
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(gen);
  return v;
}

JsonObject backend_probes(SpanRecorder& spans) {
  JsonObject o;
  {
    // The smallest launch that fans out: one single-iteration chunk per
    // thread of the default budget.
    Span span(spans, "probe.backend.parallel_for");
    const std::int64_t n = be::num_threads();
    std::vector<std::int64_t> sink(static_cast<std::size_t>(n) * 8, 0);
    const double s = median_call_s(
        [&] {
          be::parallel_for(n, 1, [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) sink[static_cast<std::size_t>(i) * 8] += 1;
          });
        },
        40, 250);
    o.num("parallel_for_launch_us", s * 1e6);
  }
  {
    // SuperMesh tile stack: 16 complex 16x16 products in one batched call.
    Span span(spans, "probe.backend.cgemm_batched_k16");
    constexpr std::int64_t kBatch = 16, k = 16;
    const std::size_t elems = static_cast<std::size_t>(kBatch * k * k);
    auto ar = random_floats(elems, 1), ai = random_floats(elems, 2);
    auto br = random_floats(elems, 3), bi = random_floats(elems, 4);
    std::vector<float> cr(elems), ci(elems);
    const double s = median_call_s(
        [&] {
          be::cgemm_batched(be::CTrans::N, be::CTrans::N, kBatch, k, k, k, ar.data(),
                            ai.data(), k * k, k, br.data(), bi.data(), k * k, k, 0.0f,
                            cr.data(), ci.data(), k * k, k);
        },
        40, 100);
    o.num("cgemm_batched_k16_gflops", 8.0 * kBatch * k * k * k / s * 1e-9);
  }
  {
    // The deploy model's largest layer (second conv as im2col gemm) at
    // micro-batch 16: [16*oh*ow, C*5*5] x [C*5*5, C] with oh = image - 8.
    Span span(spans, "probe.backend.gemm_packed_b16");
    const std::int64_t oh = kDeployImage - 8;
    const std::int64_t m = 16 * oh * oh, k = kDeployWidth * 25, n = kDeployWidth;
    auto a = random_floats(static_cast<std::size_t>(m * k), 5);
    auto b = random_floats(static_cast<std::size_t>(k * n), 6);
    std::vector<float> c(static_cast<std::size_t>(m * n));
    const be::PackedGemmB pb = be::pack_gemm_b(be::Trans::N, k, n, b.data(), n);
    const double s = median_call_s(
        [&] {
          be::gemm_packed(m, n, k, 1.0f, a.data(), k, be::Trans::N, b.data(), n, pb,
                          0.0f, c.data(), n);
        },
        15, 3);
    o.num("gemm_packed_b16_gflops", 2.0 * m * n * k / s * 1e-9);
  }
  return o;
}

}  // namespace

JsonObject probe_layers(nn::OnnModel& model, const data::SyntheticDataset& test_set,
                        const std::string& work_dir, SpanRecorder& spans,
                        OpCounts& ops) {
  JsonObject o = backend_probes(spans);
  {
    Span span(spans, "probe.nn.evaluate");
    o.num("evaluate_ms",
          median_call_s([&] { (void)nn::evaluate_accuracy(model, test_set); }, 3, 1) * 1e3);
  }
  const std::string path =
      work_dir + "/probe_checkpoint_" + std::to_string(getpid()) + ".bin";
  const ph::Pdk pdk = ph::Pdk::amf();
  {
    Span span(spans, "probe.runtime.checkpoint_save");
    o.num("checkpoint_save_ms",
          median_call_s([&] { rt::save_checkpoint(model, path, &pdk); }, 5, 1) * 1e3);
  }
  {
    Span span(spans, "probe.runtime.checkpoint_load");
    o.num("checkpoint_load_ms",
          median_call_s([&] { (void)rt::load_checkpoint(path); }, 5, 1) * 1e3);
  }
  rt::LoadedCheckpoint loaded = rt::load_checkpoint(path);
  ops.ok();
  ops.check(rt::encode_checkpoint(loaded.model, &pdk) == rt::encode_checkpoint(model, &pdk),
            "checkpoint_not_bit_exact");
  const std::vector<std::int64_t> dims = {1, kDeployImage, kDeployImage};
  {
    // A model caches its eval-time weights, so every freeze gets a freshly
    // loaded model, as at deployment.
    Span span(spans, "probe.runtime.freeze");
    std::vector<double> freeze_s;
    for (int rep = 0; rep < 5; ++rep) {
      rt::LoadedCheckpoint fresh = rt::load_checkpoint(path);
      const auto t0 = Clock::now();
      (void)rt::CompiledModel::freeze(fresh.model, dims);
      freeze_s.push_back(seconds_between(t0, Clock::now()));
    }
    o.num("freeze_ms", median(freeze_s) * 1e3);
  }
  std::remove(path.c_str());
  const rt::CompiledModel compiled = rt::CompiledModel::freeze(model, dims);
  rt::CompiledModel::Workspace ws;
  const auto x = random_floats(static_cast<std::size_t>(16 * compiled.input_numel()), 7);
  std::vector<float> y(static_cast<std::size_t>(16 * compiled.output_numel()));
  {
    Span span(spans, "probe.runtime.plan_run_b1");
    o.num("plan_run_b1_us",
          median_call_s([&] { compiled.run(x.data(), 1, y.data(), ws); }, 30, 20) * 1e6);
  }
  {
    Span span(spans, "probe.runtime.plan_run_b16");
    o.num("plan_run_b16_us",
          median_call_s([&] { compiled.run(x.data(), 16, y.data(), ws); }, 20, 4) * 1e6);
  }
  return o;
}

}  // namespace perfbench
