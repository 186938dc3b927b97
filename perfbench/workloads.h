// The benchmark's workloads and layer probes. Each workload drives the
// library only through its public entry points and returns the raw
// measurements as one JSON object; perfbench/stats.py turns them into the
// reported metrics.
#pragma once

#include <cstdint>
#include <string>

#include "data/synthetic.h"
#include "nn/models.h"
#include "util.h"

namespace perfbench {

// search_k16 (ranks == 0: the single-process AdeptSearcher::run path) and
// search_k16_r4 (ranks == 4: run_search_data_parallel).
JsonObject run_search_workload(const RunArgs& args, int ranks, SpanRecorder& spans,
                               OpCounts& ops);

// deploy_serve: train -> checkpoint -> freeze -> serve. Sets the server's
// worker count for the fingerprint.
JsonObject run_deploy_serve(const RunArgs& args, SpanRecorder& spans, OpCounts& ops,
                            int& server_workers);

// ---- the deployable model shared by deploy_serve and the layer probes ----

inline constexpr int kDeployImage = 24;
inline constexpr int kDeployClasses = 10;
inline constexpr int kDeployWidth = 32;
inline constexpr int kDeployPtcK = 8;  // fixed butterfly PTC

adept::data::DatasetSpec deploy_dataset_spec();
adept::nn::OnnModel make_deploy_model(std::uint64_t seed);

// Direct timed calls into single layers, run by every traced run:
// backend kernels at the shapes the workloads use, plus evaluate /
// checkpoint / freeze / plan-run on `model` (the trained model in
// deploy_serve, a freshly built one of the same shape elsewhere). Checks
// the checkpoint round trip is bit-exact and counts it in `ops`.
JsonObject probe_layers(adept::nn::OnnModel& model,
                        const adept::data::SyntheticDataset& test_set,
                        const std::string& work_dir, SpanRecorder& spans,
                        OpCounts& ops);

}  // namespace perfbench
