// Benchmark harness: runs one workload for a given seed and run length and
// writes its raw measurements as JSON. perfbench/run.py builds and invokes
// it and turns the raw measurements into the reported metrics.
//
//   perfbench_harness --workload <search_k16|search_k16_r4|deploy_serve>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     --out <raw.json> --work-dir <dir> [--trace-file <t.json>]
//                     [--setup-only 1]
//
// --setup-only 1 times the workload's set-up repetitions and stops; run.py
// starts a few such processes per run, because set-up time varies more
// between processes than within one.
// A traced run (--trace 1) records spans around every call the harness makes
// into a layer, writes them as a Chrome trace to --trace-file, and adds the
// layer probes (workloads.h) to the result.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "workloads.h"

namespace {

using perfbench::JsonObject;
using perfbench::RunArgs;

bool parse_args(int argc, char** argv, RunArgs& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--setup-only") {
      a.setup_only = val == "1";
    } else if (key == "--out") {
      a.out_path = val;
    } else if (key == "--work-dir") {
      a.work_dir = val;
    } else if (key == "--trace-file") {
      a.trace_path = val;
    } else {
      return false;
    }
  }
  return (argc - 1) % 2 == 0 && !a.workload.empty() && !a.out_path.empty() &&
         !a.work_dir.empty() && a.seconds > 0 && (!a.trace || !a.trace_path.empty());
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload W --seed N --seconds S "
                 "--trace 0|1 --out FILE --work-dir DIR [--trace-file FILE] "
                 "[--setup-only 1]\n");
    return 2;
  }
  perfbench::SpanRecorder spans(args.trace);
  perfbench::OpCounts ops;
  JsonObject body;
  int ranks = 1, workers = 0;
  try {
    if (args.workload == "search_k16" || args.workload == "search_k16_r4") {
      const int search_ranks = args.workload == "search_k16" ? 0 : 4;
      body = perfbench::run_search_workload(args, search_ranks, spans, ops);
      ranks = std::max(1, search_ranks);
      if (args.trace && !args.setup_only) {
        // The same layer probes as deploy_serve, on an untrained model of
        // the deployable shape.
        auto model = perfbench::make_deploy_model(args.seed);
        adept::data::SyntheticDataset test(perfbench::deploy_dataset_spec(), 128,
                                           args.seed);
        body.obj("layers",
                 perfbench::probe_layers(model, test, args.work_dir, spans, ops));
      }
    } else if (args.workload == "deploy_serve") {
      body = perfbench::run_deploy_serve(args, spans, ops, workers);
    } else {
      std::fprintf(stderr, "perfbench_harness: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (args.trace && !spans.write_chrome_trace(args.trace_path)) {
    std::fprintf(stderr, "perfbench_harness: cannot write %s\n", args.trace_path.c_str());
    return 1;
  }

  JsonObject out;
  out.str("workload", args.workload)
      .num("seed", static_cast<double>(args.seed))
      .num("seconds", args.seconds)
      .num("trace", args.trace ? 1 : 0)
      .num("spans", static_cast<double>(spans.size()))
      .obj("fingerprint", perfbench::fingerprint(ranks, workers))
      .obj("ops", ops.to_json())
      .num("peak_rss_mb", perfbench::peak_rss_mb())
      .obj("result", body);
  std::ofstream f(args.out_path);
  f << out.dump() << "\n";
  f.flush();
  if (!f) {
    std::fprintf(stderr, "perfbench_harness: cannot write %s\n", args.out_path.c_str());
    return 1;
  }
  return 0;
}
