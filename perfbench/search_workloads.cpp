// search_k16 and search_k16_r4: repeated full ADEPT searches of a K=16
// SuperMesh on the CNN proxy under an AMF footprint band.
//
// Every search is one operation. It fails if it throws, if any trace value
// is not finite, if the sampled footprint leaves the configured band, or if
// its topology or trace differs from the run's first search of the same
// problem (the inputs are identical, so the results must be too). Where
// every rank's result is seen (traced search_k16_r4 searches, and one extra
// search after an untraced search_k16_r4 run), all ranks must agree bit for
// bit.
//
// Layers are timed from outside: TimedTask forwards to OnnProxyTask and
// stamps each step (loss or begin_step_items is called exactly once per
// step) and the time inside loss/loss_shard; TimedComm forwards to the
// rank's Communicator and times each collective.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "comm/communicator.h"
#include "core/search.h"
#include "nn/train.h"
#include "workloads.h"

namespace perfbench {

namespace core = adept::core;
namespace comm = adept::comm;
namespace data = adept::data;
namespace nn = adept::nn;
namespace ph = adept::photonics;

namespace {

// The search problem. Sizes are fixed; only the seeds come from --seed.
constexpr int kK = 16;
constexpr double kFootprintMin = 672.0;  // k-um^2, AMF
constexpr double kFootprintMax = 840.0;
constexpr int kTrainN = 96;
constexpr int kValN = 48;
constexpr int kBatch = 24;
constexpr int kCnnWidth = 4;
// Steps before SPL legalization cost ~30% more than steps after it, so the
// schedule keeps two thirds of the steps before it: the median step then
// sits well inside one group instead of on the boundary between the two.
constexpr int kEpochs = 6;
constexpr int kWarmupEpochs = 1;
constexpr int kSplEpoch = 4;
constexpr int kStepsPerEpoch = 6;
constexpr int kMaxSuperBlocks = 10;
constexpr int kProblems = 8;
constexpr int kSetupReps = 15;
constexpr int kMinSearches = 3;

core::SearchConfig search_config(std::uint64_t seed) {
  core::SearchConfig c;
  c.mesh.k = kK;
  c.mesh.super_blocks_per_unitary = 0;  // derived from the footprint band
  c.max_super_blocks_per_unitary = kMaxSuperBlocks;
  c.footprint.pdk = ph::Pdk::amf();
  c.footprint.f_min = kFootprintMin;
  c.footprint.f_max = kFootprintMax;
  c.epochs = kEpochs;
  c.warmup_epochs = kWarmupEpochs;
  c.spl_epoch = kSplEpoch;
  c.steps_per_epoch = kStepsPerEpoch;
  c.alm.rho0 = 1e-4 * kK / 8.0;
  c.seed = seed;
  return c;
}

// Per-rank step log shared by that rank's TimedTask and TimedComm.
struct RankLog {
  std::vector<Clock::time_point> step_start;
  std::vector<double> forward_ms;  // per step
  std::vector<double> comm_ms;     // per step
  std::uint64_t shard_calls = 0;
  std::uint64_t comm_calls = 0;
  std::uint64_t comm_bytes = 0;

  void begin_step(Clock::time_point t) {
    step_start.push_back(t);
    forward_ms.push_back(0.0);
    comm_ms.push_back(0.0);
  }
  // Complete steps: every step but the last, whose interval runs into the
  // end-of-search sampling.
  std::size_t complete_steps() const {
    return step_start.empty() ? 0 : step_start.size() - 1;
  }
  double step_ms(std::size_t i) const {
    return ms_between(step_start[i], step_start[i + 1]);
  }
};

class TimedTask : public core::ProxyTask {
 public:
  TimedTask(std::unique_ptr<core::ProxyTask> inner, RankLog& log, SpanRecorder& spans)
      : inner_(std::move(inner)), log_(log), spans_(spans) {}

  void bind(core::SuperMesh& mesh) override { inner_->bind(mesh); }
  adept::ag::Tensor loss(core::SuperMesh& mesh, bool validation) override {
    new_step();
    const auto t0 = Clock::now();
    adept::ag::Tensor out = inner_->loss(mesh, validation);
    add_forward(t0, "search.loss");
    return out;
  }
  std::vector<adept::ag::Tensor> weights() override { return inner_->weights(); }
  double metric(core::SuperMesh& mesh) override {
    close_last_step();
    Span span(spans_, "search.metric");
    return inner_->metric(mesh);
  }
  bool supports_sharding() const override { return inner_->supports_sharding(); }
  std::int64_t begin_step_items(bool validation) override {
    new_step();
    return inner_->begin_step_items(validation);
  }
  adept::ag::Tensor loss_shard(core::SuperMesh& mesh, bool validation,
                               std::int64_t lo, std::int64_t hi,
                               std::int64_t items) override {
    ++log_.shard_calls;
    const auto t0 = Clock::now();
    adept::ag::Tensor out = inner_->loss_shard(mesh, validation, lo, hi, items);
    add_forward(t0, "search.loss_shard");
    return out;
  }
  std::int64_t stat_slots() const override { return inner_->stat_slots(); }
  void capture_shard_stats(float* row) override { inner_->capture_shard_stats(row); }
  void apply_step_stats(const float* rows, int shards) override {
    inner_->apply_step_stats(rows, shards);
  }

 private:
  void new_step() {
    const auto now = Clock::now();
    if (!log_.step_start.empty()) spans_.record("search.step", log_.step_start.back(), now);
    log_.begin_step(now);
  }
  // The last step has no successor call; its span ends where the searcher
  // asks for the final metric.
  void close_last_step() {
    if (!log_.step_start.empty()) {
      spans_.record("search.step", log_.step_start.back(), Clock::now());
    }
  }
  void add_forward(Clock::time_point t0, const char* name) {
    const auto t1 = Clock::now();
    if (!log_.forward_ms.empty()) log_.forward_ms.back() += ms_between(t0, t1);
    spans_.record(name, t0, t1);
  }

  std::unique_ptr<core::ProxyTask> inner_;
  RankLog& log_;
  SpanRecorder& spans_;
};

class TimedComm : public comm::Communicator {
 public:
  TimedComm(comm::Communicator& inner, RankLog& log, SpanRecorder& spans)
      : inner_(inner), log_(log), spans_(spans) {}

  int rank() const override { return inner_.rank(); }
  int world_size() const override { return inner_.world_size(); }
  void allreduce_sum(float* data, std::int64_t n) override {
    timed("comm.allreduce_sum", n * 4, [&] { inner_.allreduce_sum(data, n); });
  }
  void allreduce_sum(double* data, std::int64_t n) override {
    timed("comm.allreduce_sum", n * 8, [&] { inner_.allreduce_sum(data, n); });
  }
  void broadcast(float* data, std::int64_t n, int root) override {
    timed("comm.broadcast", n * 4, [&] { inner_.broadcast(data, n, root); });
  }
  void broadcast(double* data, std::int64_t n, int root) override {
    timed("comm.broadcast", n * 8, [&] { inner_.broadcast(data, n, root); });
  }
  void allgather(const float* in, std::int64_t n, float* out) override {
    timed("comm.allgather", n * 4, [&] { inner_.allgather(in, n, out); });
  }
  void allgather(const double* in, std::int64_t n, double* out) override {
    timed("comm.allgather", n * 8, [&] { inner_.allgather(in, n, out); });
  }
  void barrier() override {
    timed("comm.barrier", 0, [&] { inner_.barrier(); });
  }

 private:
  template <typename Fn>
  void timed(const char* name, std::int64_t bytes, Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    ++log_.comm_calls;
    log_.comm_bytes += static_cast<std::uint64_t>(bytes);
    if (!log_.comm_ms.empty()) log_.comm_ms.back() += ms_between(t0, t1);
    spans_.record(name, t0, t1);
  }

  comm::Communicator& inner_;
  RankLog& log_;
  SpanRecorder& spans_;
};

// The inputs of one run: datasets from the run seed, and kProblems search
// problems (search and task seeds) derived from it. Searches cycle through
// the problems, so every run measures the same mix of problem shapes (how
// permutations legalize and which blocks survive depends on the seed).
struct SearchInputs {
  std::unique_ptr<data::SyntheticDataset> train;
  std::unique_ptr<data::SyntheticDataset> val;
  std::uint64_t seed = 0;

  explicit SearchInputs(std::uint64_t run_seed) : seed(run_seed) {
    const auto spec = data::DatasetSpec::mnist_like();
    train = std::make_unique<data::SyntheticDataset>(spec, kTrainN, mix(seed ^ 0x7a1));
    val = std::make_unique<data::SyntheticDataset>(spec, kValN, mix(seed ^ 0x7a2));
  }

  core::SearchConfig config(int problem) const {
    return search_config(mix(seed ^ (0x5ea2c4 + static_cast<std::uint64_t>(problem))));
  }

  std::unique_ptr<core::ProxyTask> make_task(int problem, RankLog& log,
                                             SpanRecorder& spans) const {
    const std::uint64_t task_seed = mix(seed ^ (0x7a3000 + static_cast<std::uint64_t>(problem)));
    return std::make_unique<TimedTask>(
        std::make_unique<nn::OnnProxyTask>(*train, *val, kBatch, kCnnWidth, task_seed),
        log, spans);
  }
};

std::string topology_key(const ph::PtcTopology& t) {
  std::string key = std::to_string(t.k) + "|" + t.name;
  for (const auto* blocks : {&t.u_blocks, &t.v_blocks}) {
    key += "|";
    for (const auto& b : *blocks) {
      key += std::to_string(b.start) + ":";
      for (bool m : b.dc_mask) key += m ? '1' : '0';
      key += ":";
      for (int p : b.perm.map()) key += std::to_string(p) + ",";
      key += ";";
    }
  }
  return key;
}

std::vector<const std::vector<double>*> trace_series(const core::SearchTrace& t) {
  return {&t.task_loss,          &t.alm_lambda,         &t.alm_rho,
          &t.permutation_error,  &t.expected_footprint, &t.footprint_penalty};
}

bool same_bits(const core::SearchResult& a, const core::SearchResult& b) {
  if (topology_key(a.topology) != topology_key(b.topology)) return false;
  const auto sa = trace_series(a.trace), sb = trace_series(b.trace);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i]->size() != sb[i]->size()) return false;
    if (!sa[i]->empty() &&
        std::memcmp(sa[i]->data(), sb[i]->data(), sa[i]->size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// The checks on one search (one entry per rank that returned a result);
// `reference` is the first result of the same problem, null for that first
// search itself. Records one operation.
void check_search(const std::vector<core::SearchResult>& results,
                  const core::SearchResult* reference, OpCounts& ops) {
  for (const auto& r : results) {
    bool finite = std::isfinite(r.final_metric);
    for (const auto* s : trace_series(r.trace)) {
      for (double v : *s) finite = finite && std::isfinite(v);
    }
    const double f = r.topology.footprint_um2(ph::Pdk::amf()) / 1000.0;
    if (!finite) return ops.fail("search_nonfinite_trace");
    if (!(f >= kFootprintMin && f <= kFootprintMax)) {
      return ops.fail("search_footprint_out_of_band");
    }
    if (!same_bits(r, results[0])) return ops.fail("search_ranks_disagree");
    if (reference != nullptr && !same_bits(r, *reference)) {
      return ops.fail("search_not_reproducible");
    }
  }
  ops.ok();
}

// Per-layer accumulation over the traced searches.
struct LayerAccum {
  std::vector<double> step_ms;      // rank 0, complete steps
  std::vector<double> rank_skew_ms; // per complete step
  double steps = 0;                 // complete steps (rank 0)
  double forward_ms = 0;            // summed over complete steps, mean over ranks
  double comm_ms = 0;
  double step_total_ms = 0;
  double shard_calls = 0;           // all ranks
  double comm_calls = 0;            // rank 0
  double comm_bytes = 0;            // rank 0

  void add(const std::vector<RankLog>& logs) {
    const RankLog& r0 = logs[0];
    const std::size_t n = r0.complete_steps();
    const double world = static_cast<double>(logs.size());
    for (std::size_t i = 0; i < n; ++i) {
      step_ms.push_back(r0.step_ms(i));
      double lo = 1e300, hi = -1e300;
      for (const auto& log : logs) {
        if (log.complete_steps() != n) continue;
        const double busy = log.step_ms(i) - log.comm_ms[i];
        lo = std::min(lo, busy);
        hi = std::max(hi, busy);
        forward_ms += log.forward_ms[i] / world;
        comm_ms += log.comm_ms[i] / world;
        step_total_ms += log.step_ms(i) / world;
      }
      rank_skew_ms.push_back(logs.size() > 1 ? hi - lo : 0.0);
    }
    steps += static_cast<double>(n);
    for (const auto& log : logs) shard_calls += static_cast<double>(log.shard_calls);
    comm_calls += static_cast<double>(r0.comm_calls);
    comm_bytes += static_cast<double>(r0.comm_bytes);
  }

  JsonObject to_json() const {
    const double per = steps > 0 ? 1.0 / steps : 0.0;
    JsonObject o;
    o.arr("step_ms", step_ms)
        .arr("rank_skew_ms", rank_skew_ms)
        .num("forward_ms_per_step", forward_ms * per)
        .num("comm_ms_per_step", comm_ms * per)
        .num("other_ms_per_step", (step_total_ms - forward_ms - comm_ms) * per)
        .num("shard_calls_per_step", shard_calls * per)
        .num("comm_calls_per_step", comm_calls * per)
        .num("comm_bytes_per_step", comm_bytes * per);
    return o;
  }
};

}  // namespace

JsonObject run_search_workload(const RunArgs& args, int ranks, SpanRecorder& spans,
                               OpCounts& ops) {
  SpanRecorder off(false);

  // Set-up: data generation plus task and searcher construction (SuperMesh
  // build, bind), repeated; the median is reported.
  std::vector<double> setup_s;
  std::unique_ptr<SearchInputs> inputs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    inputs = std::make_unique<SearchInputs>(args.seed);
    RankLog log;
    auto task = inputs->make_task(0, log, off);
    core::AdeptSearcher searcher(inputs->config(0), *task);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  JsonObject out;
  out.arr("setup_s", setup_s);
  if (args.setup_only) return out;

  // One search of `problem`. Untraced searches go through the public entry
  // points exactly as a user calls them; traced ones add spans and, with
  // ranks, drive comm::run_ranks + AdeptSearcher::run(&comm) through
  // TimedComm (the body of run_search_data_parallel), so every rank's
  // result is seen.
  const std::thread::id main_thread = std::this_thread::get_id();
  auto search_once = [&](int problem, bool traced, std::vector<RankLog>& logs,
                         std::vector<core::SearchResult>& results) {
    SpanRecorder& rec = traced ? spans : off;
    Span span(rec, ranks > 0 ? "search.run_data_parallel" : "search.run");
    const core::SearchConfig config = inputs->config(problem);
    if (ranks == 0) {
      logs.assign(1, RankLog{});
      results.assign(1, core::SearchResult{});
      auto task = inputs->make_task(problem, logs[0], rec);
      core::AdeptSearcher searcher(config, *task);
      results[0] = searcher.run();
    } else if (!traced) {
      logs.assign(1, RankLog{});
      results.assign(1, core::SearchResult{});
      // The factory has no rank argument: rank 0 runs on the calling
      // thread and keeps its log, the other ranks get throwaway logs.
      std::vector<std::unique_ptr<RankLog>> spare;
      std::mutex spare_mu;
      results[0] = core::run_search_data_parallel(
          config,
          [&]() -> std::unique_ptr<core::ProxyTask> {
            if (std::this_thread::get_id() == main_thread) {
              return inputs->make_task(problem, logs[0], off);
            }
            std::lock_guard<std::mutex> lock(spare_mu);
            spare.push_back(std::make_unique<RankLog>());
            return inputs->make_task(problem, *spare.back(), off);
          },
          ranks);
    } else {
      logs.assign(static_cast<std::size_t>(ranks), RankLog{});
      results.assign(static_cast<std::size_t>(ranks), core::SearchResult{});
      comm::run_ranks(ranks, [&](comm::Communicator& c) {
        RankLog& log = logs[static_cast<std::size_t>(c.rank())];
        TimedComm timed(c, log, rec);
        auto task = inputs->make_task(problem, log, rec);
        core::AdeptSearcher searcher(config, *task);
        results[static_cast<std::size_t>(c.rank())] = searcher.run(&timed);
      });
    }
  };

  // The first search of each problem is its reference; later searches of
  // it must reproduce it bit for bit.
  std::vector<std::unique_ptr<core::SearchResult>> refs(kProblems);
  auto search_checked = [&](int problem, bool traced, std::vector<RankLog>& logs) {
    std::vector<core::SearchResult> results;
    try {
      search_once(problem, traced, logs, results);
    } catch (const std::exception&) {
      ops.fail("search_threw");
      return false;
    }
    auto& ref = refs[static_cast<std::size_t>(problem)];
    check_search(results, ref.get(), ops);
    if (!ref) ref = std::make_unique<core::SearchResult>(results[0]);
    return true;
  };

  // Search -1 warms caches. After it, an untraced run cycles through the
  // problems; a traced run searches each problem twice in a row, untraced
  // then traced, so the wall-time difference is the tracing overhead.
  std::vector<RankLog> logs;
  search_checked(0, false, logs);
  const int steps_per_search = logs.empty() ? 0 : static_cast<int>(logs[0].step_start.size());
  std::vector<double> wall_s, steal, step_ms, untraced_wall_s;
  LayerAccum layers;
  const auto start = Clock::now();
  for (int j = 0;; ++j) {
    const bool traced = args.trace && j % 2 == 1;
    const int problem = (args.trace ? j / 2 : j) % kProblems;
    const StealMeter meter;
    const auto t0 = Clock::now();
    const bool ran = search_checked(problem, traced, logs);
    const double wall = seconds_between(t0, Clock::now());
    if (ran && (!args.trace || traced)) steal.push_back(meter.share());
    if (ran && !args.trace) {
      wall_s.push_back(wall);
      for (std::size_t s = 0; s < logs[0].complete_steps(); ++s) {
        step_ms.push_back(logs[0].step_ms(s));
      }
    } else if (ran) {
      (traced ? wall_s : untraced_wall_s).push_back(wall);
      if (traced) layers.add(logs);
    }
    if (seconds_between(start, Clock::now()) >= args.seconds &&
        static_cast<int>(wall_s.size()) >= kMinSearches) {
      break;
    }
    // A search that keeps throwing must still end the run on time.
    if (seconds_between(start, Clock::now()) >= 2 * args.seconds) break;
  }

  // Untraced data-parallel searches return rank 0's result only; one more
  // search through run_ranks, outside the timed window, checks that all
  // ranks agree with it (`spans` is disabled in an untraced run).
  if (ranks > 0 && !args.trace) search_checked(0, true, logs);

  const auto& ref0 = refs[0];
  JsonObject search;
  search.num("k", kK)
      .num("batch", kBatch)
      .num("cnn_width", kCnnWidth)
      .num("ranks", ranks)
      .num("problems", kProblems)
      .num("steps_per_search", steps_per_search)
      .num("footprint_min", kFootprintMin)
      .num("footprint_max", kFootprintMax)
      .num("footprint", ref0 ? ref0->topology.footprint_um2(ph::Pdk::amf()) / 1000.0 : 0.0)
      .arr("wall_s", wall_s)
      .arr("steal", steal)
      .arr("untraced_wall_s", untraced_wall_s)
      .arr("step_ms", args.trace ? layers.step_ms : step_ms);
  out.obj("search", search);
  if (args.trace) out.obj("search_layers", layers.to_json());
  return out;
}

}  // namespace perfbench
