// deploy_serve: noise-aware training of the deployable proxy CNN on a fixed
// butterfly PTC, checkpoint save + load, fp32 freeze, then serving through
// Server with the default (environment) ServerConfig:
//
//   closed loop  one caller, batch-1 requests, next request after the reply
//   open loop    one generator thread sending on a fixed schedule, over a
//                ladder of absolute rates, plus one longer nominal rung and
//                bursts offered far above capacity
//
// The host's speed drifts over seconds, so the bounded figures are sampled
// across the whole run: kRounds rounds each run a closed-loop segment, a
// saturation burst and a training call (the model keeps training after its
// checkpoint was deployed), and the metrics take medians over them.
//
// Every request is one operation. It fails if submit() or the future
// throws (refused, deadline, shutdown, forward error) or if the served row
// is not bit-identical to CompiledModel::run on the same input, computed
// before any timed phase. Each checkpoint round trip is one more operation,
// failing unless it is bit-exact.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <random>
#include <thread>

#include <unistd.h>

#include "nn/train.h"
#include "obs/metrics.h"
#include "photonics/pdk.h"
#include "runtime/checkpoint.h"
#include "runtime/compiled_model.h"
#include "runtime/server.h"
#include "workloads.h"

namespace perfbench {

namespace data = adept::data;
namespace nn = adept::nn;
namespace ph = adept::photonics;
namespace rt = adept::runtime;

namespace {

constexpr int kTrainN = 384;
constexpr int kTestN = 128;
constexpr int kTrainBatch = 32;
constexpr int kTrainCallsBefore = 2;  // one epoch each, before deployment
constexpr double kTrainPhaseNoise = 0.02;
constexpr int kPoolSize = 256;  // distinct request inputs
constexpr int kSetupReps = 9;
constexpr int kWarmupRequests = 64;
constexpr int kRounds = 8;

// Open-loop ladder: 250 * 2^(i/8) requests per second, i = 0..kLadderTop.
// The walk visits every 8th rung (the doublings) up to the first that does
// not hold, then walks up the rungs between the last doubling that held and
// that one, again to the first that does not hold. The rates are constants;
// nothing is calibrated at run time.
constexpr double kLadderBase = 250.0;
constexpr int kLadderTop = 56;  // 64000 requests/s
constexpr double kLatencyLimitMs = 10.0;  // open-loop p99 limit
constexpr double kNominalRate = 1000.0;   // serve_p50/p99 rung
// Offered far above capacity: submit() blocks on the full queue, so the
// completion rate is the server's saturation throughput.
constexpr double kSaturationRate = 16000.0;
constexpr int kMaxAttempts = 4;           // per rung
constexpr double kStealLimit = 0.05;      // as STEAL_LIMIT in stats.py

// Share of --seconds spent in each serving phase; the closed loop and the
// saturation bursts are split evenly over the rounds. A saturation burst
// sends for its share and takes about three times as long to drain.
constexpr double kClosedShare = 0.2;
constexpr double kRungShare = 0.025;
constexpr double kSaturationShare = 0.06;
constexpr double kNominalShare = 0.1;

double ladder_rate(int i) { return kLadderBase * std::exp2(i / 8.0); }

// Request inputs and their reference rows (CompiledModel::run, batch 1).
struct Pool {
  std::vector<std::vector<float>> inputs;
  std::vector<std::vector<float>> expected;
};

Pool make_pool(const rt::CompiledModel& compiled, std::uint64_t seed) {
  Pool p;
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  rt::CompiledModel::Workspace ws;
  for (int i = 0; i < kPoolSize; ++i) {
    std::vector<float> x(static_cast<std::size_t>(compiled.input_numel()));
    for (auto& v : x) v = dist(gen);
    std::vector<float> y(static_cast<std::size_t>(compiled.output_numel()));
    compiled.run(x.data(), 1, y.data(), ws);
    p.inputs.push_back(std::move(x));
    p.expected.push_back(std::move(y));
  }
  return p;
}

bool same_row(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Wait for one request and check its row. Returns true on success.
bool settle(std::future<std::vector<float>>& fut, const std::vector<float>& expected,
            OpCounts& ops) {
  try {
    const std::vector<float> row = fut.get();
    if (!same_row(row, expected)) {
      ops.fail("row_mismatch");
      return false;
    }
  } catch (const rt::RejectedError&) {
    ops.fail("rejected");
    return false;
  } catch (const rt::DeadlineExceededError&) {
    ops.fail("deadline_exceeded");
    return false;
  } catch (const std::exception&) {
    ops.fail("request_threw");
    return false;
  }
  ops.ok();
  return true;
}

double queue_wait_p99_ms(const rt::Server& server) {
  const auto snap = adept::obs::snapshot();
  const auto* h = snap.find_histogram(server.metrics_prefix() + "queue_wait_ns");
  return h != nullptr ? h->p99 / 1e6 : 0.0;
}

// Closed loop: one caller, batch-1 requests back to back, in blocks of
// kBlock requests; each block records how many latencies it added to
// lat_ms and the host's steal share. The loop runs as one segment per
// round, and a block never spans two segments. In a traced run the blocks
// alternate between traced and untraced, so the latency difference is the
// tracing overhead.
class ClosedLoop {
 public:
  void run(rt::Server& server, const Pool& pool, double seconds, SpanRecorder& spans,
           OpCounts& ops) {
    constexpr int kBlock = 500;
    SpanRecorder off(false);
    const auto start = Clock::now();
    while (seconds_between(start, Clock::now()) < seconds) {
      const bool traced = spans.enabled() && blocks_ % 2 == 1;
      SpanRecorder& rec = traced ? spans : off;
      std::vector<double>& dest = spans.enabled() && !traced ? untraced_ms_ : lat_ms_;
      const std::size_t block_start = lat_ms_.size();
      const StealMeter meter;
      for (int i = 0; i < kBlock && seconds_between(start, Clock::now()) < seconds; ++i) {
        const std::size_t idx = requests_++ % kPoolSize;
        const auto t0 = Clock::now();
        std::future<std::vector<float>> fut;
        try {
          Span span(rec, "runtime.submit");
          fut = server.submit(pool.inputs[idx]);
        } catch (const std::exception&) {
          ops.fail("submit_threw");
          continue;
        }
        const bool good = settle(fut, pool.expected[idx], ops);
        const auto t1 = Clock::now();
        rec.record("runtime.request", t0, t1);
        if (good) dest.push_back(ms_between(t0, t1));
      }
      if (lat_ms_.size() > block_start) {
        block_n_.push_back(static_cast<double>(lat_ms_.size() - block_start));
        block_steal_.push_back(meter.share());
      }
      ++blocks_;
    }
  }

  JsonObject to_json() const {
    JsonObject o;
    o.arr("lat_ms", lat_ms_)
        .arr("block_n", block_n_)
        .arr("block_steal", block_steal_)
        .arr("untraced_lat_ms", untraced_ms_);
    return o;
  }

 private:
  std::vector<double> lat_ms_, untraced_ms_, block_n_, block_steal_;
  std::size_t requests_ = 0;  // picks the next input, across segments
  std::size_t blocks_ = 0;    // alternates tracing, across segments
};

// A warm-up so every worker has run a batch.
void warm_up(rt::Server& server, const Pool& pool) {
  std::vector<std::future<std::vector<float>>> warm;
  for (int i = 0; i < kWarmupRequests; ++i) {
    warm.push_back(server.submit(pool.inputs[static_cast<std::size_t>(i % kPoolSize)]));
  }
  for (auto& f : warm) (void)f.wait_for(std::chrono::seconds(60));
}

// Nearest-rank percentile of sorted values: the ceil(q * n)-th smallest.
double nearest_rank(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

struct Rung {
  double rate = 0;
  double duration_s = 0;
  std::uint64_t sent = 0, ok = 0, failed = 0, backlog_end = 0;
  double achieved_per_s = 0;  // completions / (last completion - first due)
  double fill = 0;            // requests per micro-batch during the rung
  double steal = 0;           // host steal share during the rung
  std::vector<double> lat_ms;     // successful requests, from scheduled send
  std::vector<double> lag_ms;     // actual send - scheduled send
  std::vector<double> submit_us;  // time inside submit()

  // The rung holds if nothing failed, the latency tail from the scheduled
  // send time (p99, or p90 on a rung too short to have 10 samples beyond
  // its p99) is within the limit, and the requests still outstanding when
  // sending stopped fit in what the limit allows at this rate (Little's
  // law) plus one micro-batch. The same rule as rung_holds() in
  // perfbench/stats.py, which the reported rate comes from; the harness
  // needs it to decide which rungs to visit.
  bool holds(double limit_ms, int max_batch) const {
    if (failed > 0 || lat_ms.empty()) return false;
    std::vector<double> sorted = lat_ms;
    std::sort(sorted.begin(), sorted.end());
    const double n = static_cast<double>(sorted.size());
    const double q = n - std::ceil(0.99 * n) >= 10 ? 0.99 : 0.90;
    if (nearest_rank(sorted, q) > limit_ms) return false;
    return static_cast<double>(backlog_end) <= rate * limit_ms / 1e3 + max_batch;
  }

  JsonObject to_json(double limit_ms, int max_batch) const {
    JsonObject o;
    o.num("rate", rate)
        .num("duration_s", duration_s)
        .num("sent", static_cast<double>(sent))
        .num("ok", static_cast<double>(ok))
        .num("failed", static_cast<double>(failed))
        .num("backlog_end", static_cast<double>(backlog_end))
        .num("achieved_per_s", achieved_per_s)
        .num("fill", fill)
        .num("steal", steal)
        .num("harness_holds", holds(limit_ms, max_batch) ? 1 : 0)
        .arr("lat_ms", lat_ms)
        .arr("lag_ms", lag_ms)
        .arr("submit_us", submit_us);
    return o;
  }
};

// One open-loop rung: the calling thread sends request k at start + k /
// rate; a collector thread waits for the replies in send order. Latency
// runs from the scheduled send time, so a stall delays every request due
// during it.
Rung open_loop_rung(rt::Server& server, const Pool& pool, double rate, double duration_s,
                    SpanRecorder& spans, OpCounts& ops) {
  Rung r;
  r.rate = rate;
  r.duration_s = duration_s;
  const auto n =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(rate * duration_s)));
  struct Pending {
    std::future<std::vector<float>> fut;
    Clock::time_point due;
    std::size_t input = 0;
    bool submitted = false;
  };
  std::vector<Pending> pending(n);
  std::atomic<std::size_t> published{0};
  std::atomic<std::size_t> completed{0};
  const rt::ServerStats before = server.stats();
  const StealMeter meter;
  OpCounts collector_ops;
  Clock::time_point last_done{};
  std::thread collector([&] {
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t seen = published.load(std::memory_order_acquire);
      while (seen <= i) {
        published.wait(seen, std::memory_order_acquire);
        seen = published.load(std::memory_order_acquire);
      }
      Pending& p = pending[i];
      if (p.submitted) {
        const bool good = settle(p.fut, pool.expected[p.input], collector_ops);
        const auto done = Clock::now();
        if (good) {
          r.lat_ms.push_back(ms_between(p.due, done));
          last_done = done;
        }
      }
      completed.fetch_add(1, std::memory_order_release);
    }
  });

  const auto start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t k = 0; k < n; ++k) {
    Pending& p = pending[k];
    p.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(k) / rate));
    p.input = k % kPoolSize;
    std::this_thread::sleep_until(p.due);
    const auto t0 = Clock::now();
    r.lag_ms.push_back(ms_between(p.due, t0));
    try {
      p.fut = server.submit(pool.inputs[p.input]);
      p.submitted = true;
    } catch (const std::exception&) {
      ops.fail("submit_threw");
    }
    const auto t1 = Clock::now();
    r.submit_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    spans.record("runtime.submit", t0, t1);
    published.store(k + 1, std::memory_order_release);
    published.notify_one();
  }
  r.sent = n;
  r.backlog_end = n - completed.load(std::memory_order_acquire);
  r.steal = meter.share();
  collector.join();
  ops.merge(collector_ops);
  r.ok = r.lat_ms.size();
  r.failed = n - r.ok;
  const double span_s = seconds_between(start, last_done);
  r.achieved_per_s = span_s > 0 ? static_cast<double>(r.ok) / span_s : 0.0;
  const rt::ServerStats after = server.stats();
  const double batches = static_cast<double>(after.batches - before.batches);
  r.fill = batches > 0 ? static_cast<double>(after.requests - before.requests) / batches : 0.0;
  return r;
}

// The ladder walk described at kLadderBase. A rung that breaks is run once
// more before the walk treats it as broken, and again (up to kMaxAttempts)
// while the host stole more than kStealLimit of the CPU time during the
// broken attempt: a stall of the host can break a rate the server sustains.
std::vector<Rung> ladder(rt::Server& server, const Pool& pool, double rung_s,
                         SpanRecorder& spans, OpCounts& ops) {
  const int max_batch = server.config().max_batch;
  std::vector<Rung> rungs;
  auto holds = [&](int i) {
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      rungs.push_back(open_loop_rung(server, pool, ladder_rate(i), rung_s, spans, ops));
      if (rungs.back().holds(kLatencyLimitMs, max_batch)) return true;
      if (attempt > 0 && rungs.back().steal <= kStealLimit) return false;
    }
    return false;
  };
  int held = -1;  // highest doubling that held
  int broke = kLadderTop + 1;
  for (int i = 0; i <= kLadderTop; i += 8) {
    if (!holds(i)) {
      broke = i;
      break;
    }
    held = i;
  }
  for (int i = held + 1; i < std::min(broke, kLadderTop + 1); ++i) {
    if (!holds(i)) break;
  }
  std::stable_sort(rungs.begin(), rungs.end(),
                   [](const Rung& a, const Rung& b) { return a.rate < b.rate; });
  return rungs;
}

}  // namespace

JsonObject run_deploy_serve(const RunArgs& args, SpanRecorder& spans, OpCounts& ops,
                            int& server_workers) {
  const data::DatasetSpec spec = deploy_dataset_spec();
  const std::uint64_t model_seed = mix(args.seed ^ 0xd1);
  const ph::Pdk pdk = ph::Pdk::amf();
  const std::string ckpt_path =
      args.work_dir + "/deploy_checkpoint_" + std::to_string(getpid()) + ".bin";

  // Set-up part 1, repeated: data generation and model construction.
  std::vector<double> pre_s;
  std::unique_ptr<data::SyntheticDataset> train, test;
  nn::OnnModel model;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    train = std::make_unique<data::SyntheticDataset>(spec, kTrainN, mix(args.seed ^ 0xd2));
    test = std::make_unique<data::SyntheticDataset>(spec, kTestN, mix(args.seed ^ 0xd3));
    model = make_deploy_model(model_seed);
    pre_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Training, timed on its own: one-epoch train_classifier calls continuing
  // on the same model, kTrainCallsBefore before deployment and one per
  // round; the median call is reported.
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = kTrainBatch;
  tc.train_phase_noise = kTrainPhaseNoise;
  tc.seed = mix(args.seed ^ 0xd4);
  nn::TrainStats stats;
  std::vector<double> train_s, train_steal;
  auto train_call = [&] {
    Span span(spans, "nn.train_classifier");
    const StealMeter meter;
    const auto t0 = Clock::now();
    stats = nn::train_classifier(model, *train, *test, tc);
    train_s.push_back(seconds_between(t0, Clock::now()));
    train_steal.push_back(meter.share());
  };
  for (int call = 0; call < (args.setup_only ? 0 : kTrainCallsBefore); ++call) train_call();

  // Set-up part 2, repeated: checkpoint round trip, freeze, server start.
  // The last repetition's server serves every phase below.
  std::vector<double> setup_s;
  std::unique_ptr<rt::CompiledModel> compiled;
  std::unique_ptr<rt::Server> server;
  nn::OnnModel deployed;
  const std::string trained_bytes = rt::encode_checkpoint(model, &pdk);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();  // shutdown is not set-up
    const auto t0 = Clock::now();
    {
      Span span(spans, "runtime.checkpoint_save");
      rt::save_checkpoint(model, ckpt_path, &pdk);
    }
    rt::LoadedCheckpoint loaded;
    {
      Span span(spans, "runtime.checkpoint_load");
      loaded = rt::load_checkpoint(ckpt_path);
    }
    {
      Span span(spans, "runtime.freeze");
      compiled = std::make_unique<rt::CompiledModel>(
          rt::CompiledModel::freeze(loaded.model, {1, kDeployImage, kDeployImage}));
    }
    {
      Span span(spans, "runtime.server_start");
      server = std::make_unique<rt::Server>(*compiled);
    }
    setup_s.push_back(pre_s[static_cast<std::size_t>(rep)] + seconds_between(t0, Clock::now()));
    ops.ok();
    ops.check(rt::encode_checkpoint(loaded.model, &pdk) == trained_bytes,
              "checkpoint_not_bit_exact");
    deployed = std::move(loaded.model);
  }
  std::remove(ckpt_path.c_str());
  JsonObject out;
  out.arr("setup_s", setup_s);
  if (args.setup_only) return out;

  // Reference rows, then a warm-up so every worker has run a batch.
  const Pool pool = make_pool(*compiled, mix(args.seed ^ 0xd5));
  warm_up(*server, pool);
  const int max_batch = server->config().max_batch;

  // The nominal rung runs first, so the server's queue-wait histogram
  // covers it and the warm-up only.
  const Rung nominal = open_loop_rung(*server, pool, kNominalRate,
                                      kNominalShare * args.seconds, spans, ops);
  const double queue_wait_ms = queue_wait_p99_ms(*server);
  ClosedLoop stream;
  std::vector<JsonObject> bursts_json;
  for (int round = 0; round < kRounds; ++round) {
    if (!server) {
      server = std::make_unique<rt::Server>(*compiled);
      warm_up(*server, pool);
    }
    stream.run(*server, pool, kClosedShare * args.seconds / kRounds, spans, ops);
    bursts_json.push_back(open_loop_rung(*server, pool, kSaturationRate,
                                         kSaturationShare * args.seconds / kRounds, spans, ops)
                              .to_json(kLatencyLimitMs, max_batch));
    // The kernel thread teams of the workers live as long as the server,
    // and with more kernel threads than cores every team waits at its
    // barriers by sleeping, which halves training speed. So training runs
    // with the server stopped, as it does before deployment.
    server.reset();
    train_call();
  }
  server = std::make_unique<rt::Server>(*compiled);
  warm_up(*server, pool);
  std::vector<JsonObject> rungs_json;
  for (const Rung& r : ladder(*server, pool, kRungShare * args.seconds, spans, ops)) {
    rungs_json.push_back(r.to_json(kLatencyLimitMs, max_batch));
  }

  JsonObject train_json;
  train_json.num("samples_per_call", kTrainN)
      .num("batch", kTrainBatch)
      .arr("wall_s", train_s)
      .arr("steal", train_steal)
      .num("accuracy", stats.final_accuracy)
      .num("phase_noise", kTrainPhaseNoise);
  JsonObject ladder_json;
  ladder_json.num("limit_ms", kLatencyLimitMs)
      .num("max_batch", max_batch)
      .objs("rungs", rungs_json);
  server_workers = server->config().threads;
  out.obj("train", train_json)
      .obj("stream", stream.to_json())
      .obj("ladder", ladder_json)
      .obj("nominal", nominal.to_json(kLatencyLimitMs, max_batch))
      .objs("saturation", bursts_json)
      .num("queue_wait_p99_ms", queue_wait_ms);
  server.reset();
  if (args.trace) {
    out.obj("layers", probe_layers(deployed, *test, args.work_dir, spans, ops));
  }
  return out;
}

}  // namespace perfbench
