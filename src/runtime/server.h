// Concurrent micro-batching inference server with admission control,
// per-request deadlines, and hot checkpoint reload.
//
// Architecture: producers call `submit()` with one sample and get a
// std::future for its output row. Requests land in a bounded MPMC queue;
// what happens when that queue is full is the configured OverloadPolicy:
//
//   block        submit blocks until space frees (natural backpressure; the
//                pre-admission-control behavior). Queueing delay is
//                unbounded under sustained overload.
//   reject       submit fails the returned future immediately with
//                RejectedError. Accepted requests keep a bounded queue
//                delay; the client retries with backoff (see the helper in
//                examples/serve_ptc.cpp).
//   shed_oldest  the oldest queued request is failed with RejectedError and
//                the new one takes its place — freshest-work-wins, for
//                clients that would have abandoned the oldest answer anyway.
//
// Deadlines: a request carries an absolute deadline (config default or the
// per-submit override). Workers check it when dequeuing and again after
// batch formation; an expired request fails with DeadlineExceededError and
// its slot in the batch is never executed — overload sheds work instead of
// computing answers nobody is waiting for. Requests already inside a
// running forward are not aborted.
//
// Hot reload: the Server owns a swappable CompiledModel slot keyed on the
// model's frozen param_version. `reload(path)` loads + freezes a checkpoint
// on the calling thread while workers keep serving the old model, then
// swaps the slot. Workers snapshot the slot once per micro-batch, so every
// response is computed wholly by one model version and zero requests are
// dropped across a swap (hammered in tests/test_server_robustness.cpp).
// Worker workspaces are plan-agnostic — CompiledModel::run re-sizes the
// slot pool per call — so a swap needs no workspace coordination.
//
// Micro-batching: each worker pops the oldest live request, then coalesces
// whatever else is queued — up to `max_batch` requests, waiting at most
// `max_wait_us` for stragglers — into one [B, in] buffer and runs a single
// batched forward. Every step of the plan is per-sample bit-exact and the
// backend kernels are bit-exact across thread counts, so a request's result
// is identical whether it was served alone or inside any batch, by 1 or N
// workers (asserted in tests/test_runtime.cpp).
//
// Knobs come from ServerConfig, defaulting to the ADEPT_SERVE_* environment
// variables (see common/env.h): worker count, micro-batch ceiling, batching
// window, overload policy, and default deadline. Shutdown is graceful:
// queued requests are drained and answered, then workers exit; submitters
// still blocked on a full queue (and any submit() after shutdown) fail
// their futures with ShutdownError — no future is ever left unresolved.
//
// Parallelism note: a worker holds one core of the process-wide kernel
// budget (backend::CoreLease, ADEPT_NUM_THREADS) from the first batch it
// executes until it finds the queue empty. Kernels fan out only into cores
// nobody holds, so a lone busy worker (a batch-1 closed loop) gets every
// core, saturated workers run their kernels on one core each, and workers x
// kernel threads never oversubscribe. No thread setting needs to change
// between the two regimes; results are bit-identical either way.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/compiled_model.h"
#include "runtime/errors.h"

namespace adept::runtime {

// What submit() does when the bounded queue is at capacity.
enum class OverloadPolicy : std::uint8_t { block, reject, shed_oldest };

// "block" | "reject" | "shed_oldest" <-> enum; parse returns `def` for
// unknown names (env knobs never error).
std::string to_string(OverloadPolicy policy);
OverloadPolicy parse_overload_policy(const std::string& name,
                                     OverloadPolicy def = OverloadPolicy::block);

struct ServerConfig {
  int threads = 1;        // worker count
  int max_batch = 16;     // micro-batch ceiling per forward
  int max_wait_us = 100;  // stragglers window after the first pop
  std::size_t queue_capacity = 1024;
  OverloadPolicy policy = OverloadPolicy::block;
  // Default request deadline, measured from submit; 0 = none. Expired
  // requests fail with DeadlineExceededError instead of executing.
  std::int64_t deadline_us = 0;

  // Reads ADEPT_SERVE_THREADS / ADEPT_SERVE_MAX_BATCH /
  // ADEPT_SERVE_MAX_WAIT_US / ADEPT_SERVE_POLICY / ADEPT_SERVE_DEADLINE_US,
  // clamping out-of-range values into the supported envelope (documented in
  // common/env.h, tested in tests/test_server_robustness.cpp): threads
  // [1, 256] (default: hardware concurrency), max_batch [1, 4096],
  // max_wait_us [0, 1000000], policy one of block|reject|shed_oldest
  // (unknown -> block), deadline_us [0, 600000000] (0 = none).
  static ServerConfig from_env();

  // The clamp from_env applies, exposed for callers building configs by
  // hand from untrusted values.
  ServerConfig clamped() const;
};

// A point-in-time view over this server's instruments in the process-wide
// obs registry (src/obs/metrics.h) — the struct shape predates the
// registry and is kept for callers; the same numbers are visible to
// obs::snapshot() under the server's metrics_prefix().
struct ServerStats {
  std::uint64_t requests = 0;   // completed requests (the goodput numerator)
  std::uint64_t batches = 0;    // forward passes executed
  std::uint64_t rejected = 0;   // admission-refused under `reject`
  std::uint64_t shed = 0;       // dropped by `shed_oldest` to admit newer work
  std::uint64_t deadline_misses = 0;  // expired before execution
  std::uint64_t reloads = 0;    // successful model swaps
  std::uint64_t model_version = 0;    // frozen_param_version of the live model
  double mean_batch_fill = 0;   // requests / batches (micro-batch fill rate)
  // Percentiles over every COMPLETED request, from the registry's
  // log-bucket latency histogram: O(1) memory for any uptime, recording is
  // one relaxed atomic op (no stats mutex anywhere on the serving path),
  // and the quantiles are within 6.25% of the exact-sort answer (the
  // bucket bound; see obs::Histogram). Rejected/expired requests never
  // enter the histogram: these are accepted-request latencies.
  double latency_p50_us = 0;    // submit -> result
  double latency_p99_us = 0;
  double latency_max_us = 0;    // top occupied bucket's edge (same bound)
};

class Server {
 public:
  // Borrow `model` (it must outlive the Server). reload()/swap_model() on a
  // borrowing server swap to an owned replacement; the borrowed original is
  // never freed.
  Server(const CompiledModel& model, ServerConfig config = ServerConfig::from_env());
  // Share ownership — the natural constructor when hot reload is in play.
  Server(std::shared_ptr<const CompiledModel> model,
         ServerConfig config = ServerConfig::from_env());
  ~Server();  // graceful shutdown
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Enqueue one sample of input_numel() floats; the future resolves to its
  // output_numel() result row. Full-queue behavior is config().policy (see
  // the file comment); the config default deadline applies. Throws
  // std::invalid_argument, before enqueueing, on a size mismatch or a NaN /
  // infinite input value (naming the first one); failures surface through
  // the future as RejectedError / DeadlineExceededError / ShutdownError.
  std::future<std::vector<float>> submit(std::vector<float> input);
  // Same, with a per-request deadline override (microseconds from now;
  // 0 = no deadline for this request, whatever the config says).
  std::future<std::vector<float>> submit(std::vector<float> input,
                                         std::int64_t deadline_us);

  // Hot reload: load `path`, freeze it with the live model's input dims and
  // FreezeOptions, and swap it in. Runs on the calling thread; workers keep
  // serving the old model until the swap, which happens between batches —
  // zero requests are dropped and every in-flight response is computed
  // wholly by the version that picked it up. Throws (and leaves the old
  // model serving) if the checkpoint cannot be loaded/frozen or its I/O
  // shape differs from the live model's.
  void reload(const std::string& checkpoint_path);

  // The swap half of reload(), for callers that already hold a frozen
  // model. Same shape validation and atomicity.
  void swap_model(std::shared_ptr<const CompiledModel> next);

  // The model currently answering requests.
  std::shared_ptr<const CompiledModel> model() const;

  // Drain queued requests, answer them, stop the workers. Blocked and late
  // submitters fail with ShutdownError. Idempotent; the destructor calls it.
  void shutdown();

  ServerStats stats() const;
  const ServerConfig& config() const { return config_; }

  // The "serve.s<N>." instrument-name prefix of this instance in the obs
  // registry (N = construction order, process-wide), so external readers
  // (bench_serve) can find exactly this server's counters and histograms
  // in obs::snapshot() without cross-talk from other instances.
  const std::string& metrics_prefix() const { return metrics_prefix_; }

 private:
  struct Request {
    std::vector<float> input;
    std::promise<std::vector<float>> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;  // ::max() = none
  };

  std::future<std::vector<float>> submit_impl(
      std::vector<float> input, std::chrono::steady_clock::time_point deadline);
  void worker_loop();
  void record_completed(const std::vector<Request>& batch,
                        std::chrono::steady_clock::time_point now);
  void fail_expired(std::vector<Request>& expired);

  // I/O geometry is validated at construction and invariant across swaps
  // (swap_model enforces it), so submit can size-check without touching
  // the model slot.
  const std::int64_t input_numel_;
  const std::int64_t output_numel_;
  ServerConfig config_;

  // Telemetry: per-instance instruments under metrics_prefix_ in the
  // process-wide obs registry, resolved once here so every serving-path
  // record is a single relaxed atomic op — there is no stats mutex. Trace
  // ids name the request-lifecycle spans (queue wait, batch-form, execute,
  // respond); the disarmed cost per span site is one relaxed load.
  const std::string metrics_prefix_;
  obs::Counter& requests_total_;
  obs::Counter& batches_total_;
  obs::Counter& rejected_total_;
  obs::Counter& shed_total_;
  obs::Counter& deadline_misses_total_;
  obs::Counter& reloads_total_;
  obs::Histogram& latency_ns_;     // submit -> result, completed requests
  obs::Histogram& queue_wait_ns_;  // submit -> batch formation
  const obs::TraceId trace_request_;
  const obs::TraceId trace_queue_wait_;
  const obs::TraceId trace_batch_form_;
  const obs::TraceId trace_execute_;
  const obs::TraceId trace_respond_;
  const obs::TraceId trace_reload_;

  // The swappable model slot. Workers snapshot it once per micro-batch.
  mutable std::mutex model_mu_;
  std::shared_ptr<const CompiledModel> model_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Request> queue_;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace adept::runtime
