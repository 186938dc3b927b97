#include "runtime/server.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "backend/parallel.h"
#include "common/env.h"
#include "common/failpoint.h"
#include "runtime/checkpoint.h"

namespace adept::runtime {

namespace {

int clamp_int(int v, int lo, int hi) { return std::min(std::max(v, lo), hi); }

std::int64_t clamp_i64(std::int64_t v, std::int64_t lo, std::int64_t hi) {
  return std::min(std::max(v, lo), hi);
}

const CompiledModel& deref_model(const std::shared_ptr<const CompiledModel>& m) {
  if (!m) throw std::invalid_argument("Server: model must not be null");
  return *m;
}

using Clock = std::chrono::steady_clock;

// Each Server instance gets its own instrument prefix so concurrent or
// sequential servers in one process (bench warm-up vs measured run) never
// mix numbers in the shared registry.
std::string next_metrics_prefix() {
  static std::atomic<int> counter{0};
  return "serve.s" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed)) + ".";
}

std::int64_t to_ns(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

// Steady time points share obs::trace_now_ns's timebase, so spans measured
// from a request's enqueue timestamp line up with TraceSpan sections.
std::uint64_t to_trace_ns(Clock::time_point tp) {
  return static_cast<std::uint64_t>(to_ns(tp.time_since_epoch()));
}

}  // namespace

std::string to_string(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::block: return "block";
    case OverloadPolicy::reject: return "reject";
    case OverloadPolicy::shed_oldest: return "shed_oldest";
  }
  return "block";
}

OverloadPolicy parse_overload_policy(const std::string& name, OverloadPolicy def) {
  if (name == "block") return OverloadPolicy::block;
  if (name == "reject") return OverloadPolicy::reject;
  if (name == "shed_oldest") return OverloadPolicy::shed_oldest;
  return def;
}

ServerConfig ServerConfig::clamped() const {
  ServerConfig c = *this;
  c.threads = clamp_int(c.threads, 1, 256);
  c.max_batch = clamp_int(c.max_batch, 1, 4096);
  c.max_wait_us = clamp_int(c.max_wait_us, 0, 1'000'000);
  c.deadline_us = clamp_i64(c.deadline_us, 0, 600'000'000);
  if (c.queue_capacity == 0) c.queue_capacity = 1;
  return c;
}

ServerConfig ServerConfig::from_env() {
  ServerConfig c;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  c.threads = env_int("ADEPT_SERVE_THREADS", hw > 0 ? hw : 1);
  c.max_batch = env_int("ADEPT_SERVE_MAX_BATCH", 16);
  c.max_wait_us = env_int("ADEPT_SERVE_MAX_WAIT_US", 100);
  c.policy = parse_overload_policy(env_string("ADEPT_SERVE_POLICY", "block"));
  c.deadline_us = env_int("ADEPT_SERVE_DEADLINE_US", 0);
  return c.clamped();
}

Server::Server(const CompiledModel& model, ServerConfig config)
    : Server(std::shared_ptr<const CompiledModel>(&model, [](const CompiledModel*) {}),
             config) {}

Server::Server(std::shared_ptr<const CompiledModel> model, ServerConfig config)
    : input_numel_(deref_model(model).input_numel()),
      output_numel_(model->output_numel()),
      config_(config.clamped()),
      metrics_prefix_(next_metrics_prefix()),
      requests_total_(obs::counter(metrics_prefix_ + "requests")),
      batches_total_(obs::counter(metrics_prefix_ + "batches")),
      rejected_total_(obs::counter(metrics_prefix_ + "rejected")),
      shed_total_(obs::counter(metrics_prefix_ + "shed")),
      deadline_misses_total_(obs::counter(metrics_prefix_ + "deadline_misses")),
      reloads_total_(obs::counter(metrics_prefix_ + "reloads")),
      latency_ns_(obs::histogram(metrics_prefix_ + "latency_ns")),
      queue_wait_ns_(obs::histogram(metrics_prefix_ + "queue_wait_ns")),
      trace_request_(obs::intern_name("serve.request")),
      trace_queue_wait_(obs::intern_name("serve.queue_wait")),
      trace_batch_form_(obs::intern_name("serve.batch_form")),
      trace_execute_(obs::intern_name("serve.execute")),
      trace_respond_(obs::intern_name("serve.respond")),
      trace_reload_(obs::intern_name("serve.reload")),
      model_(std::move(model)) {
  workers_.reserve(static_cast<std::size_t>(config_.threads));
  for (int i = 0; i < config_.threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { shutdown(); }

std::future<std::vector<float>> Server::submit(std::vector<float> input) {
  const auto now = Clock::now();
  return submit_impl(std::move(input),
                     config_.deadline_us > 0
                         ? now + std::chrono::microseconds(config_.deadline_us)
                         : Clock::time_point::max());
}

std::future<std::vector<float>> Server::submit(std::vector<float> input,
                                               std::int64_t deadline_us) {
  const auto now = Clock::now();
  deadline_us = clamp_i64(deadline_us, 0, 600'000'000);
  return submit_impl(std::move(input),
                     deadline_us > 0 ? now + std::chrono::microseconds(deadline_us)
                                     : Clock::time_point::max());
}

std::future<std::vector<float>> Server::submit_impl(std::vector<float> input,
                                                    Clock::time_point deadline) {
  if (input.size() != static_cast<std::size_t>(input_numel_)) {
    throw std::invalid_argument(
        "Server::submit: input has " + std::to_string(input.size()) +
        " values, model expects " + std::to_string(input_numel_));
  }
  // A NaN or infinity would otherwise come back as a silently non-finite
  // answer.
  const auto bad = std::find_if(input.begin(), input.end(),
                                [](float x) { return !std::isfinite(x); });
  if (bad != input.end()) {
    throw std::invalid_argument("Server::submit: input value " +
                                std::to_string(bad - input.begin()) +
                                " is not finite");
  }
  Request req;
  req.input = std::move(input);
  req.enqueued = Clock::now();
  req.deadline = deadline;
  std::future<std::vector<float>> future = req.promise.get_future();
  std::optional<Request> victim;  // shed_oldest: failed outside the lock
  {
    std::unique_lock lock(mu_);
    if (!stopping_ && queue_.size() >= config_.queue_capacity) {
      switch (config_.policy) {
        case OverloadPolicy::block:
          not_full_.wait(lock, [this] {
            return stopping_ || queue_.size() < config_.queue_capacity;
          });
          break;
        case OverloadPolicy::reject: {
          lock.unlock();
          rejected_total_.inc();
          req.promise.set_exception(std::make_exception_ptr(RejectedError(
              "Server::submit: queue full (" + std::to_string(config_.queue_capacity) +
              " requests, policy reject) — retry with backoff")));
          return future;
        }
        case OverloadPolicy::shed_oldest:
          victim = std::move(queue_.front());
          queue_.pop_front();
          break;
      }
    }
    if (stopping_) {
      req.promise.set_exception(std::make_exception_ptr(
          ShutdownError("Server::submit: server is shut down")));
      return future;
    }
    queue_.push_back(std::move(req));
  }
  not_empty_.notify_one();
  if (victim) {
    shed_total_.inc();
    victim->promise.set_exception(std::make_exception_ptr(RejectedError(
        "Server::submit: request shed to admit a newer arrival (queue full, "
        "policy shed_oldest)")));
  }
  return future;
}

void Server::fail_expired(std::vector<Request>& expired) {
  if (expired.empty()) return;
  deadline_misses_total_.inc(expired.size());
  for (auto& req : expired) {
    const double waited =
        std::chrono::duration<double, std::micro>(Clock::now() - req.enqueued).count();
    req.promise.set_exception(std::make_exception_ptr(DeadlineExceededError(
        "Server: request deadline exceeded after " +
        std::to_string(static_cast<long long>(waited)) +
        " us in queue (never executed)")));
  }
  expired.clear();
}

void Server::worker_loop() {
  CompiledModel::Workspace ws;
  std::vector<Request> batch;
  std::vector<Request> expired;
  std::vector<float> inputs, outputs;
  // One core of the kernel budget, held from the first batch this worker
  // executes until it finds the queue empty. A lone busy worker (a batch-1
  // closed loop) leaves the other cores free for its kernels to fan out
  // into; saturated workers keep theirs between batches, so no kernel fans
  // out into a core a worker is about to run its next batch on.
  std::optional<backend::CoreLease> lease;
  for (;;) {
    batch.clear();
    bool exiting = false;
    Clock::time_point batch_start{};
    {
      std::unique_lock lock(mu_);
      // Pop the oldest LIVE request; expired ones are collected and failed
      // outside the lock without ever executing.
      while (batch.empty()) {
        if (queue_.empty()) lease.reset();
        not_empty_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
          exiting = true;  // stopping and fully drained
          break;
        }
        const auto now = Clock::now();
        while (!queue_.empty() && batch.empty()) {
          if (queue_.front().deadline < now) {
            expired.push_back(std::move(queue_.front()));
          } else {
            batch.push_back(std::move(queue_.front()));
          }
          queue_.pop_front();
        }
        if (!expired.empty() && batch.empty()) break;  // go fail them, retry
      }
      if (!batch.empty()) {
        // Micro-batching: drain what is already queued, then (unless
        // stopping or full) linger up to max_wait_us past the first pop for
        // stragglers. Deadline checks ride along on every pop.
        batch_start = Clock::now();
        const auto linger_until =
            batch_start + std::chrono::microseconds(config_.max_wait_us);
        while (static_cast<int>(batch.size()) < config_.max_batch) {
          if (!queue_.empty()) {
            if (queue_.front().deadline < Clock::now()) {
              expired.push_back(std::move(queue_.front()));
            } else {
              batch.push_back(std::move(queue_.front()));
            }
            queue_.pop_front();
            continue;
          }
          if (stopping_ || config_.max_wait_us == 0) break;
          if (not_empty_.wait_until(lock, linger_until, [this] {
                return stopping_ || !queue_.empty();
              })) {
            if (queue_.empty()) break;  // woke for shutdown
            continue;
          }
          break;  // window elapsed
        }
      }
    }
    not_full_.notify_all();

    // Second deadline check at batch-formation time: the straggler window
    // may have outlived some members' deadlines.
    {
      const auto now = Clock::now();
      auto live_end = std::stable_partition(
          batch.begin(), batch.end(),
          [&](const Request& r) { return r.deadline >= now; });
      for (auto it = live_end; it != batch.end(); ++it) {
        expired.push_back(std::move(*it));
      }
      batch.erase(live_end, batch.end());
    }
    fail_expired(expired);
    if (exiting) return;
    if (batch.empty()) continue;

    // Queue-wait telemetry at batch formation: the submit -> formation gap
    // per admitted request (histogram always — one relaxed op each — and,
    // when tracing, a span anchored at the request's enqueue timestamp),
    // plus the batch-form span covering first-pop through linger.
    const auto formed = Clock::now();
    const bool tracing = obs::tracing_enabled();
    for (const auto& req : batch) {
      const std::int64_t waited = to_ns(formed - req.enqueued);
      queue_wait_ns_.record(waited);
      if (tracing) {
        obs::trace_event(trace_queue_wait_, to_trace_ns(req.enqueued),
                         static_cast<std::uint64_t>(waited));
      }
    }
    if (tracing) {
      obs::trace_event(trace_batch_form_, to_trace_ns(batch_start),
                       static_cast<std::uint64_t>(to_ns(formed - batch_start)));
    }

    // Snapshot the model slot once per batch: a concurrent reload() swaps
    // the slot for the NEXT batch; this one is answered wholly by the
    // version snapshotted here.
    std::shared_ptr<const CompiledModel> model;
    {
      std::lock_guard model_lock(model_mu_);
      model = model_;
    }

    const std::int64_t in_n = model->input_numel();
    const std::int64_t out_n = model->output_numel();
    const std::int64_t b = static_cast<std::int64_t>(batch.size());
    inputs.resize(static_cast<std::size_t>(b * in_n));
    outputs.resize(static_cast<std::size_t>(b * out_n));
    for (std::int64_t i = 0; i < b; ++i) {
      std::copy(batch[static_cast<std::size_t>(i)].input.begin(),
                batch[static_cast<std::size_t>(i)].input.end(),
                inputs.begin() + i * in_n);
    }
    std::exception_ptr err;
    if (!lease) lease.emplace();
    {
      obs::TraceSpan execute_span(trace_execute_);
      try {
        if (failpoint::maybe_fail("server.worker.batch")) {
          throw std::runtime_error(
              "Server: worker forward failed (injected via failpoint "
              "server.worker.batch)");
        }
        model->run(inputs.data(), b, outputs.data(), ws);
      } catch (...) {
        err = std::current_exception();
      }
    }

    // Record stats BEFORE fulfilling the promises: a caller that observed a
    // resolved future must see its request already counted in stats() — the
    // relaxed instrument writes precede the promise's release store, so any
    // thread that sees the future ready sees them too.
    record_completed(batch, Clock::now());

    {
      obs::TraceSpan respond_span(trace_respond_);
      if (err != nullptr) {
        for (auto& req : batch) req.promise.set_exception(err);
      } else {
        for (std::int64_t i = 0; i < b; ++i) {
          batch[static_cast<std::size_t>(i)].promise.set_value(std::vector<float>(
              outputs.begin() + i * out_n, outputs.begin() + (i + 1) * out_n));
        }
      }
    }
  }
}

void Server::record_completed(const std::vector<Request>& batch,
                              Clock::time_point now) {
  requests_total_.inc(batch.size());
  batches_total_.inc();
  const bool tracing = obs::tracing_enabled();
  for (const auto& req : batch) {
    const std::int64_t lat = to_ns(now - req.enqueued);
    latency_ns_.record(lat);
    if (tracing) {
      // The request span covers submit -> result, anchored at the enqueue
      // timestamp (taken on the submitter's thread; same steady timebase).
      obs::trace_event(trace_request_, to_trace_ns(req.enqueued),
                       static_cast<std::uint64_t>(lat));
    }
  }
}

void Server::reload(const std::string& checkpoint_path) {
  // Load + freeze on THIS thread while the workers keep serving the old
  // model; only the pointer swap at the end synchronizes with them.
  obs::TraceSpan reload_span(trace_reload_);
  const std::shared_ptr<const CompiledModel> live = model();
  LoadedCheckpoint loaded = load_checkpoint(checkpoint_path);
  auto next = std::make_shared<CompiledModel>(
      CompiledModel::freeze(loaded.model, live->input_dims(), live->options()));
  swap_model(std::move(next));
}

void Server::swap_model(std::shared_ptr<const CompiledModel> next) {
  if (!next) throw std::invalid_argument("Server::swap_model: model must not be null");
  if (next->input_numel() != input_numel_ || next->output_numel() != output_numel_) {
    throw std::invalid_argument(
        "Server::swap_model: replacement model maps " +
        std::to_string(next->input_numel()) + " -> " +
        std::to_string(next->output_numel()) + " features, live server maps " +
        std::to_string(input_numel_) + " -> " + std::to_string(output_numel_) +
        " (checkpoint from a different architecture?)");
  }
  {
    std::lock_guard model_lock(model_mu_);
    model_ = std::move(next);
  }
  reloads_total_.inc();
}

std::shared_ptr<const CompiledModel> Server::model() const {
  std::lock_guard model_lock(model_mu_);
  return model_;
}

void Server::shutdown() {
  // Claim the worker handles under the lock so concurrent shutdown callers
  // (explicit call racing the destructor) never join the same thread twice:
  // the second caller swaps out an empty vector and joins nothing.
  std::vector<std::thread> workers;
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
    workers.swap(workers_);
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (auto& w : workers) {
    if (w.joinable()) w.join();
  }
}

ServerStats Server::stats() const {
  // A thin view over the registry instruments: counter loads plus three
  // bucket walks — no lock shared with the serving path, no ring copy, no
  // sort, the same cost whether the server has answered 1e3 or 1e9
  // requests.
  ServerStats s;
  s.requests = requests_total_.value();
  s.batches = batches_total_.value();
  s.rejected = rejected_total_.value();
  s.shed = shed_total_.value();
  s.deadline_misses = deadline_misses_total_.value();
  s.reloads = reloads_total_.value();
  s.model_version = model()->frozen_param_version();
  if (s.batches > 0) {
    s.mean_batch_fill = static_cast<double>(s.requests) / static_cast<double>(s.batches);
  }
  if (latency_ns_.count() > 0) {
    s.latency_p50_us = latency_ns_.quantile(0.5) / 1e3;
    s.latency_p99_us = latency_ns_.quantile(0.99) / 1e3;
    s.latency_max_us = latency_ns_.approx_max() / 1e3;
  }
  return s;
}

}  // namespace adept::runtime
