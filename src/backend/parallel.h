// Thread-pool-free data parallelism for the dense kernel layer.
//
// All backend kernels partition their iteration space into contiguous chunks
// whose boundaries depend only on the problem size — never on the thread
// count — and each output element is produced by exactly one chunk. This
// makes every kernel bit-exact across thread counts: ADEPT_NUM_THREADS=8 and
// ADEPT_NUM_THREADS=1 produce identical bits, so tests stay deterministic.
//
// Thread count resolution order:
//   1. LocalThreadScope on the calling thread (per-thread cap, see below),
//   2. set_num_threads(n) with n >= 1 (process-wide runtime override),
//   3. the ADEPT_NUM_THREADS environment variable (see common/env.h),
//   4. std::thread::hardware_concurrency().
// A value of 1 short-circuits to a plain serial loop on the calling thread.
#pragma once

#include <cstdint>
#include <functional>

namespace adept::backend {

// Effective worker count for the kernel layer (always >= 1).
int num_threads();

// Runtime override; n <= 0 restores the env/hardware default.
void set_num_threads(int n);

// RAII scope that forces a thread count (used by tests to compare threaded
// output against the serial fallback).
class ThreadScope {
 public:
  explicit ThreadScope(int n);
  ~ThreadScope();
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int prev_;
};

// RAII scope that caps the thread count for kernels launched from the
// CURRENT thread only, restoring the previous cap on exit. comm::run_ranks
// gives each rank thread its share of the kernel budget this way: a cap on
// one rank must not throttle kernels the other ranks launch concurrently,
// which a process-wide ThreadScope would. n <= 0 means "no cap" (inherit the
// global resolution order). Takes precedence over set_num_threads()/
// ThreadScope for this thread; worker threads spawned by the kernels
// themselves only execute chunks handed to them, so the cap never needs to
// propagate.
class LocalThreadScope {
 public:
  explicit LocalThreadScope(int n);
  ~LocalThreadScope();
  LocalThreadScope(const LocalThreadScope&) = delete;
  LocalThreadScope& operator=(const LocalThreadScope&) = delete;

 private:
  int prev_;
};

namespace detail {
// Splits [0, n) into chunks of at most `grain` iterations and runs
// fn(begin, end) over them, distributing chunks across up to num_threads()
// workers. Chunk boundaries are a pure function of (n, grain).
void run_chunked(std::int64_t n, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& fn);
}  // namespace detail

// Parallel loop over the index range [0, n). `fn(begin, end)` is invoked on
// disjoint subranges covering [0, n); it must not write outside state owned
// by its subrange. `grain` caps the chunk size (and bounds scheduling
// overhead for tiny bodies); the loop runs serially when n <= grain or a
// single thread is configured.
template <typename Fn>
inline void parallel_for(std::int64_t n, std::int64_t grain, Fn&& fn) {
  if (n <= 0) return;
  // Serial fast path, mirroring run_chunked's own short-circuit: one chunk
  // on the calling thread, but without materializing a std::function (which
  // otherwise costs an allocation per kernel launch on 1-core hosts — the
  // batch-1 serving latency path cares).
  if (num_threads() <= 1 || n <= grain) {
    fn(static_cast<std::int64_t>(0), n);
    return;
  }
  detail::run_chunked(n, grain, fn);
}

}  // namespace adept::backend
