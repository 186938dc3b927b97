// Data parallelism for the dense kernel layer: one owned thread pool, one
// process-wide core budget, and a per-launch cost gate.
//
// All backend kernels partition their iteration space into contiguous chunks
// whose boundaries depend only on (n, grain) — never on the thread count or
// on which thread runs a chunk — and each output element is produced by
// exactly one chunk. This makes every kernel bit-exact across thread counts:
// ADEPT_NUM_THREADS=8 and ADEPT_NUM_THREADS=1 produce identical bits, so
// tests stay deterministic.
//
// Core budget. num_threads() is the number of cores the process may keep
// busy. Resolution order:
//   1. the n of the innermost live ThreadScope, if n >= 1 (process-wide),
//   2. the ADEPT_NUM_THREADS environment variable (see common/env.h),
//   3. std::thread::hardware_concurrency().
// Threads that run work of their own lease one core of the budget with
// CoreLease: comm::run_ranks holds one per rank thread while the world
// runs, and a runtime::Server worker holds one while it has work queued. A
// launch that fans out leases its extra threads too, and returns them when
// it joins. Leasing never blocks: a launch takes what is free, down to the
// caller alone. So ranks x kernel threads and server workers x kernel
// threads never oversubscribe the budget, while a lone caller gets all of
// it.
//
// The gate. A launch uses the smallest of
//   - the free budget plus the caller,
//   - the number of chunks, ceil(n / grain),
//   - the launch's work, n * cost, divided by kMinWorkPerThread,
// and runs serially on the calling thread when that is 1. The budget is
// read only when the launch's sizes allow more than one thread, so a gated
// launch touches no shared state. A launch made from inside a chunk of a
// fanned-out launch runs inline on that thread.
//
// Pool. Helper threads start on the first launch that fans out (none exist
// before), never exceed the budget minus one, spin briefly after a job and
// then park. A launch hands chunks out dynamically, and takes part itself;
// helpers it posted to that have not yet picked the job up when it runs out
// of chunks are revoked instead of waited for. An exception thrown by a
// chunk stops the handing out of further chunks and is rethrown to the
// caller once every running chunk has finished.
//
// Telemetry (obs counters, recorded only on the fan-out path):
//   backend.pool.fanouts        launches that posted work to helper threads
//   backend.pool.threads_short  fan-outs that got fewer threads than their
//                               sizes and the budget allowed, because cores
//                               were leased out (or no idle helper was
//                               found)
//   backend.pool.parks          times a helper stopped spinning and slept
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace adept::backend {

// The process-wide core budget (always >= 1).
int num_threads();

// RAII scope that forces the process-wide budget, restoring the previous
// one on exit; n <= 0 restores the env/hardware default for its lifetime.
// Used by tests and benches to compare threaded output against the serial
// path.
class ThreadScope {
 public:
  explicit ThreadScope(int n);
  ~ThreadScope();
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int prev_;
};

// RAII lease of one core of the process-wide budget for the calling
// thread, for threads that run work of their own (rank threads, busy server
// workers). Nested leases on one thread hold a single core. Never blocks:
// when the budget is already leased out the lease still counts, and
// launches everywhere then run on their callers alone until cores return.
class CoreLease {
 public:
  CoreLease();
  ~CoreLease();
  CoreLease(const CoreLease&) = delete;
  CoreLease& operator=(const CoreLease&) = delete;
};

// Cost of one element of a memory-bound loop body (an elementwise op, a
// copy, a pack) in the flop units of the gate. With the constant below an
// elementwise launch fans out from 64 k elements (26 us serial), where the
// zip probe below gains 1.5x at 2 threads.
inline constexpr std::int64_t kElemCost = 16;

namespace detail {

// Minimum work, in `cost` units (about one vectorized flop; kElemCost per
// element of a memory-bound body), that pays for one extra thread. Measured
// on a 4-vCPU AVX-512 host (GCC 12, Release):
//   - a 4-way launch of empty chunks costs 2 us while helpers spin and
//     14 us once they have parked (2-way: 0.8 / 11 us);
//   - fanned out with the gate off and followed by a serial read of the
//     output, a 16-tile K=16 cgemm_batched (0.5 M) gains 1.1x at 2 threads,
//     a width-4 conv gemm of 1.2 M gains 1.4x (2.3x at 4), a 0.5 M
//     elementwise zip 1.7x;
//   - search_k16 end to end (steps/s, two seeds): 74 / 67 all serial,
//     79 / 83 at 2 M, 90 / 91 at 0.5 M, 74 / 79 at 0.25 M.
// So a launch needs 1 M of work for 2 threads and 2 M for 4: the 16-tile
// K=16 mesh products and elementwise ops under 64 k elements stay serial,
// the proxy-CNN convs and the width-32 training convs fan out.
inline constexpr std::int64_t kMinWorkPerThread = std::int64_t{1} << 19;

// Threads the launch's sizes alone allow: min(chunks, work / minimum), at
// least 1. Pure arithmetic on the launch's own arguments, ordered so that
// the many small launches return after a compare and a multiply, without
// an integer division.
inline std::int64_t size_threads(std::int64_t n, std::int64_t grain,
                                 std::int64_t cost) {
  if (n <= grain) return 1;
  std::int64_t work;
  if (__builtin_mul_overflow(n, cost, &work)) work = INT64_MAX;
  if (work < 2 * kMinWorkPerThread) return 1;
  const std::int64_t chunks = (n + grain - 1) / grain;
  const std::int64_t by_work = work / kMinWorkPerThread;
  return by_work < chunks ? by_work : chunks;
}

// A non-owning callable reference: no allocation per launch.
struct ChunkFn {
  void* obj;
  void (*call)(void* obj, std::int64_t begin, std::int64_t end);
  void operator()(std::int64_t b, std::int64_t e) const { call(obj, b, e); }
};

// Runs fn over the chunks of [0, n), fanning out to at most `want` threads
// (want >= 2 comes from size_threads) within the caller's budget. Returns
// false, having run nothing, when the budget or a nesting launch leaves the
// caller alone; the caller then runs fn inline.
bool fan_out(std::int64_t n, std::int64_t grain, std::int64_t want, ChunkFn fn);

}  // namespace detail

// Parallel loop over the index range [0, n). `fn(begin, end)` is invoked on
// disjoint subranges covering [0, n); it must not write outside state owned
// by its subrange. `grain` caps the chunk size; `cost` estimates the work of
// one index from the launch's own sizes (e.g. 2*k*n flops for a gemm row),
// and feeds the gate above.
template <typename Fn>
inline void parallel_for(std::int64_t n, std::int64_t grain, std::int64_t cost,
                         Fn&& fn) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const std::int64_t want = detail::size_threads(n, grain, cost);
  using F = std::remove_reference_t<Fn>;
  if (want > 1 &&
      detail::fan_out(
          n, grain, want,
          {const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
           [](void* f, std::int64_t b, std::int64_t e) { (*static_cast<F*>(f))(b, e); }})) {
    return;
  }
  fn(std::int64_t{0}, n);
}

// Same, for bodies whose work per index is one element op.
template <typename Fn>
inline void parallel_for(std::int64_t n, std::int64_t grain, Fn&& fn) {
  parallel_for(n, grain, kElemCost, std::forward<Fn>(fn));
}

}  // namespace adept::backend
