#include "backend/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/env.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace adept::backend {

namespace {
std::atomic<int> g_override{0};
// Per-thread cap installed by LocalThreadScope (comm::run_ranks). Plain
// (non-atomic) is fine: only the owning thread reads or writes it.
thread_local int t_override = 0;
}  // namespace

int num_threads() {
  if (t_override > 0) return t_override;
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  // The env/hardware default cannot change mid-process; resolve it once so
  // per-kernel launches don't pay getenv + string construction.
  static const int resolved = [] {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw <= 0) hw = 1;
    const int env = adept::env_int("ADEPT_NUM_THREADS", hw);
    return env > 0 ? env : hw;
  }();
  return resolved;
}

void set_num_threads(int n) {
  g_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

ThreadScope::ThreadScope(int n) : prev_(g_override.load()) { set_num_threads(n); }
ThreadScope::~ThreadScope() { g_override.store(prev_); }

LocalThreadScope::LocalThreadScope(int n) : prev_(t_override) {
  t_override = n > 0 ? n : 0;
}
LocalThreadScope::~LocalThreadScope() { t_override = prev_; }

namespace detail {

void run_chunked(std::int64_t n, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const int nt = num_threads();
  if (nt <= 1 || n <= grain) {
    fn(0, n);
    return;
  }
#ifndef _OPENMP
  // The fallback spawns fresh threads per launch (no pool to amortize into),
  // so demand enough work per launch to bury the ~10-100us spawn/join cost.
  if (n <= grain * 8) {
    fn(0, n);
    return;
  }
#endif
  // Chunk boundaries depend only on (n, grain): bit-exact for any nt.
  const std::int64_t chunks = (n + grain - 1) / grain;
  const int workers = static_cast<int>(std::min<std::int64_t>(nt, chunks));
#ifdef _OPENMP
#pragma omp parallel for num_threads(workers) schedule(static)
  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::int64_t begin = c * grain;
    fn(begin, std::min(begin + grain, n));
  }
#else
  std::atomic<std::int64_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::int64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::int64_t begin = c * grain;
      fn(begin, std::min(begin + grain, n));
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int t = 1; t < workers; ++t) pool.emplace_back(worker);
  worker();
  for (auto& th : pool) th.join();
#endif
}

}  // namespace detail

}  // namespace adept::backend
