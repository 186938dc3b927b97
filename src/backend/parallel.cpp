#include "backend/parallel.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <new>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/env.h"
#include "obs/metrics.h"

namespace adept::backend {

namespace {

std::atomic<int> g_override{0};
// CoreLease nesting depth on this thread (> 0: the thread holds a core).
thread_local int t_lease_depth = 0;
// Set while this thread runs chunks of a fanned-out launch: nested launches
// then run inline.
thread_local bool t_in_chunk = false;

// Cores of the budget currently leased: one per CoreLease holder plus, for
// every launch in flight that fanned out, its helpers (and its caller when
// the caller holds no lease). May exceed the budget: leasing never blocks.
alignas(64) std::atomic<int> g_leased{0};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

// Upper bound on helper threads, whatever the budget says.
constexpr int kMaxHelpers = 255;
// How long an idle helper spins for its next job before it parks. Covers
// the gap between back-to-back launches of one step (a few us to tens of
// us), so a stream of fan-outs never pays a futex wake, while a helper of a
// pool that went quiet stops burning its core within a fraction of a ms.
constexpr auto kSpinFor = std::chrono::microseconds(100);
// Pause iterations a joining caller spins before it starts yielding.
constexpr int kJoinSpins = 1 << 12;

struct Job {
  detail::ChunkFn fn;
  std::int64_t n = 0, grain = 1, chunks = 0;
  alignas(64) std::atomic<std::int64_t> next{0};
  // Helpers that accepted the job (or may still) and have not finished.
  alignas(64) std::atomic<int> pending{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written once, by the thread that set failed

  // Claims and runs chunks until none are left (or one threw).
  void run_chunks() {
    const bool outer = t_in_chunk;
    t_in_chunk = true;
    while (!failed.load(std::memory_order_relaxed)) {
      const std::int64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) break;
      const std::int64_t begin = c * grain;
      try {
        fn(begin, std::min(begin + grain, n));
      } catch (...) {
        bool expected = false;
        if (failed.compare_exchange_strong(expected, true)) {
          error = std::current_exception();
        }
      }
    }
    t_in_chunk = outer;
  }
};

// Helper slot state: the low bits hold the phase, the rest count the posts
// made to the slot. A launcher claims an idle or parked helper
// (kIdle/kParked -> kClaimed, counting one more post), writes the job, and
// publishes it (kReady, waking a parked helper). The helper accepts
// (kReady -> kRunning) or the launcher revokes it first (kReady -> kIdle);
// both CAS the exact posted word, so exactly one wins, a revoked helper
// never touches the job, and a launcher can never revoke a later post to a
// helper that already ran its job and was claimed by another launch.
enum : std::uint32_t { kIdle, kParked, kClaimed, kReady, kRunning };
constexpr std::uint32_t kPhaseMask = 7;
constexpr std::uint32_t phase(std::uint32_t word) { return word & kPhaseMask; }
constexpr std::uint32_t with_phase(std::uint32_t word, std::uint32_t p) {
  return (word & ~kPhaseMask) | p;
}

struct alignas(64) Slot {
  std::atomic<std::uint32_t> state{kIdle};
  Job* job = nullptr;  // written by the claimer before kReady
  std::thread thread;  // the helper; only the spawner touches this member
};

// A launcher's record of one post: the slot and the word it published.
struct Post {
  Slot* slot;
  std::uint32_t ready;
};

class Pool {
 public:
  // Helpers run for the life of the process. The pool and its slots are
  // never destroyed, so no helper outlives the data it uses and no
  // std::thread is destroyed unjoined; at exit the helpers are spinning or
  // parked.
  static Pool& get() {
    static Pool* pool = new Pool();
    return *pool;
  }

  obs::Counter& fanouts = obs::counter("backend.pool.fanouts");
  obs::Counter& threads_short = obs::counter("backend.pool.threads_short");
  obs::Counter& parks = obs::counter("backend.pool.parks");

  // Posts `job` to up to `want` idle or parked helpers, starting helpers
  // while the pool is smaller than `limit`. Returns how many got it; their
  // posts go to `out`.
  int post(Job& job, int want, int limit, Post* out) {
    int got = 0;
    auto try_post = [&](Slot* s) {
      std::uint32_t word = s->state.load(std::memory_order_relaxed);
      const std::uint32_t was = phase(word);
      if (was != kIdle && was != kParked) return;
      const std::uint32_t claimed = with_phase(word + (kPhaseMask + 1), kClaimed);
      if (!s->state.compare_exchange_strong(word, claimed, std::memory_order_acquire)) {
        return;
      }
      s->job = &job;
      job.pending.fetch_add(1, std::memory_order_relaxed);
      const std::uint32_t ready = with_phase(claimed, kReady);
      // seq_cst: orders the publish before notify_one's waiter check.
      s->state.store(ready, std::memory_order_seq_cst);
      if (was == kParked) s->state.notify_one();
      out[got++] = {s, ready};
    };
    const int have = size_.load(std::memory_order_acquire);
    for (int i = 0; i < have && got < want; ++i) try_post(slots_[i]);
    if (got < want && have < std::min(limit, kMaxHelpers)) {
      std::lock_guard<std::mutex> lock(spawn_mu_);
      while (got < want && size_.load(std::memory_order_relaxed) <
                               std::min(limit, kMaxHelpers)) {
        Slot* s = new (std::nothrow) Slot();
        if (s == nullptr) break;
        try {
          s->thread = std::thread([this, s] { helper_main(*s); });
        } catch (...) {
          delete s;
          break;
        }
        const int i = size_.load(std::memory_order_relaxed);
        slots_[i] = s;
        size_.store(i + 1, std::memory_order_release);
        try_post(s);
      }
    }
    return got;
  }

 private:
  Pool() = default;

  void helper_main(Slot& s) {
    using Clock = std::chrono::steady_clock;
    auto spin_until = Clock::now() + kSpinFor;
    for (std::uint32_t spins = 1;; ++spins) {
      std::uint32_t word = s.state.load(std::memory_order_acquire);
      switch (phase(word)) {
        case kReady:
          // A failed accept means the launcher revoked the post.
          if (s.state.compare_exchange_strong(word, with_phase(word, kRunning),
                                              std::memory_order_acquire)) {
            Job* job = s.job;
            job->run_chunks();
            // Claimable again before the job lets its caller go, so a
            // launch right after this one finds the helper idle.
            s.state.store(with_phase(word, kIdle), std::memory_order_release);
            job->pending.fetch_sub(1, std::memory_order_release);
            spin_until = Clock::now() + kSpinFor;
          }
          continue;
        case kParked:
          s.state.wait(word);
          spin_until = Clock::now() + kSpinFor;
          continue;
        case kIdle:
          if (spins % 64 == 0 && Clock::now() > spin_until) {
            if (s.state.compare_exchange_strong(word, with_phase(word, kParked))) {
              parks.inc();
            }
            continue;
          }
          break;
        default:  // kClaimed: the post is being written
          break;
      }
      cpu_relax();
    }
  }

  std::array<Slot*, kMaxHelpers> slots_{};
  std::atomic<int> size_{0};
  std::mutex spawn_mu_;
};

}  // namespace

int num_threads() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  // The env/hardware default cannot change mid-process; resolve it once so
  // launches don't pay getenv + string construction.
  static const int resolved = [] {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw <= 0) hw = 1;
    const int env = adept::env_int("ADEPT_NUM_THREADS", hw);
    return env > 0 ? env : hw;
  }();
  return resolved;
}

ThreadScope::ThreadScope(int n) : prev_(g_override.load()) {
  g_override.store(n > 0 ? n : 0);
}
ThreadScope::~ThreadScope() { g_override.store(prev_); }

CoreLease::CoreLease() {
  if (t_lease_depth++ == 0) g_leased.fetch_add(1, std::memory_order_relaxed);
}
CoreLease::~CoreLease() {
  if (--t_lease_depth == 0) g_leased.fetch_sub(1, std::memory_order_relaxed);
}

namespace detail {

bool fan_out(std::int64_t n, std::int64_t grain, std::int64_t want_by_size,
             ChunkFn fn) {
  const int budget = num_threads();
  const int want =
      static_cast<int>(std::min<std::int64_t>(want_by_size, budget));
  if (want <= 1 || t_in_chunk) return false;
  // Lease the helpers, plus the caller's own core when it holds none.
  const int self = t_lease_depth > 0 ? 0 : 1;
  int held = g_leased.load(std::memory_order_relaxed);
  int extra;
  do {
    extra = std::min(want - 1, budget - held - self);
    if (extra <= 0) return false;
  } while (!g_leased.compare_exchange_weak(held, held + extra + self,
                                           std::memory_order_relaxed));

  Pool& pool = Pool::get();
  Job job;
  job.fn = fn;
  job.n = n;
  job.grain = grain;
  job.chunks = (n + grain - 1) / grain;
  std::array<Post, kMaxHelpers> posts;
  const int got = pool.post(job, extra, budget - 1, posts.data());
  if (got < extra) g_leased.fetch_sub(extra - got, std::memory_order_relaxed);
  if (got > 0) {
    pool.fanouts.inc();
    if (1 + got < want) pool.threads_short.inc();
  }

  job.run_chunks();
  // Helpers that have not picked the job up by now would find no chunks
  // left: revoke them rather than wait for them to wake.
  for (int i = 0; i < got; ++i) {
    std::uint32_t word = posts[i].ready;
    if (posts[i].slot->state.compare_exchange_strong(word, with_phase(word, kIdle),
                                                     std::memory_order_acq_rel)) {
      job.pending.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  for (int spins = 0; job.pending.load(std::memory_order_acquire) != 0;) {
    if (spins < kJoinSpins) {
      ++spins;
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  g_leased.fetch_sub(got + self, std::memory_order_relaxed);
  if (job.error) std::rethrow_exception(job.error);
  return true;
}

}  // namespace detail

}  // namespace adept::backend
