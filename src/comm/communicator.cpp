#include "comm/communicator.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <latch>
#include <mutex>
#include <thread>

#include "backend/parallel.h"
#include "common/env.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace adept::comm {

namespace {

// Elements per owner-reduced chunk. Size-only: boundaries are a pure
// function of n, so the reduction order never depends on the world's thread
// schedule. 4096 floats = 16 KiB keeps a chunk inside L1 while amortizing
// the two barriers per collective over plenty of arithmetic.
constexpr std::int64_t kChunkElems = 4096;

// Fixed pairwise reduction tree over rank indices for one element. `w` is a
// power of two <= kMaxWorld (enforced at world construction), but the loop
// is correct for any w: ranks with no partner at a stride pass through.
template <typename T>
inline T reduce_tree(T (&v)[kMaxWorld], int w) {
  for (int stride = 1; stride < w; stride *= 2) {
    for (int r = 0; r + stride < w; r += 2 * stride) {
      v[r] += v[r + stride];
    }
  }
  return v[0];
}

int floor_pow2(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

// One-sided publish/read windows for `world` rank threads in one address
// space:
//
//   publish(r, data, bytes)  make rank r's buffer visible to every peer;
//                            returns once ALL ranks have published
//   peer_window(r, off, len) pointer to `len` bytes at offset `off` of rank
//                            r's published buffer — read-only, and valid
//                            only until the next release()
//   release(r)               barrier; afterwards no peer reads rank r's
//                            window and the publisher may reuse its buffer
//   barrier() / abort()      generation-counted barrier; abort() poisons it
//                            so every rank blocked in (or later entering)
//                            one throws AbortedError
class InProcessGroup {
 public:
  explicit InProcessGroup(int world_size)
      : world_(world_size), windows_(static_cast<std::size_t>(world_size)) {}

  int world_size() const { return world_; }

  void publish(int rank, const void* data, std::size_t bytes) {
    windows_[static_cast<std::size_t>(rank)] = {data, bytes};
    // Publication is complete only once every rank has written its slot:
    // the barrier doubles as the release/acquire edge that makes the slot
    // table (and the published payloads) visible across rank threads.
    barrier();
  }

  const void* peer_window(int peer, std::size_t offset, std::size_t len) const {
    const Window& w = windows_[static_cast<std::size_t>(peer)];
    if (w.data == nullptr || offset + len > w.bytes) {
      throw std::runtime_error("comm: peer_window read outside published window");
    }
    return static_cast<const unsigned char*>(w.data) + offset;
  }

  void release(int rank) {
    // All ranks stop reading before any publisher reuses its buffer.
    barrier();
    windows_[static_cast<std::size_t>(rank)] = {};
  }

  void barrier() {
    std::unique_lock<std::mutex> lock(mu_);
    if (poisoned_) throw AbortedError();
    if (++arrived_ == world_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    const std::uint64_t gen = generation_;
    cv_.wait(lock, [&] { return generation_ != gen || poisoned_; });
    if (generation_ == gen && poisoned_) throw AbortedError();
  }

  void abort() {
    std::lock_guard<std::mutex> lock(mu_);
    poisoned_ = true;
    cv_.notify_all();
  }

 private:
  struct Window {
    const void* data = nullptr;
    std::size_t bytes = 0;
  };

  int world_;
  std::vector<Window> windows_;
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  bool poisoned_ = false;
};

// The chunked-tree Communicator: rank `rank` of `group`, which must outlive
// it.
class TreeCommunicator final : public Communicator {
 public:
  TreeCommunicator(InProcessGroup& group, int rank)
      : group_(&group), rank_(rank), world_(group.world_size()) {}

  int rank() const override { return rank_; }
  int world_size() const override { return world_; }
  void allreduce_sum(float* data, std::int64_t n) override { allreduce_impl(data, n); }
  void allreduce_sum(double* data, std::int64_t n) override { allreduce_impl(data, n); }
  void broadcast(float* data, std::int64_t n, int root) override {
    broadcast_impl(data, n, root);
  }
  void broadcast(double* data, std::int64_t n, int root) override {
    broadcast_impl(data, n, root);
  }
  void allgather(const float* in, std::int64_t n, float* out) override {
    allgather_impl(in, n, out);
  }
  void allgather(const double* in, std::int64_t n, double* out) override {
    allgather_impl(in, n, out);
  }
  void barrier() override { group_->barrier(); }

 private:
  template <typename T>
  void allreduce_impl(T* data, std::int64_t n);
  template <typename T>
  void broadcast_impl(T* data, std::int64_t n, int root);
  template <typename T>
  void allgather_impl(const T* in, std::int64_t n, T* out);

  InProcessGroup* group_;
  int rank_;
  int world_;
  std::vector<unsigned char> reduced_;  // owner-reduced chunks, full length
};

template <typename T>
void TreeCommunicator::allreduce_impl(T* data, std::int64_t n) {
  failpoint::maybe_fail("comm.allreduce");
  // Collective telemetry, every rank: one span per call (each rank's
  // records land in its own thread ring, so per-rank skew is visible in
  // the trace) plus call/byte counters. Instruments resolve once; the
  // steady-state cost is two relaxed fetch_adds and one relaxed load.
  static obs::Counter& calls = obs::counter("comm.allreduce.calls");
  static obs::Counter& bytes_moved = obs::counter("comm.allreduce.bytes");
  static const obs::TraceId t_span = obs::intern_name("comm.allreduce");
  calls.inc();
  if (n > 0) bytes_moved.inc(static_cast<std::uint64_t>(n) * sizeof(T));
  obs::TraceSpan span(t_span);
  const int w = world_size();
  if (w == 1 || n <= 0) return;
  const int me = rank_;
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(T);
  reduced_.resize(bytes);
  T* red = reinterpret_cast<T*>(reduced_.data());

  // Phase 1 (reduce-scatter): chunk c is reduced by rank c % w, reading every
  // rank's published source buffer. The per-element order is the fixed rank
  // tree regardless of which rank owns the chunk.
  group_->publish(me, data, bytes);
  const std::int64_t chunks = (n + kChunkElems - 1) / kChunkElems;
  for (std::int64_t c = 0; c < chunks; ++c) {
    if (c % w != me) continue;
    const std::int64_t lo = c * kChunkElems;
    const std::int64_t hi = std::min(n, lo + kChunkElems);
    const T* src[kMaxWorld];
    for (int r = 0; r < w; ++r) {
      src[r] = (r == me)
                   ? data + lo
                   : static_cast<const T*>(group_->peer_window(
                         r, static_cast<std::size_t>(lo) * sizeof(T),
                         static_cast<std::size_t>(hi - lo) * sizeof(T)));
    }
    for (std::int64_t i = 0; i < hi - lo; ++i) {
      T v[kMaxWorld] = {};
      for (int r = 0; r < w; ++r) v[r] = src[r][i];
      red[lo + i] = reduce_tree(v, w);
    }
  }
  group_->release(me);

  // Phase 2 (allgather of reduced chunks): every rank copies each chunk from
  // its owner, so all ranks end with byte-identical buffers.
  group_->publish(me, red, bytes);
  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::int64_t lo = c * kChunkElems;
    const std::int64_t hi = std::min(n, lo + kChunkElems);
    const int owner = static_cast<int>(c % w);
    const std::size_t len = static_cast<std::size_t>(hi - lo) * sizeof(T);
    if (owner == me) {
      std::memcpy(data + lo, red + lo, len);
    } else {
      const void* src = group_->peer_window(
          owner, static_cast<std::size_t>(lo) * sizeof(T), len);
      std::memcpy(data + lo, src, len);
    }
  }
  group_->release(me);
}

template <typename T>
void TreeCommunicator::broadcast_impl(T* data, std::int64_t n, int root) {
  static obs::Counter& calls = obs::counter("comm.broadcast.calls");
  static obs::Counter& bytes_moved = obs::counter("comm.broadcast.bytes");
  static const obs::TraceId t_span = obs::intern_name("comm.broadcast");
  calls.inc();
  if (n > 0) bytes_moved.inc(static_cast<std::uint64_t>(n) * sizeof(T));
  obs::TraceSpan span(t_span);
  const int w = world_size();
  if (w == 1 || n <= 0) return;
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(T);
  group_->publish(rank_, data, bytes);
  if (rank_ != root) std::memcpy(data, group_->peer_window(root, 0, bytes), bytes);
  group_->release(rank_);
}

template <typename T>
void TreeCommunicator::allgather_impl(const T* in, std::int64_t n, T* out) {
  static obs::Counter& calls = obs::counter("comm.allgather.calls");
  static obs::Counter& bytes_moved = obs::counter("comm.allgather.bytes");
  static const obs::TraceId t_span = obs::intern_name("comm.allgather");
  calls.inc();
  if (n > 0) bytes_moved.inc(static_cast<std::uint64_t>(n) * sizeof(T));
  obs::TraceSpan span(t_span);
  const int w = world_size();
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(T);
  if (w == 1) {
    if (n > 0) std::memmove(out, in, bytes);
    return;
  }
  if (n <= 0) return;
  group_->publish(rank_, in, bytes);
  for (int r = 0; r < w; ++r) {
    const void* src = r == rank_ ? in : group_->peer_window(r, 0, bytes);
    std::memcpy(out + static_cast<std::size_t>(r) * n, src, bytes);
  }
  group_->release(rank_);
}

}  // namespace

int max_world_size() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, kMaxWorld);
}

int resolve_ranks(int requested) {
  int r;
  if (requested > 0) {
    r = std::min(requested, kMaxWorld);
  } else {
    r = env_int("ADEPT_RANKS", 1);
    r = std::clamp(r, 1, max_world_size());
  }
  return floor_pow2(r);
}

bool use_rank_group(int requested) {
  return requested > 0 || resolve_ranks(requested) > 1;
}

void run_ranks(int world, const std::function<void(Communicator&)>& fn) {
  if (world < 1 || world > kMaxWorld) {
    throw std::invalid_argument("run_ranks: world out of [1, kMaxWorld]");
  }
  InProcessGroup group(world);
  if (world == 1) {
    TreeCommunicator comm(group, 0);
    fn(comm);
    return;
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  std::latch all_leased(world), all_done(world);
  auto body = [&](int r) {
    // Each rank holds one core of the kernel budget from before any rank
    // starts until every rank is done, so ranks x kernel threads never
    // exceed backend::num_threads(): no rank fans out into a core a late
    // peer is about to take or an early one has just given back.
    backend::CoreLease lease;
    all_leased.arrive_and_wait();
    try {
      TreeCommunicator comm(group, r);
      fn(comm);
    } catch (...) {
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      group.abort();
    }
    all_done.arrive_and_wait();
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world - 1));
  for (int r = 1; r < world; ++r) threads.emplace_back(body, r);
  body(0);
  for (auto& t : threads) t.join();
  // Prefer the root cause over the AbortedError cascades it triggered.
  for (const auto& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const AbortedError&) {
      continue;
    } catch (...) {
      std::rethrow_exception(e);
    }
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace adept::comm
