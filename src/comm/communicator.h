// Rank collectives for data-parallel search and training.
//
// Communicator owns the chunking and — critically — the reduction order.
// allreduce_sum computes every output element with a fixed pairwise tree
// over rank indices
//
//   stride = 1, 2, 4, ...:   v[r] += v[r + stride]
//
// evaluated serially per element by exactly one owner rank. Chunk boundaries
// depend only on the buffer size (never on thread counts or arrival order),
// and every rank copies the same owner-reduced bytes, so:
//   * all ranks leave an allreduce with bit-identical buffers, and
//   * the result is a pure function of the per-rank inputs — re-running the
//     collective on any machine, at any ADEPT_NUM_THREADS, gives the same
//     bits. This is the same size-only-chunking discipline the backend
//     kernels use (backend/parallel.h), lifted one level up.
//
// Ranks are threads of one process sharing a rank group: each collective
// publishes a pointer to its buffer in the group's window table, peers read
// one another's windows in place between two barriers, and the barrier is
// poisonable — after abort() every rank blocked in (or later entering) a
// collective unblocks with AbortedError, so a rank that dies mid-collective
// cannot deadlock the world.
//
// World sizes are powers of two up to kMaxWorld, which keeps rank subtrees
// aligned with the micro-shard tree in comm/sharded.h (see that header for
// why N-rank gradients then match 1-rank bit for bit).
//
// run_ranks() is the in-process entry point: it spawns `world` rank threads
// (rank 0 runs on the caller's thread), has each hold one core of the
// process-wide kernel budget (backend::CoreLease) so ranks x kernel threads
// never oversubscribes the machine, and turns a throwing rank into a world-wide
// abort instead of a deadlock (peers blocked in a collective unblock with
// AbortedError; the original exception is rethrown to the caller).
//
// Failpoints: every allreduce evaluates the "comm.allreduce" site, so tests
// and operators can inject a mid-collective death (see common/failpoint.h).
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>

namespace adept::comm {

// Thrown out of any collective after a peer aborted the group: the
// collective cannot complete because a peer gave up. Derives from
// std::runtime_error so generic catch sites treat it like any other
// collective failure.
struct AbortedError : std::runtime_error {
  AbortedError() : std::runtime_error("comm: collective aborted by a peer rank") {}
};

// Hard cap on the in-process world size; also the widest rank tree the fixed
// reduction order supports.
inline constexpr int kMaxWorld = 8;

class Communicator {
 public:
  virtual ~Communicator() = default;
  virtual int rank() const = 0;
  virtual int world_size() const = 0;
  // In-place elementwise sum across ranks; all ranks end with identical bits.
  virtual void allreduce_sum(float* data, std::int64_t n) = 0;
  virtual void allreduce_sum(double* data, std::int64_t n) = 0;
  // Replicate root's buffer to every rank.
  virtual void broadcast(float* data, std::int64_t n, int root) = 0;
  virtual void broadcast(double* data, std::int64_t n, int root) = 0;
  // Concatenate each rank's n elements into out[world * n], rank-major.
  virtual void allgather(const float* in, std::int64_t n, float* out) = 0;
  virtual void allgather(const double* in, std::int64_t n, double* out) = 0;
  virtual void barrier() = 0;
};

// Largest world the environment-driven knob may resolve to on this machine:
// hardware concurrency clamped to [1, kMaxWorld].
int max_world_size();

// Resolve a rank-count request to an effective world size.
//   requested > 0   explicit programmatic request: clamped to [1, kMaxWorld]
//                   (tests and benches may oversubscribe small machines —
//                   ranks beyond the core count timeslice; their core
//                   leases keep kernel launches on the rank threads)
//   requested <= 0  read the ADEPT_RANKS environment knob: clamped to
//                   [1, max_world_size()]; unset, unparsable, or
//                   non-positive values fall back to 1
// Either way the result is rounded DOWN to a power of two so rank subtrees
// stay aligned with the fixed reduction tree (3 -> 2, 5..7 -> 4).
int resolve_ranks(int requested = 0);

// The one rule that picks how a search or training run executes: in a rank
// group (shard_count(items) micro-shards per step) when `requested` is
// explicit (> 0, so 1 gives the data-parallel numerics on one rank) or
// ADEPT_RANKS resolves above 1; otherwise single-process, one shard per step.
bool use_rank_group(int requested = 0);

// Run fn(comm) on `world` in-process rank threads and wait for all of them.
// Rank 0 executes on the calling thread. Each rank holds a CoreLease from
// before any rank starts until all are done, so its kernels fan out only
// into cores the world leaves free.
// If any rank throws, the group is aborted (peers unblock with AbortedError)
// and the lowest-rank non-abort exception is rethrown after the join.
void run_ranks(int world, const std::function<void(Communicator&)>& fn);

}  // namespace adept::comm
