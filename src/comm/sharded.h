// Micro-shard decomposition: why N-rank gradients are bit-identical to
// 1-rank.
//
// Floating-point addition is not associative, so the classic data-parallel
// recipe — each of R ranks runs one backward over batch/R samples, then the
// partial gradients are summed — cannot match a single full-batch backward
// bit for bit, at any reduction order. This layer removes R from the
// numerics entirely:
//
//   1. Every global step's items (batch samples, fit tiles) are split into
//      S = shard_count(items) micro-shards, where S depends ONLY on the item
//      count — never on the rank count. Shard boundaries (shard_range) are
//      size-only, like the backend kernels' chunk boundaries.
//   2. Each shard's gradient comes from its own zero_grad/backward pass, so
//      a shard's contribution is a pure function of its items. Work that
//      does not depend on the items is not sharded: a search step builds
//      its weights once per rank and its shards backprop only into
//      detached leaves of them (core::SuperMesh::pin_weight). The leaves
//      are reduced here like parameters, and every rank then runs the same
//      backward from the reduced leaf gradients through the weight graphs,
//      so that backward sees identical inputs at every world size.
//   3. Shard gradients are combined with a fixed pairwise balanced tree over
//      shard indices (ShardedGradReducer's binary-counter merge stack):
//        stride = 1, 2, 4:   g[s] += g[s + stride]
//   4. Ranks own contiguous blocks of shards (shard_owner). Because both S
//      and the world size are powers of two, every rank's local merge is a
//      complete aligned subtree of that fixed tree, and the rank-level
//      allreduce (comm/communicator.h) applies the identical tree over rank
//      indices — so the global combine order is THE SAME tree for every
//      world size in {1, 2, 4, 8}.
//
// A single-process run (no communicator) takes the same step body as world
// 1, rank 0, with one shard over all of a step's items and no collective.
//
// A rank that owns no shards (more ranks than shards) contributes an
// all-zero partial; x + 0.0f == x for every finite and non-finite x except
// that -0 + 0 flushes to +0 — a value-equal result, which is what the
// ASSERT_EQ parity tests compare.
//
// The reducer also fuses parameters into flat bucket buffers (one allreduce
// per bucket instead of per tensor) and carries a double-precision scalar
// block (per-shard loss terms) through the same fixed tree, so the loss a
// trace reports is as deterministic as the gradients.
#pragma once

#include <cstdint>
#include <vector>

#include "autograd/tensor.h"
#include "comm/communicator.h"

namespace adept::comm {

// Cap on micro-shards per step (= the deepest fixed shard tree). Also the
// largest rank count that can receive a non-empty shard block.
inline constexpr int kMaxShards = 8;

// Number of micro-shards for `items` work items: the largest power of two
// <= min(items, kMaxShards); 0 when there is no work. A pure function of the
// item count, which is what keeps rank counts out of the numerics.
int shard_count(std::int64_t items);

struct ShardRange {
  std::int64_t lo, hi;
};

// Size-only contiguous split of [0, items) into `shards` ranges.
ShardRange shard_range(std::int64_t items, int shard, int shards);

// The rank that computes shard `s` in a `world`-rank run. With shards and
// world both powers of two this assigns contiguous, subtree-aligned blocks
// (world > shards leaves high ranks empty-handed).
int shard_owner(int shard, int shards, int world);

// Micro-shards for one step of `items` items: shard_count(items) in a rank
// group, one shard over every item when `comm` is null (0 without work).
int step_shard_count(std::int64_t items, const Communicator* comm);

// Accumulates per-shard gradients of a fixed parameter list in the fixed
// shard-tree order, then allreduces the result across ranks. Usage per step:
//
//   ShardedGradReducer reducer(params_and_leaves, /*scalar_slots=*/1);
//   for (each owned shard s, ascending) {
//     zero all grads; build shard loss; backward;
//     reducer.add_shard({loss_value});
//   }
//   auto scalars = reducer.finish(comm);
//   ag::backward(weight_graphs, leaf_grads);  // replicated, when pinned
//   reducer.add_replicated(penalty_grads);
//   opt.step();
//
// finish() writes the reduced gradients into the parameters' .grad buffers
// (every parameter gets a grad, zero if nothing touched it) and returns the
// tree-reduced scalar block. A null `comm` (single-process run) skips the
// cross-rank allreduce. add_replicated() then adds a per-parameter flat
// addend that is identical on every rank (penalty gradients computed
// redundantly per rank) elementwise, after the cross-rank reduce, so it is
// counted once, not world_size times.
class ShardedGradReducer {
 public:
  ShardedGradReducer(std::vector<ag::Tensor> params, int scalar_slots);

  void add_shard(const std::vector<double>& scalars);
  std::vector<double> finish(Communicator* comm);
  // grad[i] += replicated[i] for the first replicated.size() parameters
  // (an empty entry adds nothing).
  void add_replicated(const std::vector<std::vector<float>>& replicated);

  // Flat copies of the params' current .grad buffers (zeros when absent) —
  // the shape add_replicated() expects.
  static std::vector<std::vector<float>> harvest_grads(
      std::vector<ag::Tensor>& params);

 private:
  struct Snapshot {
    int count = 0;  // number of shards merged into this node
    std::vector<std::vector<float>> buckets;
    std::vector<double> scalars;
  };

  Snapshot make_snapshot(const std::vector<double>& scalars, bool harvest = true);
  static void merge(Snapshot& left, const Snapshot& right);

  std::vector<ag::Tensor> params_;
  int scalar_slots_;
  std::vector<std::size_t> bucket_of_;     // param index -> bucket index
  std::vector<std::size_t> offset_of_;     // param index -> offset in bucket
  std::vector<std::size_t> bucket_elems_;  // bucket index -> element count
  std::vector<Snapshot> stack_;            // binary-counter merge stack
};

}  // namespace adept::comm
