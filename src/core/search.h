// Two-stage ADEPT SuperMesh search driver (paper Fig. 2, Sec. 3.3 / 4.1).
//
// Stage 1 (warmup): only SuperMesh weights (Sigma, Phi, T, P) train, with the
// ALM permutation penalty. Stage 2 (search): weight steps and architecture
// steps alternate at a 3:1 ratio; architecture steps update the block
// logits theta against the validation loss plus the footprint penalty. At
// the SPL epoch all relaxed permutations are legalized and frozen; training
// continues on the remaining parameters. Finally a SubMesh honoring the
// footprint constraint is sampled from the learned selection distribution.
//
// The task being optimized is abstracted behind ProxyTask so the same driver
// serves the built-in matrix-fitting proxy (tests and the quickstart,
// pdk_adaptation and serve examples) and the CNN proxy in src/nn (paper main
// results). The Fig. 5 ablation benches drive the ALM and footprint terms
// directly and use neither.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "autograd/tensor.h"
#include "comm/communicator.h"
#include "common/rng.h"
#include "core/alm.h"
#include "core/footprint.h"
#include "core/spl.h"
#include "core/supermesh.h"
#include "photonics/topology.h"

namespace adept::core {

// A differentiable training task driving the search. Implementations own the
// per-tile weights (phases Phi, diagonals Sigma, plus any classifier
// parameters) and build their loss through SuperMesh::tile_unitary_batched,
// per step and per item range (the shard API below). A task whose weights
// do not depend on the items (the CNN proxy) builds each of them once per
// step in begin_step_items and pins it on the mesh (SuperMesh::pin_weight);
// its shards then backprop into detached leaves, and the searcher carries
// the reduced leaf gradients through the pinned graphs once per rank.
class ProxyTask {
 public:
  virtual ~ProxyTask() = default;
  // Called once before training so the task can size its weights.
  virtual void bind(SuperMesh& mesh) = 0;
  // loss_shard over [0, begin_step_items(validation)): the whole loss of a
  // freshly pinned step, for tests and metrics. The search never calls it;
  // it is virtual only for forwarding wrappers. Outside the searcher no
  // weight pins are open, so its graph reaches every parameter.
  virtual ag::Tensor loss(SuperMesh& mesh, bool validation);
  // Task-owned trainable parameters.
  virtual std::vector<ag::Tensor> weights() = 0;
  // Optional scalar quality metric for traces (higher is better).
  virtual double metric(SuperMesh& mesh) { (void)mesh; return 0.0; }

  // ---- shard API: every search step goes through it ----
  // Every task shards; virtual only for forwarding wrappers.
  virtual bool supports_sharding() const { return true; }
  // Draw/pin this step's items — called exactly once per step on EVERY rank
  // (so any task-internal rng advances identically) — and return the item
  // count to shard over. `validation` picks the bilevel split (weights vs
  // architecture). It is also where a task pins the weights its shards
  // share, when the mesh has pins open (SuperMesh::weight_pins_open): a
  // rank that owns no shard still needs them for the replicated weight
  // backward.
  virtual std::int64_t begin_step_items(bool validation) = 0;
  // Loss over items [lo, hi) of the pinned step data, scaled by 1/items so
  // the shard losses of one step sum to the step's full (mean) loss.
  virtual ag::Tensor loss_shard(SuperMesh& mesh, bool validation,
                                std::int64_t lo, std::int64_t hi,
                                std::int64_t items) = 0;
  // Width of the per-shard auxiliary stat row (order-dependent state the
  // task must replay in shard order — BatchNorm running stats); 0 = none.
  virtual std::int64_t stat_slots() const { return 0; }
  // Write the stats captured by the latest loss_shard backward into `row`
  // (stat_slots() floats).
  virtual void capture_shard_stats(float* row) { (void)row; }
  // Replay `shards` gathered rows (stat_slots() floats each, shard-major,
  // identical bits on every rank) in ascending shard order.
  virtual void apply_step_stats(const float* rows, int shards) {
    (void)rows, (void)shards;
  }
};

struct SearchConfig {
  SuperMeshConfig mesh;          // if mesh.k == 0, derived from footprint bounds
  FootprintConfig footprint;
  AlmConfig alm;
  SplConfig spl;
  int epochs = 90;
  int warmup_epochs = 10;
  int spl_epoch = 50;
  int steps_per_epoch = 20;
  int weight_steps_per_arch_step = 3;  // paper: 3:1
  double lr_weights = 1e-3;
  double lr_arch = 1e-3;
  double weight_decay_weights = 1e-4;  // on Phi and Sigma
  double weight_decay_arch = 5e-4;     // on theta
  double tau_start = 5.0;              // Gumbel temperature schedule
  double tau_end = 0.5;
  int max_super_blocks_per_unitary = 16;  // tractability cap on B_max/2
  std::uint64_t seed = 42;
};

// Per-step values of a search run, one entry per step: the quantities paper
// Fig. 5 plots (ALM multiplier, permutation error, expected footprint).
struct SearchTrace {
  std::vector<double> task_loss;
  std::vector<double> alm_lambda;         // mean multiplier
  std::vector<double> alm_rho;
  std::vector<double> permutation_error;  // mean l1-l2 gap
  std::vector<double> expected_footprint; // E[F] in k-um^2
  std::vector<double> footprint_penalty;  // L_F value
};

struct SearchResult {
  photonics::PtcTopology topology;
  SearchTrace trace;
  double final_metric = 0.0;
};

class AdeptSearcher {
 public:
  AdeptSearcher(const SearchConfig& config, ProxyTask& task);

  // One step body, in order: a backward for the ALM + footprint penalties;
  // begin_step_items with the mesh's weight pins open; a backward per owned
  // loss_shard into the parameters and the pinned leaves, combined in the
  // fixed tree of comm/sharded.h; one backward from the reduced leaf grads
  // through the pinned weight graphs, the same on every rank; the penalty
  // grads added; the optimizer step.
  //   comm == nullptr: world 1, rank 0, one shard over all of a step's
  //     items, no collective.
  //   comm != nullptr: comm::shard_count(items) micro-shards per step,
  //     allreduced right before the optimizer steps. Each rank owns an
  //     AdeptSearcher + task replica built from the same config/seed (see
  //     run_search_data_parallel). Bit-identical at any world size in
  //     {1, 2, 4, 8}, and to the nullptr run when every step has one item.
  SearchResult run(comm::Communicator* comm = nullptr);
  SuperMesh& mesh() { return *mesh_; }
  const SearchConfig& config() const { return config_; }

 private:
  SearchConfig config_;
  ProxyTask& task_;
  std::unique_ptr<SuperMesh> mesh_;
  adept::Rng rng_;
};

// Search entry point. When comm::use_rank_group(ranks) holds it spawns
// comm::resolve_ranks(ranks) in-process rank threads, builds one task
// replica per rank with `make_task` (replicas must be deterministic
// functions of their construction — same datasets, same seeds), and returns
// rank 0's result; otherwise it runs the one-shard search on the calling
// thread. An explicit ranks = 1 gives the data-parallel numerics on one rank.
SearchResult run_search_data_parallel(
    const SearchConfig& config,
    const std::function<std::unique_ptr<ProxyTask>()>& make_task,
    int ranks = 0);

// Built-in proxy: fit a bank of random target matrices with W = U Sigma V
// (real part), loss = mean squared error. Exercises the full search stack
// without the NN substrate; used by tests and the quickstart,
// pdk_adaptation and serve examples. A shard builds all of its tiles'
// unitaries in one batched chain per side.
class MatrixFitTask : public ProxyTask {
 public:
  MatrixFitTask(int tiles, std::uint64_t seed);
  void bind(SuperMesh& mesh) override;
  std::vector<ag::Tensor> weights() override;
  double metric(SuperMesh& mesh) override;  // negative MSE

  // Tiles are the shard items.
  std::int64_t begin_step_items(bool validation) override {
    (void)validation;
    return tiles_;
  }
  ag::Tensor loss_shard(SuperMesh& mesh, bool validation, std::int64_t lo,
                        std::int64_t hi, std::int64_t items) override;

 private:
  int tiles_;
  adept::Rng rng_;
  ag::Tensor targets_;                // [T*K,K] constant, tile t in rows t*K..
  std::vector<ag::Tensor> phi_u_;     // [block] -> [T,K]
  std::vector<ag::Tensor> phi_v_;
  ag::Tensor sigma_;                  // [T,K]
};

}  // namespace adept::core
