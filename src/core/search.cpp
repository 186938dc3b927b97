#include "core/search.h"

#include <cmath>
#include <numbers>

#include "comm/sharded.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/optimizer.h"
#include "optim/schedule.h"

namespace adept::core {

using ag::CxTensor;
using ag::Tensor;

AdeptSearcher::AdeptSearcher(const SearchConfig& config, ProxyTask& task)
    : config_(config), task_(task), rng_(config.seed) {
  SuperMeshConfig mesh_config = config_.mesh;
  if (mesh_config.super_blocks_per_unitary == 0) {
    // Depth bounds not given explicitly: derive B_max/B_min from the
    // footprint constraint (Eq. 16).
    mesh_config = SuperMeshConfig::from_bounds(config_.mesh.k, config_.footprint,
                                               config_.max_super_blocks_per_unitary);
  }
  mesh_ = std::make_unique<SuperMesh>(mesh_config, rng_);
  config_.mesh = mesh_config;
  task_.bind(*mesh_);
}

SearchResult AdeptSearcher::run(comm::Communicator* comm) {
  // Without a communicator the step body runs as world 1, rank 0.
  const int rank = comm != nullptr ? comm->rank() : 0;
  const int world = comm != nullptr ? comm->world_size() : 1;
  SearchResult result;
  const int total_steps = config_.epochs * config_.steps_per_epoch;
  const int spl_step = config_.spl_epoch * config_.steps_per_epoch;

  // Search telemetry (docs/observability.md): per-step wall time, step and
  // phase spans on every rank (per-rank skew shows in the trace), loss/penalty
  // gauges tracking the latest step, and a counter for SPL legalizations.
  // Under data parallelism the traced values are rank-identical by the
  // bit-exactness contract, so rank 0's gauge writes equal every rank's.
  obs::Histogram& step_us = obs::histogram("search.step_us");
  obs::Gauge& g_task_loss = obs::gauge("search.task_loss");
  obs::Gauge& g_footprint_penalty = obs::gauge("search.footprint_penalty");
  obs::Counter& legalizations = obs::counter("search.legalize_count");
  static const obs::TraceId t_step = obs::intern_name("search.step");
  static const obs::TraceId t_mesh = obs::intern_name("search.mesh");
  static const obs::TraceId t_penalty = obs::intern_name("search.penalty");
  static const obs::TraceId t_weights = obs::intern_name("search.weights");
  static const obs::TraceId t_forward = obs::intern_name("search.forward");
  static const obs::TraceId t_backward = obs::intern_name("search.backward");
  static const obs::TraceId t_optimizer = obs::intern_name("search.optimizer");
  static const obs::TraceId t_weight_backward =
      obs::intern_name("search.weight_backward");
  static const obs::TraceId t_legalize = obs::intern_name("search.legalize");
  const bool telemetry_rank = rank == 0;

  AlmState alm(static_cast<std::size_t>(mesh_->total_blocks()), config_.mesh.k,
               config_.alm);
  alm.set_horizon(spl_step);

  auto weight_params = [&]() {
    std::vector<Tensor> params = mesh_->topology_weights();
    for (auto& w : task_.weights()) params.push_back(w);
    return params;
  };
  // Every differentiable leaf a loss graph can touch. A step runs several
  // backward passes (the replicated penalties, then one per owned shard), so
  // grads must be wiped between passes on ALL leaves, not just the stepped
  // optimizer's.
  auto all_params = [&]() {
    std::vector<Tensor> params = weight_params();
    for (auto& a : mesh_->arch_params()) params.push_back(a);
    return params;
  };
  auto weight_opt = std::make_unique<optim::Adam>(
      weight_params(), config_.lr_weights, 0.9, 0.999, 1e-8,
      config_.weight_decay_weights);
  optim::Adam arch_opt(mesh_->arch_params(), config_.lr_arch, 0.9, 0.999, 1e-8,
                       config_.weight_decay_arch);

  optim::CosineLr lr_schedule(config_.lr_weights, total_steps);
  optim::ExponentialDecay tau_schedule(config_.tau_start, config_.tau_end, total_steps);

  int cycle = 0;
  for (int step = 0; step < total_steps; ++step) {
    // Histogram entries on rank 0 only, so count == steps regardless of
    // world size; spans on every rank.
    obs::TraceSpan step_span(t_step);
    obs::ScopedTimerUs step_timer(telemetry_rank ? &step_us : nullptr);
    const int epoch = step / config_.steps_per_epoch;
    const double tau = tau_schedule.at(step);
    weight_opt->set_lr(lr_schedule.at(step));

    // SPL: legalize and freeze permutations, rebuild the weight optimizer
    // without them (paper: epoch 50 of 90).
    if (step == spl_step && !mesh_->permutations_frozen()) {
      obs::TraceSpan legalize_span(t_legalize);
      if (telemetry_rank) legalizations.inc();
      mesh_->legalize_permutations(rng_, config_.spl);
      weight_opt = std::make_unique<optim::Adam>(
          weight_params(), lr_schedule.at(step), 0.9, 0.999, 1e-8,
          config_.weight_decay_weights);
    }

    const bool warmup = epoch < config_.warmup_epochs;
    const bool arch_step =
        !warmup && (cycle++ % (config_.weight_steps_per_arch_step + 1) ==
                    config_.weight_steps_per_arch_step);

    {
      obs::TraceSpan mesh_span(t_mesh);
      mesh_->begin_step(tau, rng_, /*stochastic=*/true);
    }

    // The ALM + footprint penalty gradients are replicated (identical on
    // every rank): computed in their own pass before the task's, and added
    // exactly once after the reduce and the weight backward.
    optim::Adam& opt = arch_step ? arch_opt : *weight_opt;
    std::vector<Tensor> leaves = all_params();
    std::vector<Tensor> perms;
    Tensor penalty;
    std::vector<std::vector<float>> penalty_grads;
    {
      obs::TraceSpan penalty_span(t_penalty);
      for (auto& p : leaves) p.zero_grad();
      penalty = mesh_->footprint_penalty_expr(config_.footprint);
      Tensor extra = Tensor::scalar(0.0f);
      bool have_extra = false;
      if (!mesh_->permutations_frozen()) {
        perms = mesh_->all_relaxed_perms();
        extra = ag::add(extra, alm.penalty(perms));
        have_extra = true;
      }
      if (!warmup) {
        extra = ag::add(extra, penalty);
        have_extra = true;
      }
      if (have_extra) extra.backward();
      std::vector<Tensor> opt_params = opt.params();
      penalty_grads = comm::ShardedGradReducer::harvest_grads(opt_params);
      // E[F] before the optimizer mutates parameters: the value describes
      // the same parameters as task_loss/penalty (and reads the block-count
      // cache footprint_penalty_expr just filled).
      result.trace.expected_footprint.push_back(
          mesh_->expected_footprint(config_.footprint.pdk));
    }

    // The task pins the step's items and builds the weights its shards
    // share, once per rank (SuperMesh::pin_weight). Task gradients come from
    // one backward per owned shard into the parameters and the pinned
    // leaves, combined across shards (and ranks) in the fixed tree order of
    // comm/sharded.h.
    std::int64_t items = 0;
    {
      obs::TraceSpan weights_span(t_weights);
      mesh_->open_weight_pins();
      items = task_.begin_step_items(arch_step);
    }
    std::vector<Tensor> reduced = opt.params();
    std::vector<Tensor> weight_graphs;
    std::vector<Tensor> weight_leaves;
    for (const auto& pin : mesh_->weight_pins()) {
      weight_graphs.push_back(pin.graph);
      weight_leaves.push_back(pin.leaf);
      reduced.push_back(pin.leaf);
      leaves.push_back(pin.leaf);
    }
    const int shards = comm::step_shard_count(items, comm);
    comm::ShardedGradReducer reducer(std::move(reduced), /*scalar_slots=*/1);
    const std::int64_t stat_cols = task_.stat_slots();
    std::vector<float> stat_rows(
        static_cast<std::size_t>(shards) * static_cast<std::size_t>(stat_cols),
        0.0f);
    for (int s = 0; s < shards; ++s) {
      if (comm::shard_owner(s, shards, world) != rank) continue;
      Tensor shard_loss;
      {
        obs::TraceSpan forward_span(t_forward);
        for (auto& p : leaves) p.zero_grad();
        const auto range = comm::shard_range(items, s, shards);
        shard_loss =
            task_.loss_shard(*mesh_, arch_step, range.lo, range.hi, items);
      }
      obs::TraceSpan backward_span(t_backward);
      shard_loss.backward();
      reducer.add_shard({static_cast<double>(shard_loss.item())});
      if (stat_cols > 0) {
        task_.capture_shard_stats(stat_rows.data() +
                                  static_cast<std::size_t>(s) *
                                      static_cast<std::size_t>(stat_cols));
      }
    }

    std::vector<double> reduced_scalars;
    {
      obs::TraceSpan optimizer_span(t_optimizer);
      // Task grads reduced across shards and ranks; then, on every rank, one
      // backward from the reduced leaf grads through the pinned weight
      // graphs (roots in build order); penalty grads added last.
      reduced_scalars = reducer.finish(comm);
      {
        obs::TraceSpan weight_backward_span(t_weight_backward);
        std::vector<const std::vector<float>*> seeds;
        for (auto& leaf : weight_leaves) seeds.push_back(&leaf.grad());
        ag::backward(weight_graphs, seeds);
        mesh_->close_weight_pins();
      }
      reducer.add_replicated(penalty_grads);
      opt.step();
      if (!arch_step && !mesh_->permutations_frozen()) alm.update(perms);

      if (stat_cols > 0) {
        // Zero-filled except each owner's rows, so the sum IS the gather;
        // every rank then replays the same bits in shard order.
        if (comm != nullptr) {
          comm->allreduce_sum(stat_rows.data(),
                              static_cast<std::int64_t>(stat_rows.size()));
        }
        task_.apply_step_stats(stat_rows.data(), shards);
      }
    }

    result.trace.task_loss.push_back(
        reduced_scalars.empty() ? 0.0 : reduced_scalars[0]);
    result.trace.alm_lambda.push_back(alm.mean_lambda());
    result.trace.alm_rho.push_back(alm.rho());
    result.trace.permutation_error.push_back(
        perms.empty() ? 0.0 : alm.permutation_error(perms));
    result.trace.footprint_penalty.push_back(penalty.item());
    if (telemetry_rank) {
      g_task_loss.set(result.trace.task_loss.back());
      g_footprint_penalty.set(result.trace.footprint_penalty.back());
    }
  }

  mesh_->release_weight_pins();
  if (!mesh_->permutations_frozen()) {
    obs::TraceSpan legalize_span(t_legalize);
    if (telemetry_rank) legalizations.inc();
    mesh_->legalize_permutations(rng_, config_.spl);
  }
  result.topology = mesh_->sample_topology(rng_, config_.footprint.pdk,
                                           config_.footprint.f_min,
                                           config_.footprint.f_max);
  result.final_metric = task_.metric(*mesh_);
  return result;
}

Tensor ProxyTask::loss(SuperMesh& mesh, bool validation) {
  const std::int64_t items = begin_step_items(validation);
  return loss_shard(mesh, validation, 0, items, items);
}

MatrixFitTask::MatrixFitTask(int tiles, std::uint64_t seed)
    : tiles_(tiles), rng_(seed) {}

void MatrixFitTask::bind(SuperMesh& mesh) {
  const std::int64_t k = mesh.k(), tiles = tiles_;
  const std::size_t kz = static_cast<std::size_t>(k), tz = static_cast<std::size_t>(tiles);
  const std::size_t nb = static_cast<std::size_t>(mesh.blocks_per_unitary());
  std::vector<float> target(tz * kz * kz);
  std::vector<std::vector<float>> pu(nb, std::vector<float>(tz * kz)), pv = pu;
  // Tile-major draws: tile t's target, then its U phases block by block,
  // then its V phases.
  for (std::size_t t = 0; t < tz; ++t) {
    // Orthogonal-ish random targets keep the fit well-scaled.
    for (std::size_t i = 0; i < kz * kz; ++i) {
      target[t * kz * kz + i] = static_cast<float>(
          rng_.normal(0.0, 1.0 / std::sqrt(static_cast<double>(k))));
    }
    for (auto* side : {&pu, &pv}) {
      for (auto& s : *side) {
        for (std::size_t i = 0; i < kz; ++i) {
          s[t * kz + i] = static_cast<float>(
              rng_.uniform(-std::numbers::pi, std::numbers::pi));
        }
      }
    }
  }
  targets_ = ag::make_tensor(std::move(target), {tiles * k, k}, false);
  phi_u_.clear();
  phi_v_.clear();
  for (auto& s : pu) phi_u_.push_back(ag::make_tensor(std::move(s), {tiles, k}, true));
  for (auto& s : pv) phi_v_.push_back(ag::make_tensor(std::move(s), {tiles, k}, true));
  sigma_ = Tensor::full({tiles, k}, 1.0f, /*requires_grad=*/true);
}

Tensor MatrixFitTask::loss_shard(SuperMesh& mesh, bool validation,
                                 std::int64_t lo, std::int64_t hi,
                                 std::int64_t items) {
  (void)validation;  // same targets for both splits in the synthetic proxy
  const std::int64_t k = mesh.k();
  const std::int64_t n = hi - lo;
  auto rows = [&](const std::vector<Tensor>& stacks) {
    std::vector<Tensor> out;
    out.reserve(stacks.size());
    for (const auto& s : stacks) out.push_back(ag::slice2d(s, lo, n, 0, k));
    return out;
  };
  CxTensor u = mesh.tile_unitary_batched(Side::u, rows(phi_u_));
  CxTensor v = mesh.tile_unitary_batched(Side::v, rows(phi_v_));
  // U * diag(sigma) is a column scaling — no materialized diagonal/gemm.
  CxTensor w = ag::bcmatmul(ag::bcscale_cols(u, ag::slice2d(sigma_, lo, n, 0, k)), v);
  Tensor sq = ag::square(ag::sub(ag::reshape(w.re, {n * k, k}),
                                 ag::slice2d(targets_, lo * k, n * k, 0, k)));
  // Per-tile MSE terms, added in ascending tile order.
  Tensor total = Tensor::scalar(0.0f);
  for (std::int64_t t = 0; t < n; ++t) {
    total = ag::add(total, ag::mean(ag::slice2d(sq, t * k, k, 0, k)));
  }
  return ag::mul_scalar(total, 1.0f / static_cast<float>(items));
}

std::vector<Tensor> MatrixFitTask::weights() {
  std::vector<Tensor> out = phi_u_;
  out.insert(out.end(), phi_v_.begin(), phi_v_.end());
  out.push_back(sigma_);
  return out;
}

double MatrixFitTask::metric(SuperMesh& mesh) {
  ag::NoGradGuard guard;
  adept::Rng eval_rng(7);
  mesh.begin_step(/*tau=*/0.5, eval_rng, /*stochastic=*/false);
  return -static_cast<double>(loss(mesh, true).item());
}

SearchResult run_search_data_parallel(
    const SearchConfig& config,
    const std::function<std::unique_ptr<ProxyTask>()>& make_task, int ranks) {
  if (!comm::use_rank_group(ranks)) {
    std::unique_ptr<ProxyTask> task = make_task();
    return AdeptSearcher(config, *task).run();
  }
  SearchResult out;
  comm::run_ranks(comm::resolve_ranks(ranks), [&](comm::Communicator& c) {
    // Each rank replays the identical deterministic construction; only the
    // shard ownership inside run() differs across ranks.
    std::unique_ptr<ProxyTask> task = make_task();
    AdeptSearcher searcher(config, *task);
    SearchResult r = searcher.run(&c);
    if (c.rank() == 0) out = std::move(r);
  });
  return out;
}

}  // namespace adept::core
