#include "core/supermesh.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/version.h"
#include "core/dc_binarize.h"
#include "core/reparam.h"

namespace adept::core {

using ag::CxTensor;
using ag::Tensor;
using photonics::BlockSpec;
using photonics::Permutation;
using photonics::PtcTopology;

SuperMeshConfig SuperMeshConfig::from_bounds(int k, const FootprintConfig& footprint,
                                             int max_super_blocks_per_unitary) {
  const BlockBounds bounds = analytical_block_bounds(k, footprint);
  SuperMeshConfig config;
  config.k = k;
  config.super_blocks_per_unitary =
      std::clamp(bounds.b_max / 2, 1, max_super_blocks_per_unitary);
  config.always_on_per_unitary =
      std::clamp(bounds.b_min / 2, 0, config.super_blocks_per_unitary);
  return config;
}

SuperMesh::SuperMesh(const SuperMeshConfig& config, adept::Rng& rng)
    : config_(config) {
  if (config_.k <= 0 || config_.k % 2 != 0) {
    throw std::invalid_argument("SuperMesh: K must be positive and even");
  }
  if (config_.super_blocks_per_unitary <= 0) {
    throw std::invalid_argument("SuperMesh: need at least one super block");
  }
  u_ = make_unitary(rng);
  v_ = make_unitary(rng);
}

SuperMesh::UnitaryParams SuperMesh::make_unitary(adept::Rng& rng) const {
  UnitaryParams p;
  for (int b = 0; b < config_.super_blocks_per_unitary; ++b) {
    p.theta.push_back(Tensor::full({2}, static_cast<float>(config_.theta_init),
                                   /*requires_grad=*/true));
    const std::int64_t slots = photonics::dc_slots(config_.k, block_parity(b));
    std::vector<float> t_init(static_cast<std::size_t>(slots));
    for (auto& t : t_init) {
      t = static_cast<float>(rng.uniform(-config_.t_init_range, config_.t_init_range));
    }
    p.t_latent.push_back(ag::make_tensor(std::move(t_init), {slots}, true));
    p.p_raw.push_back(smoothed_identity_init(config_.k, /*requires_grad=*/true));
  }
  return p;
}

std::vector<Tensor> SuperMesh::arch_params() {
  std::vector<Tensor> out;
  for (auto* p : {&u_, &v_}) {
    for (auto& t : p->theta) out.push_back(t);
  }
  return out;
}

std::vector<Tensor> SuperMesh::topology_weights() {
  std::vector<Tensor> out;
  for (auto* p : {&u_, &v_}) {
    for (auto& t : p->t_latent) out.push_back(t);
    if (!perms_frozen_) {
      for (auto& t : p->p_raw) out.push_back(t);
    }
  }
  return out;
}

SuperMesh::StepState SuperMesh::make_step(const UnitaryParams& p, double tau,
                                          adept::Rng& rng, bool stochastic) const {
  StepState s;
  for (int b = 0; b < config_.super_blocks_per_unitary; ++b) {
    if (block_always_on(b)) {
      s.skip.push_back(Tensor::scalar(0.0f));
      s.select.push_back(Tensor::scalar(1.0f));
    } else {
      // Gumbel-Softmax over {skip, select} (Eq. 7).
      Tensor logits = ag::reshape(p.theta[static_cast<std::size_t>(b)], {1, 2});
      if (stochastic) {
        std::vector<float> g = {static_cast<float>(rng.gumbel()),
                                static_cast<float>(rng.gumbel())};
        logits = ag::add(logits, ag::make_tensor(std::move(g), {1, 2}, false));
      }
      Tensor m = ag::softmax_rows(ag::mul_scalar(logits, static_cast<float>(1.0 / tau)));
      s.skip.push_back(ag::index(m, 0));
      s.select.push_back(ag::index(m, 1));
    }
    // Reparametrized permutation (constant pass-through once frozen).
    const Tensor& raw = p.p_raw[static_cast<std::size_t>(b)];
    s.p_tilde.push_back(perms_frozen_ ? raw
                                      : reparametrize_permutation(raw, config_.proj_eps));
    // Quantized coupler column.
    Tensor tq = dc_quantize(p.t_latent[static_cast<std::size_t>(b)]);
    s.t_quantized.push_back(tq);
    s.coupler_mat.push_back(ag::coupler_column(tq, config_.k, block_parity(b)));
  }
  return s;
}

void SuperMesh::begin_step(double tau, adept::Rng& rng, bool stochastic) {
  step_u_ = make_step(u_, tau, rng, stochastic);
  step_v_ = make_step(v_, tau, rng, stochastic);
  step_ready_ = true;
  ++step_count_;
  // Parameters move once per optimization step (between begin_step calls),
  // so the hard footprint counts cached for the previous step are stale now,
  // and so is any materialized weight built from the old step expressions.
  invalidate_footprint_cache();
  adept::bump_param_version();
}

void SuperMesh::open_weight_pins() {
  ag::check(step_ready_, "open_weight_pins: call begin_step first");
  pins_.clear();
  pins_step_ = step_count_;
}

void SuperMesh::close_weight_pins() { pins_step_ = 0; }

void SuperMesh::release_weight_pins() {
  pins_.clear();
  pins_step_ = 0;
}

bool SuperMesh::weight_pins_open() const {
  return step_ready_ && pins_step_ == step_count_;
}

const std::vector<SuperMesh::WeightPin>& SuperMesh::weight_pins() const {
  static const std::vector<WeightPin> none;
  return weight_pins_open() ? pins_ : none;
}

Tensor SuperMesh::pin_weight(const void* owner, Tensor graph) {
  ag::check(weight_pins_open(), "pin_weight: no pins open for this step");
  ag::check(!pinned_weight(owner).defined(),
            "pin_weight: this owner is already pinned for this step");
  Tensor leaf = ag::make_tensor(graph.data(), graph.shape(), /*requires_grad=*/true);
  pins_.push_back({owner, std::move(graph), leaf});
  return leaf;
}

Tensor SuperMesh::pinned_weight(const void* owner) const {
  if (!weight_pins_open()) return {};
  for (const auto& pin : pins_) {
    if (pin.owner == owner) return pin.leaf;
  }
  return {};
}

const SuperMesh::StepState& SuperMesh::step_exprs(Side side) const {
  ag::check(step_ready_, "SuperMesh: call begin_step first");
  return side == Side::u ? step_u_ : step_v_;
}

CxTensor SuperMesh::tile_unitary_batched(
    Side side, const std::vector<Tensor>& phase_stacks) const {
  const StepState& s = step_exprs(side);
  const int nb = config_.super_blocks_per_unitary;
  ag::check(static_cast<int>(phase_stacks.size()) == nb,
            "tile_unitary_batched: need one [T,K] phase stack per block");
  const std::int64_t k = config_.k;
  ag::check(!phase_stacks.empty() && phase_stacks[0].ndim() == 2 &&
                phase_stacks[0].dim(1) == k,
            "tile_unitary_batched: phase stacks must be [T,K]");
  const std::int64_t tiles = phase_stacks[0].dim(0);
  // The chain seeds from ONE shared identity (bcmatmul broadcasts a 2-D
  // right operand).
  CxTensor acc = CxTensor::eye(k);
  for (int b = 0; b < nb; ++b) {
    CxTensor block =
        ag::bblock_transfer(s.p_tilde[static_cast<std::size_t>(b)],
                            s.coupler_mat[static_cast<std::size_t>(b)],
                            phase_stacks[static_cast<std::size_t>(b)]);
    ag::check(block.dim(0) == tiles,
              "tile_unitary_batched: phase stacks disagree on tile count");
    CxTensor mixed =
        block_always_on(b)
            ? block
            : ag::bcmix_identity(s.skip[static_cast<std::size_t>(b)],
                                 s.select[static_cast<std::size_t>(b)], block);
    acc = ag::bcmatmul(mixed, acc);
  }
  if (config_.normalize_unitaries && !perms_frozen_) {
    acc = side == Side::u ? ag::brow_normalize(acc) : ag::bcol_normalize(acc);
  }
  return acc;
}

std::vector<Tensor> SuperMesh::all_relaxed_perms() const {
  ag::check(step_ready_, "all_relaxed_perms: call begin_step first");
  std::vector<Tensor> out;
  for (const auto* s : {&step_u_, &step_v_}) {
    for (const auto& p : s->p_tilde) out.push_back(p);
  }
  return out;
}

double SuperMesh::select_probability(Side side, int b) const {
  if (block_always_on(b)) return 1.0;
  const auto& theta = params(side).theta[static_cast<std::size_t>(b)].data();
  const double e0 = std::exp(static_cast<double>(theta[0]));
  const double e1 = std::exp(static_cast<double>(theta[1]));
  return e1 / (e0 + e1);
}

Tensor SuperMesh::footprint_penalty_expr(const FootprintConfig& config) const {
  Tensor expected_proxy = Tensor::scalar(0.0f);
  for (Side side : {Side::u, Side::v}) {
    const StepState& s = step_exprs(side);
    for (int b = 0; b < config_.super_blocks_per_unitary; ++b) {
      Tensor f_block =
          block_footprint_proxy(config_.k, s.t_quantized[static_cast<std::size_t>(b)],
                                s.p_tilde[static_cast<std::size_t>(b)], config);
      expected_proxy = ag::add(
          expected_proxy, ag::mul(s.select[static_cast<std::size_t>(b)], f_block));
    }
  }
  return footprint_penalty(expected_proxy, expected_footprint(config.pdk), config);
}

void SuperMesh::invalidate_footprint_cache() const {
  for (auto& side : block_counts_) {
    for (auto& c : side) c.valid = false;
  }
}

const SuperMesh::BlockCounts& SuperMesh::cached_block_counts(Side side, int b,
                                                             adept::Rng& rng) const {
  auto& cache = block_counts_[side == Side::u ? 0 : 1];
  if (cache.empty()) {
    cache.resize(static_cast<std::size_t>(config_.super_blocks_per_unitary));
  }
  BlockCounts& entry = cache[static_cast<std::size_t>(b)];
  if (!entry.valid) {
    const auto& p = params(side);
    entry.dc = static_cast<double>(
        dc_count_hard(p.t_latent[static_cast<std::size_t>(b)]));
    // The expensive part: reconstructing + SPL-legalizing the permutation to
    // count crossings. Cached until the next parameter step.
    const Permutation perm = block_permutation(side, b, rng);
    entry.cr = static_cast<double>(photonics::crossing_count(perm));
    entry.valid = true;
  }
  return entry;
}

double SuperMesh::hard_block_footprint(Side side, int b, const photonics::Pdk& pdk,
                                       adept::Rng& rng) const {
  const BlockCounts& counts = cached_block_counts(side, b, rng);
  return static_cast<double>(config_.k) * ps_area_k(pdk) +
         counts.dc * dc_area_k(pdk) + counts.cr * cr_area_k(pdk);
}

double SuperMesh::expected_footprint(const photonics::Pdk& pdk) const {
  // Noise-free expectation over block selection; hard device counts.
  adept::Rng rng(0x5eed);  // only consulted when a perm needs legalization
  double total = 0.0;
  for (Side side : {Side::u, Side::v}) {
    for (int b = 0; b < config_.super_blocks_per_unitary; ++b) {
      total += select_probability(side, b) * hard_block_footprint(side, b, pdk, rng);
    }
  }
  return total;
}

Permutation SuperMesh::block_permutation(Side side, int b, adept::Rng& rng) const {
  const Tensor& raw = params(side).p_raw[static_cast<std::size_t>(b)];
  const std::int64_t k = config_.k;
  photonics::RMat m(k, k);
  const auto& d = raw.data();
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < k; ++j) {
      m.at(i, j) = d[static_cast<std::size_t>(i * k + j)];
    }
  }
  Permutation perm;
  if (perms_frozen_ && photonics::permutation_from_matrix(m, 1e-3, &perm)) {
    return perm;
  }
  // Pre-legalization estimate: reparametrize (without grad) then SPL.
  ag::NoGradGuard guard;
  Tensor p_tilde = reparametrize_permutation(raw, config_.proj_eps);
  return stochastic_permutation_legalization(p_tilde, rng);
}

void SuperMesh::legalize_permutations(adept::Rng& rng, const SplConfig& spl) {
  for (auto* p : {&u_, &v_}) {
    for (auto& raw : p->p_raw) {
      ag::NoGradGuard guard;
      Tensor p_tilde = reparametrize_permutation(raw, config_.proj_eps);
      const Permutation legal = stochastic_permutation_legalization(p_tilde, rng, spl);
      const std::int64_t k = config_.k;
      std::vector<float> hard(static_cast<std::size_t>(k * k), 0.0f);
      for (int i = 0; i < k; ++i) {
        hard[static_cast<std::size_t>(i * k + legal(i))] = 1.0f;
      }
      raw = ag::make_tensor(std::move(hard), {k, k}, /*requires_grad=*/false);
    }
  }
  perms_frozen_ = true;
  step_ready_ = false;  // cached expressions refer to the old parameters
  pins_.clear();
  invalidate_footprint_cache();
  adept::bump_param_version();
}

PtcTopology SuperMesh::sample_topology(adept::Rng& rng, const photonics::Pdk& pdk,
                                       double f_min, double f_max, int max_tries,
                                       const std::string& name) const {
  auto build = [&](const std::vector<std::vector<bool>>& selected) {
    PtcTopology topo;
    topo.k = config_.k;
    topo.name = name;
    int side_idx = 0;
    for (Side side : {Side::u, Side::v}) {
      auto& blocks = side_idx == 0 ? topo.u_blocks : topo.v_blocks;
      for (int b = 0; b < config_.super_blocks_per_unitary; ++b) {
        if (!selected[static_cast<std::size_t>(side_idx)][static_cast<std::size_t>(b)]) {
          continue;
        }
        BlockSpec spec;
        spec.start = block_parity(b);
        const auto& t = params(side).t_latent[static_cast<std::size_t>(b)].data();
        spec.dc_mask.resize(t.size());
        for (std::size_t s = 0; s < t.size(); ++s) spec.dc_mask[s] = t[s] < 0.0f;
        spec.perm = block_permutation(side, b, rng);
        blocks.push_back(std::move(spec));
      }
      ++side_idx;
    }
    return topo;
  };

  PtcTopology best;
  double best_distance = std::numeric_limits<double>::infinity();
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    std::vector<std::vector<bool>> selected(2);
    int side_idx = 0;
    for (Side side : {Side::u, Side::v}) {
      auto& sel = selected[static_cast<std::size_t>(side_idx)];
      sel.resize(static_cast<std::size_t>(config_.super_blocks_per_unitary));
      for (int b = 0; b < config_.super_blocks_per_unitary; ++b) {
        sel[static_cast<std::size_t>(b)] =
            block_always_on(b) || rng.bernoulli(select_probability(side, b));
      }
      ++side_idx;
    }
    PtcTopology topo = build(selected);
    if (topo.u_blocks.empty() || topo.v_blocks.empty()) continue;
    const double f = topo.footprint_um2(pdk) / 1000.0;
    if (f >= f_min && f <= f_max) return topo;
    const double distance = f < f_min ? f_min - f : f - f_max;
    if (distance < best_distance) {
      best_distance = distance;
      best = topo;
    }
  }
  if (best.u_blocks.empty()) {
    // Deterministic fallback: everything selected.
    std::vector<std::vector<bool>> all(
        2, std::vector<bool>(static_cast<std::size_t>(config_.super_blocks_per_unitary),
                             true));
    best = build(all);
  }
  return best;
}

}  // namespace adept::core
