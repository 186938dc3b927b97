// Optical neural-network layers: Linear / Conv2d whose weight matrix is
// physically realized by photonic tensor cores.
//
// A logical weight W [out, in] is partitioned into ceil(out/K) x ceil(in/K)
// tiles of K x K (paper Eq. 1). Every tile is W_pq = U_pq Sigma_pq V_pq
// where U/V share one circuit *topology* across all tiles but carry
// tile-private phase programs Phi and diagonal Sigma. The realized weight is
// the real part of the complex transfer (coherent detection).
//
// Three interchangeable weight implementations:
//   dense      plain trainable matrix: the electronic reference, and the
//              only dense Linear / Conv2d in nn/
//   ptc        a frozen PtcTopology (searched design or MZI/FFT baseline);
//              supports Gaussian phase-noise injection for variation-aware
//              training and robustness evaluation (Fig. 4)
//   supermesh  a live core::SuperMesh being searched (ADEPT training); the
//              caller drives SuperMesh::begin_step once per optimization step
//
// Phases are stored as per-block [T,K] stacks (T = tile count), so all
// tiles advance through each block of the U/V chains as ONE batched tape
// node (bblock_transfer / bcolphase_scale / bcmatmul). Under NoGradGuard
// with noise disabled, the materialized [out,in] weight is cached and keyed
// on adept::param_version() — evaluation loops rebuild the mesh once per
// parameter change instead of once per batch. A search step builds each
// supermesh weight once and pins it on the mesh, so its micro-shard
// forwards share one graph (core::SuperMesh::pin_weight).
#pragma once

#include <memory>
#include <shared_mutex>

#include "autograd/complex.h"
#include "common/rng.h"
#include "core/supermesh.h"
#include "nn/module.h"
#include "photonics/topology.h"

namespace adept::nn {

struct PtcBinding {
  enum class Kind { dense, ptc, supermesh };
  Kind kind = Kind::dense;
  int k = 8;  // tile size (ignored for dense)
  std::shared_ptr<const photonics::PtcTopology> topology;  // for Kind::ptc
  core::SuperMesh* supermesh = nullptr;                    // for Kind::supermesh

  static PtcBinding dense();
  static PtcBinding fixed(std::shared_ptr<const photonics::PtcTopology> topo);
  static PtcBinding searched(core::SuperMesh* mesh);
};

// Snapshot of a layer's phase-noise configuration INCLUDING the drift
// stream position. Evaluation helpers push/pop this so a nominal eval in
// the middle of variation-aware training neither resets nor advances the
// training noise stream.
struct PhaseNoiseState {
  double sigma = 0.0;
  adept::Rng rng;
};

// Builds the blocked weight expression for one logical weight matrix.
class PtcWeight {
 public:
  PtcWeight(std::int64_t out_features, std::int64_t in_features,
            const PtcBinding& binding, adept::Rng& rng);

  // Weight expression [out, in] for the current step: one tape node per
  // chain stage for all tiles. A supermesh weight pinned for the step
  // (pin_step_weight) returns its detached leaf. Otherwise it is rebuilt
  // per forward while gradients are tracked, and cached per
  // parameter/noise version under NoGradGuard with noise off.
  ag::Tensor weight_expr();
  std::vector<ag::Tensor> parameters();
  // Builds a supermesh weight once for a step whose pins the searcher
  // opened (core::SuperMesh::open_weight_pins) and registers it with the
  // mesh. A no-op for other bindings and when no pins are open.
  void pin_step_weight();

  // Gaussian phase drift injected into every phase shifter on each forward
  // (0 disables). Re-arms the drift stream from `seed`. Applies to
  // Kind::ptc only.
  void set_phase_noise(double sigma, std::uint64_t seed);
  // Change sigma WITHOUT touching the stored drift stream (push/pop
  // support for nominal evaluations).
  void set_phase_noise_sigma(double sigma);
  PhaseNoiseState phase_noise_state() const { return {noise_sigma_, noise_rng_}; }
  void restore_phase_noise(const PhaseNoiseState& state);
  double phase_noise() const { return noise_sigma_; }

  std::int64_t tile_rows() const { return p_; }
  std::int64_t tile_cols() const { return q_; }

  // ---- export hooks (checkpointing / compiled runtime) -------------------
  // Direct access to the stored parameter stacks. Writers that mutate the
  // returned tensors' data() buffers must call adept::bump_param_version().
  const PtcBinding& binding() const { return binding_; }
  std::vector<ag::Tensor>& phi_u() { return phi_u_; }
  std::vector<ag::Tensor>& phi_v() { return phi_v_; }
  ag::Tensor& sigma_stack() { return sigma_; }
  ag::Tensor& dense_weight() { return dense_weight_; }
  std::int64_t out_features() const { return out_; }
  std::int64_t in_features() const { return in_; }

 private:
  ag::Tensor build_weight();  // batched chain, no cache logic
  ag::CxTensor batched_fixed_unitary(const std::vector<ag::CxTensor>& pt_consts,
                                     const std::vector<ag::Tensor>& phase_stacks);

  std::int64_t out_, in_, p_, q_;
  PtcBinding binding_;
  double noise_sigma_ = 0.0;
  adept::Rng noise_rng_;

  // dense
  ag::Tensor dense_weight_;
  // ptc / supermesh: per-block [T,K] phase stacks (T = p_*q_ tiles) for U
  // and V, and the [T,K] Sigma stack.
  std::vector<ag::Tensor> phi_u_, phi_v_;  // [block] -> [T,K]
  ag::Tensor sigma_;                       // [T,K]
  // ptc: precomputed constant P*T complex matrices per block
  std::vector<ag::CxTensor> pt_u_, pt_v_;

  // Materialized eval-weight cache (see header comment). Concurrent no-grad
  // readers (the serving worker pool) share the cache: reads take the shared
  // lock, the first builder of a new version publishes under the exclusive
  // lock, and later builders of the same version discard their copy.
  mutable std::shared_mutex cache_mutex_;
  ag::Tensor cached_weight_;
  std::uint64_t cached_version_ = 0;
};

// Base for ONN layers exposing noise control (used by variation-aware
// training and noisy evaluation, see OnnModel::set_phase_noise).
class OnnLayer : public Module {
 public:
  virtual void set_phase_noise(double sigma, std::uint64_t seed) = 0;
  virtual void set_phase_noise_sigma(double sigma) = 0;
  virtual PhaseNoiseState phase_noise_state() const = 0;
  virtual void restore_phase_noise(const PhaseNoiseState& state) = 0;
  virtual PtcWeight& weight() = 0;
};

class ONNLinear : public OnnLayer {
 public:
  ONNLinear(std::int64_t in_features, std::int64_t out_features,
            const PtcBinding& binding, adept::Rng& rng, bool bias = true);
  ag::Tensor forward(const ag::Tensor& x) override;  // [N,in] -> [N,out]
  std::vector<ag::Tensor> parameters() override;
  void set_phase_noise(double sigma, std::uint64_t seed) override;
  void set_phase_noise_sigma(double sigma) override;
  PhaseNoiseState phase_noise_state() const override;
  void restore_phase_noise(const PhaseNoiseState& state) override;
  PtcWeight& weight() override { return weight_; }
  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  bool has_bias() const { return bias_.defined(); }
  ag::Tensor& bias() { return bias_; }

 private:
  std::int64_t in_, out_;
  PtcWeight weight_;
  ag::Tensor bias_;
};

class ONNConv2d : public OnnLayer {
 public:
  ONNConv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
            const PtcBinding& binding, adept::Rng& rng, std::int64_t stride = 1,
            std::int64_t pad = 0, bool bias = true);
  ag::Tensor forward(const ag::Tensor& x) override;  // [N,C,H,W]
  std::vector<ag::Tensor> parameters() override;
  void set_phase_noise(double sigma, std::uint64_t seed) override;
  void set_phase_noise_sigma(double sigma) override;
  PhaseNoiseState phase_noise_state() const override;
  void restore_phase_noise(const PhaseNoiseState& state) override;
  PtcWeight& weight() override { return weight_; }
  std::int64_t in_channels() const { return in_c_; }
  std::int64_t out_channels() const { return out_c_; }
  std::int64_t kernel() const { return k_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }
  bool has_bias() const { return bias_.defined(); }
  ag::Tensor& bias() { return bias_; }

 private:
  std::int64_t in_c_, out_c_, k_, stride_, pad_;
  PtcWeight weight_;  // logical [out_c, in_c*k*k]
  ag::Tensor bias_;
};

}  // namespace adept::nn
