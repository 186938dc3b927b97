#include "runtime/plan.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <ostream>

namespace adept::runtime {

namespace be = ::adept::backend;

namespace {

std::atomic<std::uint64_t> g_weight_pack_count{0};

// Target patch rows per int8 conv block: enough rows to keep the gemm's row
// parallelism fed while bounding the byte-gathered patch scratch to block *
// fan_in. Blocks split on sample boundaries (patch rows of one sample are
// independent), so every per-element operation sequence is identical to the
// unblocked pass. fp32 convs gather nothing and ignore the block.
constexpr std::int64_t kConvRowBlockTarget = 256;

bool elementwise(const PlanStep& s) {
  return s.kind == PlanStep::Kind::relu || s.kind == PlanStep::Kind::batchnorm;
}

}  // namespace

const char* plan_kind_name(PlanStep::Kind k) {
  switch (k) {
    case PlanStep::Kind::linear: return "linear";
    case PlanStep::Kind::conv: return "conv";
    case PlanStep::Kind::batchnorm: return "batchnorm";
    case PlanStep::Kind::relu: return "relu";
    case PlanStep::Kind::maxpool: return "maxpool";
    case PlanStep::Kind::avgpool: return "avgpool";
  }
  return "?";
}

void fuse_plan(std::vector<PlanStep>& steps) {
  // BatchNorm epilogue fusion: a standalone BN step directly after a conv
  // folds into the conv's store loop. The fused store evaluates exactly
  //   v = gemm + bias;  v = (v - mu)*invstd*gamma + beta;  relu?
  // — the same float expressions, in the same order, the two separate steps
  // evaluate — so it is bit-exact (NOT algebraic weight folding, which is
  // not). A conv that already clamps (relu_after) cannot absorb a BN: the
  // order would become conv-relu-BN vs the fused bias-BN-relu.
  std::vector<PlanStep> fused;
  fused.reserve(steps.size());
  for (PlanStep& s : steps) {
    if (s.kind == PlanStep::Kind::batchnorm && !fused.empty()) {
      PlanStep& p = fused.back();
      if (p.kind == PlanStep::Kind::conv && !p.relu_after && !p.bn_after) {
        p.bn_after = true;
        p.mu = std::move(s.mu);
        p.invstd = std::move(s.invstd);
        p.gamma = std::move(s.gamma);
        p.beta = std::move(s.beta);
        p.relu_after = s.relu_after;  // BN's folded ReLU rides along
        continue;
      }
    }
    fused.push_back(std::move(s));
  }
  steps = std::move(fused);
  for (PlanStep& s : steps) {
    if (s.kind == PlanStep::Kind::conv) s.conv_row_block = kConvRowBlockTarget;
  }
}

void quantize_plan(std::vector<PlanStep>& steps) {
  for (PlanStep& s : steps) {
    const std::int64_t k = s.gemm_k();
    const std::int64_t n = s.gemm_n();
    if (k <= 0 || n <= 0 || s.quantized) continue;
    s.wscale.assign(static_cast<std::size_t>(n), 0.0f);
    s.weight_s8.assign(static_cast<std::size_t>(k * n), 0);
    // Per-output-channel scale: wscale[j] = absmax(col j) / 127, so the
    // int8 image spans the full [-127, 127] range per channel regardless of
    // inter-channel magnitude spread. An all-zero column keeps scale 0 and
    // quantizes (and dequantizes) to exact zeros.
    for (std::int64_t j = 0; j < n; ++j) {
      float amax = 0.0f;
      for (std::int64_t i = 0; i < k; ++i) {
        amax = std::max(amax, std::fabs(s.weight[static_cast<std::size_t>(i * n + j)]));
      }
      s.wscale[static_cast<std::size_t>(j)] = amax / 127.0f;
      const float inv = amax > 0.0f ? 127.0f / amax : 0.0f;
      for (std::int64_t i = 0; i < k; ++i) {
        const long q = std::lrintf(s.weight[static_cast<std::size_t>(i * n + j)] * inv);
        s.weight_s8[static_cast<std::size_t>(i * n + j)] = static_cast<std::int8_t>(
            std::min<long>(127, std::max<long>(-127, q)));
      }
    }
    // Fold the fp32 bias and any BN epilogue fuse_plan attached into the
    // dequantize constants (see PlanStep::qscale). fuse_plan runs first, so
    // bn_after is already settled here.
    s.qscale.assign(static_cast<std::size_t>(n), 0.0f);
    s.qbias.assign(static_cast<std::size_t>(n), 0.0f);
    for (std::int64_t j = 0; j < n; ++j) {
      const std::size_t sj = static_cast<std::size_t>(j);
      const float b0 = s.bias.empty() ? 0.0f : s.bias[sj];
      if (s.bn_after) {
        const float aff = s.invstd[sj] * s.gamma[sj];
        s.qscale[sj] = s.wscale[sj] * aff;
        s.qbias[sj] = (b0 - s.mu[sj]) * aff + s.beta[sj];
      } else {
        s.qscale[sj] = s.wscale[sj];
        s.qbias[sj] = b0;
      }
    }
    s.quantized = true;
  }
}

std::vector<std::int64_t> assign_slots(std::vector<PlanStep>& steps,
                                       bool optimize,
                                       std::int64_t max_interm) {
  if (!optimize) {
    // Reference chain: two ping-pong buffers at the whole-plan high-water
    // mark (the shape PR 5 executed) — the baseline planned execution is
    // proven bit-identical against.
    std::vector<std::int64_t> sizes(steps.size() > 1 ? 2 : 0, max_interm);
    int prev = -1;
    bool use_a = true;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      steps[i].in_slot = prev;
      steps[i].in_place = false;
      if (i + 1 == steps.size()) {
        steps[i].out_slot = -1;
      } else {
        steps[i].out_slot = use_a ? 0 : 1;
        use_a = !use_a;
      }
      prev = steps[i].out_slot;
    }
    return sizes;
  }

  // Liveness over a linear chain: the only live value entering step i is
  // step i-1's output, so a slot is free the moment its consumer picks a
  // different destination. Greedy reuse from a free list, per-slot sizes at
  // the max of their assigned steps; elementwise steps run in place (never
  // inside the caller's const input buffer). The non-aliasing invariant —
  // no step writes a slot another live value still occupies — is exercised
  // by the freed-slot poisoning test in tests/test_plan.cpp.
  std::vector<std::int64_t> sizes;
  std::vector<int> free_slots;
  int prev = -1;  // slot holding the live input of the next step
  for (std::size_t i = 0; i < steps.size(); ++i) {
    PlanStep& s = steps[i];
    s.in_slot = prev;
    s.in_place = false;
    if (i + 1 == steps.size()) {
      s.out_slot = -1;  // the caller's output buffer
    } else if (elementwise(s) && prev >= 0) {
      s.in_place = true;
      s.out_slot = prev;
    } else {
      int slot;
      if (!free_slots.empty()) {
        slot = free_slots.back();
        free_slots.pop_back();
      } else {
        slot = static_cast<int>(sizes.size());
        sizes.push_back(0);
      }
      sizes[static_cast<std::size_t>(slot)] =
          std::max(sizes[static_cast<std::size_t>(slot)], s.out_numel);
      s.out_slot = slot;
      if (prev >= 0) free_slots.push_back(prev);  // input dies here
    }
    prev = s.out_slot;
  }
  return sizes;
}

void pack_plan(std::vector<PlanStep>& steps) {
  for (PlanStep& s : steps) {
    const std::int64_t k = s.gemm_k();
    const std::int64_t n = s.gemm_n();
    if (k <= 0 || n <= 0) continue;
    if (s.quantized) {
      s.packed_s8 = be::pack_gemm_b_s8(k, n, s.weight_s8.data(), n);
    } else {
      s.packed = be::pack_gemm_b(be::Trans::N, k, n, s.weight.data(), n);
    }
    g_weight_pack_count.fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t weight_pack_count() {
  return g_weight_pack_count.load(std::memory_order_relaxed);
}

void dump_plan_steps(const std::vector<PlanStep>& steps,
                     const std::vector<std::int64_t>& slot_sizes,
                     std::ostream& os) {
  auto put_slot = [&os](int slot) -> std::ostream& {
    return slot < 0 ? os << "ext" : os << "s" << slot;
  };
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const PlanStep& s = steps[i];
    os << "#" << i << " " << plan_kind_name(s.kind);
    if (s.kind == PlanStep::Kind::linear) {
      os << " [" << s.in_feat << " -> " << s.out_feat << "]";
    } else if (s.kind == PlanStep::Kind::conv) {
      os << " [" << s.c << "x" << s.h << "x" << s.w << " -> " << s.out_c << "x"
         << s.oh << "x" << s.ow << " k" << s.k << " s" << s.stride << " p"
         << s.pad << "]";
      if (s.quantized && s.conv_row_block > 0) {
        os << " block=" << s.conv_row_block;
      }
    } else if (s.kind == PlanStep::Kind::maxpool ||
               s.kind == PlanStep::Kind::avgpool) {
      os << " [" << s.c << "x" << s.h << "x" << s.w << " -> " << s.c << "x"
         << s.oh << "x" << s.ow << "]";
    } else {
      os << " [" << s.in_numel << "]";
    }
    if (!s.bias.empty()) os << " +bias";
    if (s.bn_after) os << " +bn";
    if (s.relu_after) os << " +relu";
    if (s.quantized) os << " int8";
    os << "  ";
    put_slot(s.in_slot) << " -> ";
    put_slot(s.out_slot);
    if (s.in_place) os << " (in place)";
    os << "\n";
  }
  os << "slots:";
  if (slot_sizes.empty()) os << " none";
  for (std::size_t i = 0; i < slot_sizes.size(); ++i) {
    os << " s" << i << "=" << slot_sizes[i];
  }
  os << " floats/sample\n";
}

}  // namespace adept::runtime
