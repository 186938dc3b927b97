// Freeze-time planning passes over the CompiledModel step list.
//
// CompiledModel::freeze lowers the module graph to a linear chain of
// PlanStep records (the step-list IR — see docs/compiled_model.md for the
// reference). The passes here rewrite that chain before weights are packed:
//
//   fuse_plan      BatchNorm epilogue fusion into the producing conv, and
//                  sample-block tiling of the int8 conv's byte gather so its
//                  scratch is sized to a block, not the whole batch (an fp32
//                  conv reads its patches in place and needs no block).
//   quantize_plan  opt-in int8 execution: per-output-channel weight scales,
//                  int8 weight image, exact int32 accumulation at run time.
//   assign_slots   liveness analysis over the chain, mapping every step's
//                  output into a shared buffer-slot pool (elementwise steps
//                  run in place), instead of two whole-plan ping-pong
//                  buffers.
//   pack_plan      pack each gemm/conv weight for the active SIMD level
//                  (fp32 panels, or int8 k-pair panels when quantized).
//
// Bit-exactness contract: every fp32 transformation preserves the exact
// per-element float operation sequence of the unplanned chain, so planned
// execution is ASSERT_EQ-bit-identical to both the unplanned step list and
// the eval-mode tape (tests/test_plan.cpp). BatchNorm fusion is therefore
// *epilogue* fusion — the affine transform runs on the conv's store loop
// with the same expression the standalone step evaluates — NOT algebraic
// weight folding, which would change float accumulation. The int8 mode is
// a deliberate, opt-in accuracy trade and is exempt from the fp32 contract;
// its integer kernels are still bit-identical across SIMD levels and thread
// counts.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "backend/kernels.h"

namespace adept::runtime {

// Planning knobs for CompiledModel::freeze.
struct FreezeOptions {
  // Run fuse_plan + liveness slot assignment. Off = the reference chain
  // (one step per kernel, two ping-pong buffers at the global high-water
  // mark) that planned execution is tested bit-exact against.
  bool optimize = true;
  // Quantize gemm/conv weights to int8 at freeze and execute them with
  // int32 accumulation + dequantize-on-store (per-sample activation
  // scales, so results stay independent of micro-batch composition).
  bool quantize_int8 = false;
};

// One step of the compiled chain. Per-sample geometry is frozen; `batch`
// arrives at run time. Kinds and operands:
//   linear     gemm [batch, in_feat] x weight [in_feat, out_feat]
//   conv       implicit-GEMM conv (backend::conv2d_forward, the tape's
//              conv node's routine), weight [C*k*k, out_c], NCHW in/out;
//              int8: byte im2col + int8 gemm
//   batchnorm  standalone eval-mode BN (when not fused as an epilogue)
//   relu / maxpool / avgpool  elementwise / window kernels, no weights
struct PlanStep {
  enum class Kind : std::uint8_t {
    linear,
    conv,
    batchnorm,
    relu,
    maxpool,
    avgpool
  };
  Kind kind = Kind::relu;
  std::int64_t in_numel = 0, out_numel = 0;  // per sample
  // linear: weight [in,out]; conv: weight [C*k*k, out_c] (gemm-ready)
  std::int64_t in_feat = 0, out_feat = 0;
  std::int64_t c = 0, h = 0, w = 0, k = 0, stride = 0, pad = 0;
  std::int64_t oh = 0, ow = 0, out_c = 0;
  std::vector<float> weight;
  // Weight panels pre-packed for the active SIMD level at pack_plan time, so
  // steady-state gemms skip per-call packing (bit-identical either way;
  // gemm_packed falls back to `weight` if the dispatch level changes).
  backend::PackedGemmB packed;
  std::vector<float> bias;  // empty = no bias
  // A following ReLU folded into this step's store (max(v, 0) of the same
  // value is bit-identical to a separate relu pass, one buffer sweep
  // cheaper). Runs after the BN epilogue when both are fused.
  bool relu_after = false;
  // batchnorm (eval): y = ((x - mu) * invstd) * gamma + beta per channel.
  // Populated on standalone batchnorm steps, or on a conv step when
  // fuse_plan folded the following BN into its store loop (`bn_after`).
  std::vector<float> mu, invstd, gamma, beta;
  bool bn_after = false;
  // int8 conv only: target patch rows per sample-block of the byte gather
  // (0 = whole batch at once). fuse_plan sets this so the int8 scratch
  // holds a block, not the batch; row-independent kernels make any
  // blocking exact. fp32 convs gather nothing and ignore it.
  std::int64_t conv_row_block = 0;

  // int8 execution (quantize_plan): weight_s8 is the [K, N] quantized
  // image, wscale[j] = absmax(column j) / 127 (0 for an all-zero column),
  // packed_s8 the active level's k-pair panels. Activations are quantized
  // per SAMPLE at run time — linear quantizes each input row, conv
  // quantizes each sample's feature map once and im2cols the bytes — so a
  // sample's result never depends on its batch mates; dequantize multiplies
  // acc by ascale[sample] * wscale[j] before the fp32 bias/BN/ReLU
  // epilogue.
  bool quantized = false;
  std::vector<std::int8_t> weight_s8;
  std::vector<float> wscale;
  backend::PackedGemmBS8 packed_s8;
  // Dequantize epilogue constants, folded once at freeze: the fp32 bias and
  // any fused BN affine collapse into y = acc * (ascale * qscale[j]) +
  // qbias[j] (then ReLU). int8 mode is exempt from the fp32 bit-exactness
  // contract, so this algebraic fold is allowed — it saves three multiplies
  // and two adds per output element on the serving hot path. Without BN,
  // qscale == wscale and qbias == bias (or 0).
  std::vector<float> qscale, qbias;

  // Buffer plan (assign_slots): which workspace slot the step reads and
  // writes. -1 = external (the caller's input for the first step, the
  // caller's output for the last). `in_place` marks elementwise steps
  // executing inside their input slot.
  int in_slot = -1;
  int out_slot = -1;
  bool in_place = false;

  // Interned span name "plan.s<i>.<kind>" (obs::TraceId), filled at freeze
  // time, so CompiledModel::run's per-step trace spans never build a string
  // on the hot path. 0 = the registry's "(unnamed)" entry (a step that
  // never went through freeze).
  std::uint32_t trace_id = 0;

  // gemm operand shape: K (reduction) and N (output columns); 0 for
  // weightless kinds.
  std::int64_t gemm_k() const {
    if (kind == Kind::linear) return in_feat;
    if (kind == Kind::conv) return c * k * k;
    return 0;
  }
  std::int64_t gemm_n() const {
    if (kind == Kind::linear) return out_feat;
    if (kind == Kind::conv) return out_c;
    return 0;
  }
};

// BatchNorm epilogue fusion + conv sample-block tiling. Preserves the exact
// fp32 operation sequence per element (see header comment).
void fuse_plan(std::vector<PlanStep>& steps);

// Quantize every gemm/conv step's weights to int8 (per-output-channel
// scales). Idempotent; weightless steps are untouched.
void quantize_plan(std::vector<PlanStep>& steps);

// Liveness analysis over the linear chain. optimize = true assigns steps
// into a minimal slot pool sized per slot (elementwise steps in place);
// optimize = false reproduces the reference two-slot ping-pong at
// `max_interm` floats each. Returns per-slot per-sample float counts and
// fills in_slot / out_slot / in_place on every step.
std::vector<std::int64_t> assign_slots(std::vector<PlanStep>& steps,
                                       bool optimize, std::int64_t max_interm);

// Pack every gemm/conv weight for the active SIMD level (fp32 panels, or
// int8 panels for quantized steps). Bumps weight_pack_count() once per
// packed weight — the regression hook for the redundant-repack fix.
void pack_plan(std::vector<PlanStep>& steps);

// Process-wide count of weight packs performed by pack_plan (monotonic).
// CompiledModel::refresh must NOT advance it when param_version is
// unchanged (tests/test_plan.cpp).
std::uint64_t weight_pack_count();

// Lowercase kind name ("linear", "conv", ...), shared by dump_plan_steps
// and the freeze-time trace-span interning.
const char* plan_kind_name(PlanStep::Kind k);

// Human-readable plan listing: one line per step (kind, shapes, fused
// epilogues, quantization, slot assignment) plus the slot pool summary.
void dump_plan_steps(const std::vector<PlanStep>& steps,
                     const std::vector<std::int64_t>& slot_sizes,
                     std::ostream& os);

}  // namespace adept::runtime
