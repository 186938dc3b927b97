// Tape-free compiled inference over a frozen model.
//
// `CompiledModel::freeze` walks the module graph once, materializes every
// ONN layer's eval-time weight through the existing batched `weight_expr`
// path (phase noise suspended, stream untouched), and lowers the forward
// pass into a flat list of steps that call the backend kernels
// (`gemm`/`conv2d_forward`/pool/activation) directly on raw float buffers — no
// ag::Tensor nodes, no tape, no gradient plumbing, no per-op allocations
// beyond a reusable workspace. The planning passes in runtime/plan.h then
// fuse BatchNorm epilogues, tile the int8 conv gather into sample blocks, map
// step outputs into a shared slot pool (liveness analysis), optionally
// quantize gemm/conv weights to int8, and pack weights for the active SIMD
// level.
//
// Guarantees:
//   * fp32 plans are bit-exact against `model.net->forward` in eval mode
//     with phase noise off — planned or not, every transformation preserves
//     the per-element float operation sequence (tests/test_plan.cpp proves
//     planned == unplanned == tape with ASSERT_EQ). The opt-in int8 mode
//     trades that for speed; its integer kernels are still bit-identical
//     across SIMD levels, thread counts, and micro-batch compositions.
//   * `run` is const and takes the scratch workspace by reference, so one
//     CompiledModel is safely shared by many threads (the serving pool in
//     runtime/server.h) as long as each thread owns its Workspace.
//   * Frozen weights are copies: later training steps or noise injection on
//     the source model do not disturb a compiled instance. `refresh`
//     re-freezes only when the global param_version moved, so periodic
//     refresh loops skip the (expensive) weight re-pack when nothing
//     changed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "nn/models.h"
#include "runtime/plan.h"

namespace adept::runtime {

class CompiledModel {
 public:
  // Reusable per-thread scratch. Buffers grow to the high-water mark of the
  // plan and stay allocated, so steady-state runs are allocation-free.
  struct Workspace {
    std::vector<std::vector<float>> slots;  // the plan's shared buffer pool
    std::vector<std::int8_t> qsrc;          // quantized conv feature map
    std::vector<std::int8_t> qa;            // quantized gemm activation rows
    std::vector<std::int32_t> qacc;         // int32 gemm accumulators
    std::vector<float> ascale;              // per-sample activation scales
    // Debug hook for the aliasing test: when set, run() fills every slot
    // that is NOT live for the step about to execute with NaN, so a plan
    // that reads a freed slot poisons its output.
    bool poison_free_slots = false;
  };

  // Lower `model` for inputs of per-sample shape `input_dims` (no batch
  // dim): {C,H,W} for CNNs, {features} for MLPs. The model's training flag
  // is irrelevant — the plan always encodes eval semantics (BatchNorm
  // running stats, no noise). Throws std::runtime_error for module types
  // the lowering does not know, shape mismatches along the walk, or a
  // weight, bias or BatchNorm statistic holding a NaN or infinity (the
  // message names the module).
  static CompiledModel freeze(nn::OnnModel& model,
                              std::vector<std::int64_t> input_dims,
                              FreezeOptions options = {});

  // Re-freeze against `model` if any parameter may have changed since this
  // instance was frozen (global param_version moved); returns whether work
  // was done. A no-op refresh performs zero weight packs — the fix for the
  // redundant re-pack on unchanged weights (regression-tested via
  // weight_pack_count()).
  bool refresh(nn::OnnModel& model);

  // Batched inference: `input` is [batch, input_numel()] row-major,
  // `output` receives [batch, output_numel()].
  void run(const float* input, std::int64_t batch, float* output,
           Workspace& ws) const;
  // Convenience wrapper owning a transient workspace.
  std::vector<float> run(const std::vector<float>& input,
                         std::int64_t batch) const;

  std::int64_t input_numel() const { return input_numel_; }
  std::int64_t output_numel() const { return output_numel_; }
  const std::vector<std::int64_t>& input_dims() const { return input_dims_; }
  std::size_t num_steps() const { return steps_.size(); }
  std::size_t num_slots() const { return slot_sizes_.size(); }
  bool quantized() const { return options_.quantize_int8; }
  const FreezeOptions& options() const { return options_; }
  std::uint64_t frozen_param_version() const { return frozen_param_version_; }

  // Deterministic workspace footprint of run() at `batch`: the slot pool
  // plus conv/quantization scratch, in bytes. The planned-vs-unplanned
  // delta is the memory the planner saves (reported by bench_serve).
  std::int64_t workspace_bytes(std::int64_t batch) const;

  // Human-readable plan listing (step kinds, shapes, fused epilogues, slot
  // assignment) — the worked example in docs/compiled_model.md is this
  // printer's output for LeNet-5.
  void dump_plan(std::ostream& os) const;

 private:
  void apply(const PlanStep& s, const float* src, std::int64_t batch,
             float* dst, Workspace& ws) const;

  std::vector<PlanStep> steps_;
  std::vector<std::int64_t> slot_sizes_;  // per-sample floats per slot
  std::vector<std::int64_t> input_dims_;
  std::int64_t input_numel_ = 0;
  std::int64_t output_numel_ = 0;
  std::int64_t max_interm_numel_ = 0;  // workspace high-water mark per sample
  FreezeOptions options_;
  std::uint64_t frozen_param_version_ = 0;
};

}  // namespace adept::runtime
