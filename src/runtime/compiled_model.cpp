#include "runtime/compiled_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>

#include "autograd/ops.h"
#include "autograd/tensor.h"
#include "backend/kernels.h"
#include "common/failpoint.h"
#include "common/version.h"
#include "nn/layers.h"
#include "nn/onn_layers.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace adept::runtime {

namespace be = ::adept::backend;

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::runtime_error("CompiledModel: " + msg);
}

std::string dims_str(const std::vector<std::int64_t>& dims) {
  std::string s = "[";
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(dims[i]);
  }
  return s + "]";
}

std::int64_t numel_of(const std::vector<std::int64_t>& dims) {
  std::int64_t n = 1;
  for (auto d : dims) n *= d;
  return n;
}

// [out,in] -> [in,out] copy (the materialized transpose ONNLinear/ONNConv2d
// forward feeds to the N/N gemm; transposition moves values untouched).
std::vector<float> transposed(const std::vector<float>& w, std::int64_t out,
                              std::int64_t in) {
  std::vector<float> wt(w.size());
  for (std::int64_t i = 0; i < out; ++i) {
    for (std::int64_t j = 0; j < in; ++j) {
      wt[static_cast<std::size_t>(j * out + i)] = w[static_cast<std::size_t>(i * in + j)];
    }
  }
  return wt;
}

// The [in,out] gemm weight of an ONNLinear/ONNConv2d layer: its eval-time
// [out,in] weight through the cached batched weight_expr path, with phase
// noise suspended (sigma pushed to 0 and popped, drift stream untouched) so
// the frozen plan is the nominal design, then transposed.
std::vector<float> gemm_weight(nn::PtcWeight& w) {
  ag::NoGradGuard guard;
  const double sigma = w.phase_noise();
  w.set_phase_noise_sigma(0.0);
  ag::Tensor weight = w.weight_expr();
  w.set_phase_noise_sigma(sigma);
  return transposed(weight.data(), w.out_features(), w.in_features());
}

// Per-row int8 quantization of `rows` rows of `k` floats: scale[i] =
// absmax(row i) / 127 (0 for an all-zero row). Per-SAMPLE scales are what
// keeps quantized results independent of micro-batch composition — the
// Server guarantee in runtime/server.h (a per-batch scale would make a
// request's answer depend on its batch mates).
void quantize_rows(std::int64_t rows, std::int64_t k, const float* x,
                   float* scale, std::int8_t* out) {
  // The row sweep is the parallel loop; the per-row absmax/quantize kernels
  // stay below their own parallel grain at these row widths, so no nested
  // fan-out. Both kernels are exact (max is order-independent, the convert
  // rounds like lrintf), so the quantized image is identical at every
  // thread count.
  be::parallel_for(
      rows, std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(k, 1)),
      2 * k * be::kElemCost, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const float* row = x + i * k;
          const float amax = be::absmax(static_cast<std::size_t>(k), row);
          scale[i] = amax / 127.0f;
          be::quantize_s8(static_cast<std::size_t>(k), row,
                          amax > 0.0f ? 127.0f / amax : 0.0f, out + i * k);
        }
      });
}

}  // namespace

CompiledModel CompiledModel::freeze(nn::OnnModel& model,
                                    std::vector<std::int64_t> input_dims,
                                    FreezeOptions options) {
  if (!model.net) fail("model has no module graph");
  if (input_dims.empty()) fail("input_dims must not be empty");
  static const obs::TraceId t_freeze = obs::intern_name("runtime.freeze");
  obs::TraceSpan freeze_span(t_freeze);
  static obs::Counter& freezes = obs::counter("runtime.freezes");
  freezes.inc();
  // Robustness seam: reload paths (Server::reload) freeze through here, so
  // tests inject freeze failures at this site to prove a failed reload
  // leaves the old model serving.
  if (failpoint::maybe_fail("runtime.freeze")) {
    fail("freeze failed (injected via failpoint runtime.freeze)");
  }
  const std::vector<std::shared_ptr<nn::Module>> modules =
      nn::flatten_modules(model.net);

  CompiledModel cm;
  cm.input_dims_ = input_dims;
  cm.input_numel_ = numel_of(input_dims);
  cm.max_interm_numel_ = cm.input_numel_;

  std::vector<std::int64_t> cur = input_dims;  // per-sample dims, no batch
  auto expect_chw = [&](const char* what) {
    if (cur.size() != 3) {
      fail(std::string(what) + " expects a [C,H,W] input, got " + dims_str(cur));
    }
  };
  auto expect_features = [&](const char* what, std::int64_t want) {
    const std::int64_t have = numel_of(cur);
    if (have != want) {
      fail(std::string(what) + " expects " + std::to_string(want) +
           " input features, the plan carries " + dims_str(cur) + " = " +
           std::to_string(have));
    }
  };

  for (std::size_t mi = 0; mi < modules.size(); ++mi) {
    nn::Module& m = *modules[mi];
    PlanStep s;
    s.in_numel = numel_of(cur);
    // A NaN or infinity in a parameter would reach the served answers, so
    // the model is refused here (reloads too: they freeze through this
    // path).
    auto require_finite = [mi](const std::vector<float>& xs, const char* what,
                               const char* name) {
      if (!std::all_of(xs.begin(), xs.end(), [](float x) { return std::isfinite(x); })) {
        fail("module " + std::to_string(mi) + " (" + what + "): " + name +
             " holds a non-finite value");
      }
    };
    // ONNLinear and ONNConv2d lower their weight and bias alike.
    auto lower_weights = [&](auto& l, const char* what) {
      s.weight = gemm_weight(l.weight());
      if (l.has_bias()) s.bias = l.bias().data();
      require_finite(s.weight, what, "weight");
      require_finite(s.bias, what, "bias");
    };
    if (auto* l = dynamic_cast<nn::ONNLinear*>(&m)) {
      expect_features("ONNLinear", l->in_features());
      s.kind = PlanStep::Kind::linear;
      s.in_feat = l->in_features();
      s.out_feat = l->out_features();
      lower_weights(*l, "ONNLinear");
      cur = {s.out_feat};
    } else if (auto* c = dynamic_cast<nn::ONNConv2d*>(&m)) {
      expect_chw("ONNConv2d");
      if (cur[0] != c->in_channels()) {
        fail("ONNConv2d expects " + std::to_string(c->in_channels()) +
             " input channels, the plan carries " + dims_str(cur));
      }
      s.kind = PlanStep::Kind::conv;
      s.c = cur[0];
      s.h = cur[1];
      s.w = cur[2];
      s.k = c->kernel();
      s.stride = c->stride();
      s.pad = c->pad();
      s.out_c = c->out_channels();
      s.oh = (s.h + 2 * s.pad - s.k) / s.stride + 1;
      s.ow = (s.w + 2 * s.pad - s.k) / s.stride + 1;
      if (s.oh <= 0 || s.ow <= 0) {
        fail("ONNConv2d output is empty for input " + dims_str(cur));
      }
      lower_weights(*c, "ONNConv2d");
      cur = {s.out_c, s.oh, s.ow};
    } else if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) {
      expect_chw("BatchNorm2d");
      if (cur[0] != bn->channels()) {
        fail("BatchNorm2d expects " + std::to_string(bn->channels()) +
             " channels, the plan carries " + dims_str(cur));
      }
      s.kind = PlanStep::Kind::batchnorm;
      s.c = cur[0];
      s.h = cur[1];
      s.w = cur[2];
      s.mu = bn->running_mean();
      s.gamma = bn->gamma().data();
      s.beta = bn->beta().data();
      // Same expression ops.cpp's eval branch evaluates (float var + float
      // eps, double reciprocal sqrt, cast to float) — bit-identical invstd.
      const std::vector<float>& var = bn->running_var();
      require_finite(s.mu, "BatchNorm2d", "running mean");
      require_finite(var, "BatchNorm2d", "running variance");
      require_finite(s.gamma, "BatchNorm2d", "gamma");
      require_finite(s.beta, "BatchNorm2d", "beta");
      s.invstd.resize(var.size());
      for (std::size_t ci = 0; ci < var.size(); ++ci) {
        s.invstd[ci] = static_cast<float>(1.0 / std::sqrt(var[ci] + bn->eps()));
      }
    } else if (dynamic_cast<nn::ReLU*>(&m) != nullptr) {
      // Peephole: fold into the producing step's store when it can clamp
      // inline (identical bits, one fewer full-buffer pass).
      if (!cm.steps_.empty() && !cm.steps_.back().relu_after &&
          (cm.steps_.back().kind == PlanStep::Kind::linear ||
           cm.steps_.back().kind == PlanStep::Kind::conv ||
           cm.steps_.back().kind == PlanStep::Kind::batchnorm)) {
        cm.steps_.back().relu_after = true;
        continue;
      }
      s.kind = PlanStep::Kind::relu;
    } else if (auto* mp = dynamic_cast<nn::MaxPool2d*>(&m)) {
      expect_chw("MaxPool2d");
      s.kind = PlanStep::Kind::maxpool;
      s.c = cur[0];
      s.h = cur[1];
      s.w = cur[2];
      s.k = mp->kernel();
      s.stride = mp->stride();
      s.oh = (s.h - s.k) / s.stride + 1;
      s.ow = (s.w - s.k) / s.stride + 1;
      if (s.oh <= 0 || s.ow <= 0) {
        fail("MaxPool2d output is empty for input " + dims_str(cur));
      }
      cur = {s.c, s.oh, s.ow};
    } else if (auto* ap = dynamic_cast<nn::AdaptiveAvgPool2d*>(&m)) {
      expect_chw("AdaptiveAvgPool2d");
      s.kind = PlanStep::Kind::avgpool;
      s.c = cur[0];
      s.h = cur[1];
      s.w = cur[2];
      s.oh = ap->out_h();
      s.ow = ap->out_w();
      cur = {s.c, s.oh, s.ow};
    } else if (dynamic_cast<nn::Flatten*>(&m) != nullptr) {
      // Pure shape bookkeeping: [C,H,W] and [C*H*W] share one row-major
      // buffer, so no step is emitted.
      cur = {numel_of(cur)};
      continue;
    } else {
      fail("module " + std::to_string(mi) +
           ": unsupported module type (the lowering knows the nn/ layer set)");
    }
    s.out_numel = numel_of(cur);
    cm.max_interm_numel_ = std::max(cm.max_interm_numel_, s.out_numel);
    cm.steps_.push_back(std::move(s));
  }
  if (cm.steps_.empty()) fail("model lowered to an empty plan");
  cm.output_numel_ = numel_of(cur);

  // Planning passes (runtime/plan.h), then a single weight-pack pass — the
  // lowering above deliberately does not pack, so fusion/quantization never
  // pack a weight twice.
  if (options.optimize) fuse_plan(cm.steps_);
  if (options.quantize_int8) quantize_plan(cm.steps_);
  cm.slot_sizes_ =
      assign_slots(cm.steps_, options.optimize, cm.max_interm_numel_);
  pack_plan(cm.steps_);
  // Intern the per-step trace-span names now that the step kinds are final:
  // run() records spans by id only, so plan hotspots show up per step in
  // ADEPT_TRACE output with zero string work on the hot path.
  for (std::size_t i = 0; i < cm.steps_.size(); ++i) {
    PlanStep& s = cm.steps_[i];
    s.trace_id = obs::intern_name("plan.s" + std::to_string(i) + "." +
                                  plan_kind_name(s.kind));
  }
  cm.options_ = options;
  cm.frozen_param_version_ = param_version();
  return cm;
}

bool CompiledModel::refresh(nn::OnnModel& model) {
  // The whole point of this entry: a refresh loop (serving alongside
  // training) must not re-materialize and re-pack every weight when no
  // parameter changed since the last freeze.
  if (frozen_param_version_ == param_version()) return false;
  *this = freeze(model, input_dims_, options_);
  return true;
}

void CompiledModel::apply(const PlanStep& s, const float* src,
                          std::int64_t batch, float* dst,
                          Workspace& ws) const {
  switch (s.kind) {
    case PlanStep::Kind::linear: {
      if (s.quantized) {
        ws.ascale.resize(static_cast<std::size_t>(batch));
        ws.qa.resize(static_cast<std::size_t>(batch * s.in_feat));
        ws.qacc.resize(static_cast<std::size_t>(batch * s.out_feat));
        quantize_rows(batch, s.in_feat, src, ws.ascale.data(), ws.qa.data());
        be::gemm_s8_packed(batch, s.out_feat, s.in_feat, ws.qa.data(),
                           s.in_feat, s.weight_s8.data(), s.out_feat,
                           s.packed_s8, ws.qacc.data(), s.out_feat);
        // Dequantize with the freeze-time folded constants (bias and any
        // fused BN already inside qscale/qbias).
        for (std::int64_t i = 0; i < batch; ++i) {
          const std::int32_t* arow = ws.qacc.data() + i * s.out_feat;
          float* drow = dst + i * s.out_feat;
          const float as = ws.ascale[static_cast<std::size_t>(i)];
          for (std::int64_t j = 0; j < s.out_feat; ++j) {
            const std::size_t sj = static_cast<std::size_t>(j);
            float v = static_cast<float>(arow[j]) * (as * s.qscale[sj]) +
                      s.qbias[sj];
            if (s.relu_after && v < 0.0f) v = 0.0f;
            drow[j] = v;
          }
        }
        break;
      }
      // ag::matmul forward: one N/N gemm, alpha=1 beta=0 (weight panels
      // pre-packed at freeze; bit-identical either way).
      be::gemm_packed(batch, s.out_feat, s.in_feat, 1.0f, src, s.in_feat,
                      be::Trans::N, s.weight.data(), s.out_feat, s.packed,
                      0.0f, dst, s.out_feat);
      const std::size_t n = static_cast<std::size_t>(batch * s.out_feat);
      const std::size_t m = static_cast<std::size_t>(s.out_feat);
      if (!s.bias.empty()) {
        const float* b = s.bias.data();
        for (std::size_t i = 0; i < n; ++i) {
          const float v = dst[i] + b[i % m];
          dst[i] = !s.relu_after || v > 0.0f ? v : 0.0f;
        }
      } else if (s.relu_after) {
        for (std::size_t i = 0; i < n; ++i) dst[i] = dst[i] > 0.0f ? dst[i] : 0.0f;
      }
      break;
    }
    case PlanStep::Kind::conv: {
      if (!s.quantized) {
        // The tape's conv node runs this same routine: an implicit-GEMM
        // conv over the NCHW input (no patch matrix), its store loop
        // applying bias, then the BN affine fuse_plan folded in, then
        // ReLU — the float expressions, in order, the separate steps
        // evaluate.
        be::ConvShape shape;
        shape.n = batch;
        shape.c = s.c;
        shape.h = s.h;
        shape.w = s.w;
        shape.k = s.k;
        shape.stride = s.stride;
        shape.pad = s.pad;
        shape.out_c = s.out_c;
        be::ConvEpilogue ep;
        ep.bias = s.bias.empty() ? nullptr : s.bias.data();
        if (s.bn_after) {
          ep.mu = s.mu.data();
          ep.invstd = s.invstd.data();
          ep.gamma = s.gamma.data();
          ep.beta = s.beta.data();
        }
        ep.relu = s.relu_after;
        be::conv2d_forward(shape, src, be::Trans::N, s.weight.data(), s.out_c,
                           &s.packed, ep, dst);
        break;
      }
      const std::int64_t ohow = s.oh * s.ow;
      const std::int64_t fan_in = s.c * s.k * s.k;
      // Sample-block tiling (fuse_plan): quantize + byte gather + gemm +
      // store run per block of samples, so the int8 scratch holds one
      // block instead of the whole batch. Rows are sample-independent, so
      // any blocking gives the same result as one full-batch pass
      // (conv_row_block == 0).
      std::int64_t nb = batch;
      if (s.conv_row_block > 0) {
        nb = std::clamp(s.conv_row_block / ohow, std::int64_t{1}, batch);
      }
      // The int8 pipeline quantizes the feature map once per SAMPLE (c*h*w
      // values — an order of magnitude fewer than the rows*fan_in patch
      // matrix), then gathers patches as bytes: im2col is pure data
      // movement, so gathering quantized pixels equals quantizing gathered
      // pixels, and every row of a sample shares that sample's activation
      // scale.
      ws.ascale.resize(static_cast<std::size_t>(nb));
      ws.qsrc.resize(static_cast<std::size_t>(nb * s.in_numel));
      ws.qa.resize(static_cast<std::size_t>(nb * ohow * fan_in));
      ws.qacc.resize(static_cast<std::size_t>(nb * ohow * s.out_c));
      for (std::int64_t n0 = 0; n0 < batch; n0 += nb) {
        const std::int64_t nblk = std::min(nb, batch - n0);
        const std::int64_t rows = nblk * ohow;
        quantize_rows(nblk, s.in_numel, src + n0 * s.in_numel,
                      ws.ascale.data(), ws.qsrc.data());
        be::im2col_s8(ws.qsrc.data(), nblk, s.c, s.h, s.w, s.k, s.k, s.stride,
                      s.pad, ws.qa.data());
        be::gemm_s8_packed(rows, s.out_c, fan_in, ws.qa.data(), fan_in,
                           s.weight_s8.data(), s.out_c, s.packed_s8,
                           ws.qacc.data(), s.out_c);
        // Dequantize + NCHW store, one output CHANNEL at a time: writes are
        // contiguous along the dst plane, the gemm output column walks a
        // fixed stride, and the per-channel constants (bias and any BN
        // folded into qscale/qbias at freeze) hoist out of the pixel loop.
        for (std::int64_t ni = 0; ni < nblk; ++ni) {
          for (std::int64_t ci = 0; ci < s.out_c; ++ci) {
            const std::size_t sc = static_cast<std::size_t>(ci);
            float* dplane = dst + (((n0 + ni) * s.out_c + ci) * s.oh) * s.ow;
            const std::int32_t* qcol = ws.qacc.data() + ni * ohow * s.out_c + ci;
            const float scale =
                ws.ascale[static_cast<std::size_t>(ni)] * s.qscale[sc];
            const float qb = s.qbias[sc];
            for (std::int64_t p = 0; p < ohow; ++p) {
              float v = static_cast<float>(qcol[p * s.out_c]) * scale + qb;
              if (s.relu_after && v < 0.0f) v = 0.0f;
              dplane[p] = v;
            }
          }
        }
      }
      break;
    }
    case PlanStep::Kind::batchnorm: {
      // ops.cpp eval path: y = ((x - mu) * invstd) * gamma + beta. Pure
      // elementwise, so in-place execution (src == dst) is safe.
      const std::int64_t plane = s.h * s.w;
      be::parallel_for(
          batch * s.c,
          std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(plane, 1)),
          plane * be::kElemCost, [&, plane](std::int64_t s0, std::int64_t s1) {
            for (std::int64_t slice = s0; slice < s1; ++slice) {
              const std::int64_t ci = slice % s.c;
              const float mu = s.mu[static_cast<std::size_t>(ci)];
              const float is = s.invstd[static_cast<std::size_t>(ci)];
              const float g = s.gamma[static_cast<std::size_t>(ci)];
              const float b = s.beta[static_cast<std::size_t>(ci)];
              const float* xb = src + slice * plane;
              float* ob = dst + slice * plane;
              for (std::int64_t i = 0; i < plane; ++i) {
                const float v = (xb[i] - mu) * is * g + b;
                ob[i] = !s.relu_after || v > 0.0f ? v : 0.0f;
              }
            }
          });
      break;
    }
    case PlanStep::Kind::relu: {
      const std::int64_t n = batch * s.in_numel;
      be::parallel_for(n, be::detail::kElemGrain,
                       [&](std::int64_t i0, std::int64_t i1) {
                         for (std::int64_t i = i0; i < i1; ++i) {
                           dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
                         }
                       });
      break;
    }
    case PlanStep::Kind::maxpool: {
      be::parallel_for(
          batch * s.c, /*grain=*/1, s.oh * s.ow * s.k * s.k * be::kElemCost,
          [&](std::int64_t s0, std::int64_t s1) {
            for (std::int64_t slice = s0; slice < s1; ++slice) {
              const float* xplane = src + slice * s.h * s.w;
              for (std::int64_t yo = 0; yo < s.oh; ++yo) {
                for (std::int64_t xo = 0; xo < s.ow; ++xo) {
                  float best = -std::numeric_limits<float>::infinity();
                  for (std::int64_t ky = 0; ky < s.k; ++ky) {
                    for (std::int64_t kx = 0; kx < s.k; ++kx) {
                      const std::int64_t yi = yo * s.stride + ky;
                      const std::int64_t xi = xo * s.stride + kx;
                      const float v = xplane[yi * s.w + xi];
                      if (v > best) best = v;
                    }
                  }
                  dst[(slice * s.oh + yo) * s.ow + xo] = best;
                }
              }
            }
          });
      break;
    }
    case PlanStep::Kind::avgpool: {
      be::parallel_for(
          batch * s.c, /*grain=*/1, s.h * s.w * be::kElemCost,
          [&](std::int64_t s0, std::int64_t s1) {
            for (std::int64_t slice = s0; slice < s1; ++slice) {
              const float* xplane = src + slice * s.h * s.w;
              float* oplane = dst + slice * s.oh * s.ow;
              for (std::int64_t yo = 0; yo < s.oh; ++yo) {
                const std::int64_t y0 = ag::pool_bin_start(yo, s.h, s.oh);
                const std::int64_t y1 = ag::pool_bin_end(yo, s.h, s.oh);
                for (std::int64_t xo = 0; xo < s.ow; ++xo) {
                  const std::int64_t x0 = ag::pool_bin_start(xo, s.w, s.ow);
                  const std::int64_t x1 = ag::pool_bin_end(xo, s.w, s.ow);
                  double acc = 0.0;
                  for (std::int64_t yi = y0; yi < y1; ++yi) {
                    for (std::int64_t xi = x0; xi < x1; ++xi) {
                      acc += xplane[yi * s.w + xi];
                    }
                  }
                  oplane[yo * s.ow + xo] = static_cast<float>(
                      acc / static_cast<double>((y1 - y0) * (x1 - x0)));
                }
              }
            }
          });
      break;
    }
  }
}

void CompiledModel::run(const float* input, std::int64_t batch, float* output,
                        Workspace& ws) const {
  if (batch <= 0) fail("run: batch must be positive");
  static const obs::TraceId t_run = obs::intern_name("plan.run");
  obs::TraceSpan run_span(t_run);
  ws.slots.resize(slot_sizes_.size());
  for (std::size_t i = 0; i < slot_sizes_.size(); ++i) {
    ws.slots[i].resize(static_cast<std::size_t>(batch * slot_sizes_[i]));
  }
  const float* src = input;
  for (std::size_t si = 0; si < steps_.size(); ++si) {
    const PlanStep& s = steps_[si];
    // Failure-injection seam: a step that cannot run must surface as an
    // exception here, not as silent garbage downstream.
    if (failpoint::maybe_fail("runtime.plan.step")) {
      fail("step " + std::to_string(si) + " (" + plan_kind_name(s.kind) +
           ") failed (injected via failpoint runtime.plan.step)");
    }
    float* dst = s.out_slot < 0
                     ? output
                     : ws.slots[static_cast<std::size_t>(s.out_slot)].data();
    if (ws.poison_free_slots) {
      // Aliasing check: the only live value entering this step is its
      // input; every other slot must be dead. NaN-fill them so a plan that
      // reads a freed slot visibly poisons its output.
      for (std::size_t bi = 0; bi < ws.slots.size(); ++bi) {
        const int b = static_cast<int>(bi);
        if (b == s.in_slot || b == s.out_slot) continue;
        std::fill(ws.slots[bi].begin(), ws.slots[bi].end(),
                  std::numeric_limits<float>::quiet_NaN());
      }
    }
    // Per-step span (ids interned at freeze); disarmed, it costs one
    // relaxed load.
    obs::TraceSpan step_span(s.trace_id);
    apply(s, src, batch, dst, ws);
    src = dst;
  }
}

std::vector<float> CompiledModel::run(const std::vector<float>& input,
                                      std::int64_t batch) const {
  if (batch <= 0 || input.size() != static_cast<std::size_t>(batch * input_numel_)) {
    fail("run: input has " + std::to_string(input.size()) + " values, expected batch " +
         std::to_string(batch) + " x " + std::to_string(input_numel_));
  }
  Workspace ws;
  std::vector<float> out(static_cast<std::size_t>(batch * output_numel_));
  run(input.data(), batch, out.data(), ws);
  return out;
}

std::int64_t CompiledModel::workspace_bytes(std::int64_t batch) const {
  std::int64_t total = 0;
  for (auto sz : slot_sizes_) total += sz * batch * 4;
  // The int8 scratch vectors are shared across steps and never shrink, so
  // each contributes its per-plan maximum. An fp32 conv keeps no workspace
  // scratch: it reads its patches in place.
  std::int64_t qsrc = 0, qa = 0, qacc = 0, ascale = 0;
  for (const PlanStep& s : steps_) {
    if (s.kind == PlanStep::Kind::conv && s.quantized) {
      const std::int64_t ohow = s.oh * s.ow;
      std::int64_t nb = batch;
      if (s.conv_row_block > 0) {
        nb = std::clamp(s.conv_row_block / ohow, std::int64_t{1}, batch);
      }
      qsrc = std::max(qsrc, nb * s.in_numel);
      qa = std::max(qa, nb * ohow * s.c * s.k * s.k);
      qacc = std::max(qacc, nb * ohow * s.out_c);
      ascale = std::max(ascale, nb);
    } else if (s.kind == PlanStep::Kind::linear && s.quantized) {
      qa = std::max(qa, batch * s.in_feat);
      qacc = std::max(qacc, batch * s.out_feat);
      ascale = std::max(ascale, batch);
    }
  }
  return total + ascale * 4 + qsrc + qa + qacc * 4;
}

void CompiledModel::dump_plan(std::ostream& os) const {
  os << "CompiledModel: input " << dims_str(input_dims_) << " -> "
     << output_numel_ << " outputs, " << steps_.size() << " steps"
     << (options_.optimize ? "" : " (unplanned)")
     << (options_.quantize_int8 ? ", int8" : "") << "\n";
  dump_plan_steps(steps_, slot_sizes_, os);
  os << "workspace: " << workspace_bytes(1) << " bytes at batch 1\n";
}

}  // namespace adept::runtime
