// Electronic NN layers used around the photonic tensor cores: the paper's
// models keep BatchNorm / ReLU / pooling / flatten in electronics and map
// every matmul-bearing layer onto a PTC (onn_layers.h). A dense layer is an
// ONNLinear / ONNConv2d with PtcBinding::dense().
#pragma once

#include "common/rng.h"
#include "nn/module.h"

namespace adept::nn {

class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);
  ag::Tensor forward(const ag::Tensor& x) override;
  std::vector<ag::Tensor> parameters() override;

  std::int64_t channels() const { return channels_; }
  float momentum() const { return momentum_; }
  float eps() const { return eps_; }
  ag::Tensor& gamma() { return gamma_; }
  ag::Tensor& beta() { return beta_; }
  std::vector<float>& running_mean() { return running_mean_; }
  std::vector<float>& running_var() { return running_var_; }

  // Deferred-stat mode for the data-parallel micro-shard paths (src/comm):
  // the running-stat EMA chain is order-dependent, so a training forward
  // must not fold its batch statistics in on the spot. With capture enabled,
  // a training forward still normalizes with the batch statistics (ghost
  // batch norm over the shard) but leaves the exact float mean/var in
  // captured_mean()/captured_var() instead of touching the running stats.
  // The caller gathers every shard's captured stats across ranks and replays
  // them in shard order via update_running_stats, giving identical running
  // stats at any rank count. Eval forwards ignore the flag.
  void set_stat_capture(bool on) { capture_ = on; }
  bool stat_capture() const { return capture_; }
  const std::vector<float>& captured_mean() const { return captured_mean_; }
  const std::vector<float>& captured_var() const { return captured_var_; }
  // One EMA replay step: rs = (1 - momentum) * rs + momentum * stat.
  void update_running_stats(const float* mean, const float* var);

 private:
  std::int64_t channels_;
  float momentum_, eps_;
  ag::Tensor gamma_, beta_;
  std::vector<float> running_mean_, running_var_;
  bool capture_ = false;
  std::vector<float> captured_mean_, captured_var_;
};

class ReLU : public Module {
 public:
  ag::Tensor forward(const ag::Tensor& x) override;
};

class MaxPool2d : public Module {
 public:
  MaxPool2d(std::int64_t kernel, std::int64_t stride);
  ag::Tensor forward(const ag::Tensor& x) override;

  std::int64_t kernel() const { return k_; }
  std::int64_t stride() const { return stride_; }

 private:
  std::int64_t k_, stride_;
};

class AdaptiveAvgPool2d : public Module {
 public:
  AdaptiveAvgPool2d(std::int64_t out_h, std::int64_t out_w);
  ag::Tensor forward(const ag::Tensor& x) override;

  std::int64_t out_h() const { return out_h_; }
  std::int64_t out_w() const { return out_w_; }

 private:
  std::int64_t out_h_, out_w_;
};

// [N,C,H,W] -> [N, C*H*W]
class Flatten : public Module {
 public:
  ag::Tensor forward(const ag::Tensor& x) override;
};

// Kaiming-uniform weight init: the dense PtcWeight's initializer.
ag::Tensor kaiming_uniform(std::vector<std::int64_t> shape, std::int64_t fan_in,
                           adept::Rng& rng);

}  // namespace adept::nn
