#include "nn/layers.h"

#include <cmath>

#include "autograd/ops.h"

namespace adept::nn {

using ag::Tensor;

Tensor kaiming_uniform(std::vector<std::int64_t> shape, std::int64_t fan_in,
                       adept::Rng& rng) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  const double bound = std::sqrt(6.0 / static_cast<double>(std::max<std::int64_t>(fan_in, 1)));
  std::vector<float> data(static_cast<std::size_t>(n));
  for (auto& v : data) v = static_cast<float>(rng.uniform(-bound, bound));
  return ag::make_tensor(std::move(data), std::move(shape), /*requires_grad=*/true);
}

BatchNorm2d::BatchNorm2d(std::int64_t channels, float momentum, float eps)
    : channels_(channels), momentum_(momentum), eps_(eps) {
  gamma_ = Tensor::full({channels_}, 1.0f, /*requires_grad=*/true);
  beta_ = Tensor::zeros({channels_}, /*requires_grad=*/true);
  running_mean_.assign(static_cast<std::size_t>(channels_), 0.0f);
  running_var_.assign(static_cast<std::size_t>(channels_), 1.0f);
}

Tensor BatchNorm2d::forward(const Tensor& x) {
  if (training() && capture_) {
    // momentum = 1 turns the in-place running-stat update into a pure
    // write: (1-1)*scratch + 1*stat == stat, so the zeroed scratch buffers
    // come back holding the exact float batch statistics while the real
    // running stats stay untouched (replayed later in fixed shard order —
    // see the header comment).
    captured_mean_.assign(static_cast<std::size_t>(channels_), 0.0f);
    captured_var_.assign(static_cast<std::size_t>(channels_), 0.0f);
    return ag::batchnorm2d(x, gamma_, beta_, captured_mean_, captured_var_,
                           /*training=*/true, /*momentum=*/1.0f, eps_);
  }
  return ag::batchnorm2d(x, gamma_, beta_, running_mean_, running_var_, training(),
                         momentum_, eps_);
}

void BatchNorm2d::update_running_stats(const float* mean, const float* var) {
  for (std::int64_t ci = 0; ci < channels_; ++ci) {
    const auto i = static_cast<std::size_t>(ci);
    running_mean_[i] = (1.0f - momentum_) * running_mean_[i] + momentum_ * mean[i];
    running_var_[i] = (1.0f - momentum_) * running_var_[i] + momentum_ * var[i];
  }
}

std::vector<Tensor> BatchNorm2d::parameters() { return {gamma_, beta_}; }

Tensor ReLU::forward(const Tensor& x) { return ag::relu(x); }

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride)
    : k_(kernel), stride_(stride) {}

Tensor MaxPool2d::forward(const Tensor& x) { return ag::maxpool2d(x, k_, stride_); }

AdaptiveAvgPool2d::AdaptiveAvgPool2d(std::int64_t out_h, std::int64_t out_w)
    : out_h_(out_h), out_w_(out_w) {}

Tensor AdaptiveAvgPool2d::forward(const Tensor& x) {
  return ag::adaptive_avgpool2d(x, out_h_, out_w_);
}

Tensor Flatten::forward(const Tensor& x) {
  const std::int64_t n = x.dim(0);
  return ag::reshape(x, {n, x.numel() / n});
}

}  // namespace adept::nn
