// Gradient-based optimizer over leaf autograd tensors.
//
// Parameters are updated in place on their data buffers; graphs are built
// fresh each step so leaves stay leaves. Matches the paper's training setup
// (Adam with per-group weight decay).
#pragma once

#include <cstdint>
#include <vector>

#include "autograd/tensor.h"

namespace adept::optim {

// Adam (Kingma & Ba) with L2 weight decay added to the gradient.
class Adam {
 public:
  Adam(std::vector<ag::Tensor> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8, double weight_decay = 0.0);

  void zero_grad();
  // Applies the update rule to the parameters that have a gradient, then
  // bumps adept::param_version() so materialized eval-weight caches know
  // the parameters moved.
  void step();

  double lr() const { return lr_; }
  void set_lr(double lr) { lr_ = lr; }
  const std::vector<ag::Tensor>& params() const { return params_; }

 private:
  std::vector<ag::Tensor> params_;
  double lr_;
  double beta1_, beta2_, eps_, weight_decay_;
  std::int64_t t_ = 0;
  std::vector<std::vector<float>> m_, v_;
};

}  // namespace adept::optim
