#include "optim/optimizer.h"

#include <cmath>
#include <utility>

#include "common/version.h"

namespace adept::optim {

Adam::Adam(std::vector<ag::Tensor> params, double lr, double beta1, double beta2,
           double eps, double weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(params_[i].data().size(), 0.0f);
    v_[i].assign(params_[i].data().size(), 0.0f);
  }
}

void Adam::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.has_grad()) continue;
    auto& data = p.data();
    auto& grad = p.grad();
    for (std::size_t j = 0; j < data.size(); ++j) {
      const float g = grad[j] + static_cast<float>(weight_decay_) * data[j];
      m_[i][j] = static_cast<float>(beta1_) * m_[i][j] +
                 static_cast<float>(1.0 - beta1_) * g;
      v_[i][j] = static_cast<float>(beta2_) * v_[i][j] +
                 static_cast<float>(1.0 - beta2_) * g * g;
      const double mhat = m_[i][j] / bc1;
      const double vhat = v_[i][j] / bc2;
      data[j] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
    }
  }
  adept::bump_param_version();
}

}  // namespace adept::optim
