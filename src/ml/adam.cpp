#include "ml/adam.hpp"

#include <cmath>

#include "ml/kernels.hpp"

namespace mpidetect::ml {

Adam::Adam(std::vector<Var> params, double lr, double beta1, double beta2,
           double eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Var& p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::step() {
  ++t_;
  const kernels::AdamCoeffs c{
      lr_, beta1_, beta2_, eps_,
      1.0 - std::pow(beta1_, static_cast<double>(t_)),
      1.0 - std::pow(beta2_, static_cast<double>(t_))};
  // One dispatched row kernel per tensor updates value, moments and
  // zeroes the gradient in a single pass.
  const kernels::KernelFns& fns = kernels::fns();
  for (std::size_t i = 0; i < params_.size(); ++i) {
    VarNode& p = *params_[i];
    Matrix& g = p.ensure_grad();
    fns.adam_row(p.value.data().data(), m_[i].data().data(),
                 v_[i].data().data(), g.data().data(), g.size(), c);
  }
}

}  // namespace mpidetect::ml
