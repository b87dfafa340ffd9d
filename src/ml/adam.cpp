#include "ml/adam.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "ml/kernels.hpp"

namespace mpidetect::ml {

namespace {

std::uint64_t bits_of(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

bool all_positive_zero(const Matrix& g) {
  std::uint64_t bits = 0;
  for (const double x : g.data()) bits |= bits_of(x);
  return bits == 0;
}

/// Whether adam_row leaves a parameter whose moments and gradient are
/// +0.0 exactly as it was (it does for any finite lr >= 0 and eps > 0).
/// Probed on p = -0.0, which every step other than +0.0 would move.
bool zero_gradient_is_identity(const kernels::KernelFns& fns,
                               const kernels::AdamCoeffs& c) {
  double p = -0.0, m = 0.0, v = 0.0, g = 0.0;
  fns.adam_row(&p, &m, &v, &g, 1, c);
  return bits_of(p) == bits_of(-0.0) && bits_of(m) == 0 && bits_of(v) == 0;
}

}  // namespace

Adam::Adam(std::vector<Var> params, double lr, double beta1, double beta2,
           double eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  live_.assign(params_.size(), 0);
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
  // While every gradient so far was +0.0, m and v are +0.0 and stay so,
  // and p - lr * 0 / (0 + eps) is p: the update is the identity, and
  // the tensor is skipped. A -0.0 counts as nonzero, so adam_row still
  // rewrites it to +0.0.
  const bool skip_idle = zero_gradient_is_identity(fns, c);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    VarNode& p = *params_[i];
    Matrix& g = p.ensure_grad();
    if (!live_[i]) {
      if (skip_idle && all_positive_zero(g)) continue;
      live_[i] = 1;
    }
    fns.adam_row(p.value.data().data(), m_[i].data().data(),
                 v_[i].data().data(), g.data().data(), g.size(), c);
  }
}

}  // namespace mpidetect::ml
