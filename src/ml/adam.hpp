// Adam optimizer (Kingma & Ba) over a parameter list — the paper trains
// the GNN with Adam at learning rate 4e-4 for 10 epochs.
#pragma once

#include <vector>

#include "ml/autograd.hpp"

namespace mpidetect::ml {

class Adam final {
 public:
  explicit Adam(std::vector<Var> params, double lr = 4e-4,
                double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8);

  /// Applies one update from the accumulated gradients, then zeroes them.
  /// A tensor that has only ever had all-zero gradients is skipped: its
  /// moments are still +0.0, so the update would change no bit.
  void step();

  double learning_rate() const { return lr_; }

 private:
  std::vector<Var> params_;
  std::vector<Matrix> m_, v_;
  std::vector<char> live_;  // has taken an update (moments may be nonzero)
  double lr_, beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
};

}  // namespace mpidetect::ml
