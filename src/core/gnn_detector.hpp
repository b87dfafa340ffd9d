// Options of the GNN detector (Figure 5): the model configuration plus
// the paper's fold count and seed for its evaluation protocols, which
// live in core::EvalEngine.
#pragma once

#include <cstdint>

#include "core/features.hpp"
#include "ml/gnn.hpp"

namespace mpidetect::core {

struct GnnOptions {
  ml::GnnConfig cfg;       // classes is overwritten per protocol
  int folds = 10;
  std::uint64_t seed = 2;
};

}  // namespace mpidetect::core
