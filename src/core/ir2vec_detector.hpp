// The IR2vec + decision-tree model of Figure 4: its options and the
// training routine core::Ir2vecDetector runs on every training set. GA
// feature selection (§IV-A) is applied per training set when enabled.
// The evaluation protocols the paper runs it through (Intra / Mix /
// Cross, per-label, ablations) live in core::EvalEngine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/features.hpp"
#include "ml/decision_tree.hpp"
#include "ml/genetic.hpp"

namespace mpidetect::core {

struct Ir2vecOptions {
  bool use_ga = true;
  ml::GaConfig ga;           // paper defaults (population 2500, 25 gens)
  int folds = 10;            // paper's cross-validation protocol
  std::uint64_t seed = 1;    // fold assignment + GA fitness split
  unsigned threads = 0;      // 0 = hardware concurrency
};

/// Trains a DT (optionally on GA-selected features) on the given rows.
/// Exposed for the Hypre case study and the examples.
struct TrainedIr2vec {
  ml::DecisionTree tree;
  std::vector<std::size_t> selected_features;  // empty = all
  std::size_t predict(const std::vector<double>& row) const;
};

TrainedIr2vec train_ir2vec(const std::vector<std::vector<double>>& X,
                           const std::vector<std::size_t>& y,
                           const Ir2vecOptions& opts);
/// The same on the rows X[rows[i]] labelled y[i], read in place through
/// a sorted-column table of those rows that this call builds.
TrainedIr2vec train_ir2vec(const std::vector<std::vector<double>>& X,
                           std::span<const std::size_t> rows,
                           std::span<const std::size_t> y,
                           const Ir2vecOptions& opts);
/// The same on the table rows `rows` labelled y[i]: the final fit and
/// every GA fitness fit filter the shared table instead of sorting.
TrainedIr2vec train_ir2vec(const ml::SortedColumns& table,
                           std::span<const std::size_t> rows,
                           std::span<const std::size_t> y,
                           const Ir2vecOptions& opts);

}  // namespace mpidetect::core
