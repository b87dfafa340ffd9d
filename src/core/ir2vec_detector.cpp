#include "core/ir2vec_detector.hpp"

#include <algorithm>
#include <numeric>

#include "ml/kfold.hpp"
#include "support/check.hpp"

namespace mpidetect::core {

namespace {

/// v[idx[0]], v[idx[1]], ...: the row ids or labels of a subset.
std::vector<std::size_t> pick(std::span<const std::size_t> v,
                              const std::vector<std::size_t>& idx) {
  std::vector<std::size_t> out;
  out.reserve(idx.size());
  for (const std::size_t i : idx) out.push_back(v[i]);
  return out;
}

/// GA fitness: hold out 20% of the training rows (stratified) and score
/// a DT trained on the candidate feature subset.
ml::GaConfig fitness_ga_config(const Ir2vecOptions& opts) {
  ml::GaConfig ga = opts.ga;
  ga.seed = opts.seed * 1000003 + 17;
  if (ga.threads == 0) ga.threads = opts.threads;
  return ga;
}

std::vector<std::size_t> run_ga(const ml::SortedColumns& table,
                                std::span<const std::size_t> rows,
                                std::span<const std::size_t> y,
                                const Ir2vecOptions& opts) {
  MPIDETECT_EXPECTS(!rows.empty());
  // 5-fold-ish split of the training set for fitness evaluation.
  const auto folds = ml::stratified_kfold({y.begin(), y.end()}, 5,
                                          opts.seed ^ 0xfeedu);
  const auto& val_idx = folds.front();
  const auto train_idx = ml::fold_complement(val_idx, y.size());
  const auto rt = pick(rows, train_idx);
  const auto yt = pick(y, train_idx);
  const auto rv = pick(rows, val_idx);
  const auto yv = pick(y, val_idx);

  // Every fitness fit filters its candidate features out of the shared
  // table; the first ones to arrive sort it together.
  const auto fitness = [&](const std::vector<std::size_t>& features) {
    ml::DecisionTreeConfig cfg;
    cfg.feature_subset = features;
    ml::DecisionTree dt(cfg);
    dt.fit(table, rt, yt);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < rv.size(); ++i) {
      correct +=
          (dt.predict(table.matrix()[table.x_row(rv[i])]) == yv[i]);
    }
    return static_cast<double>(correct) /
           static_cast<double>(std::max<std::size_t>(rv.size(), 1));
  };
  return ml::select_features(table.width(), fitness, fitness_ga_config(opts))
      .best_features;
}

}  // namespace

std::size_t TrainedIr2vec::predict(const std::vector<double>& row) const {
  return tree.predict(row);
}

TrainedIr2vec train_ir2vec(const std::vector<std::vector<double>>& X,
                           const std::vector<std::size_t>& y,
                           const Ir2vecOptions& opts) {
  std::vector<std::size_t> rows(X.size());
  std::iota(rows.begin(), rows.end(), 0);
  return train_ir2vec(X, rows, y, opts);
}

TrainedIr2vec train_ir2vec(const std::vector<std::vector<double>>& X,
                           std::span<const std::size_t> rows,
                           std::span<const std::size_t> y,
                           const Ir2vecOptions& opts) {
  const ml::SortedColumns table(X, {rows.begin(), rows.end()});
  std::vector<std::size_t> own(rows.size());
  std::iota(own.begin(), own.end(), 0);
  return train_ir2vec(table, own, y, opts);
}

TrainedIr2vec train_ir2vec(const ml::SortedColumns& table,
                           std::span<const std::size_t> rows,
                           std::span<const std::size_t> y,
                           const Ir2vecOptions& opts) {
  TrainedIr2vec model;
  ml::DecisionTreeConfig cfg;
  if (opts.use_ga) {
    model.selected_features = run_ga(table, rows, y, opts);
    cfg.feature_subset = model.selected_features;
  }
  model.tree = ml::DecisionTree(cfg);
  model.tree.fit(table, rows, y);
  return model;
}

}  // namespace mpidetect::core
