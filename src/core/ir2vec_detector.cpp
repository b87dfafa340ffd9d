#include "core/ir2vec_detector.hpp"

#include <algorithm>

#include "ml/kfold.hpp"
#include "support/check.hpp"

namespace mpidetect::core {

namespace {

std::vector<std::vector<double>> select_rows(
    const std::vector<std::vector<double>>& X,
    const std::vector<std::size_t>& idx) {
  std::vector<std::vector<double>> out;
  out.reserve(idx.size());
  for (const std::size_t i : idx) out.push_back(X[i]);
  return out;
}

std::vector<std::size_t> select_labels(const std::vector<std::size_t>& y,
                                       const std::vector<std::size_t>& idx) {
  std::vector<std::size_t> out;
  out.reserve(idx.size());
  for (const std::size_t i : idx) out.push_back(y[i]);
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

std::vector<std::size_t> run_ga(const std::vector<std::vector<double>>& X,
                                const std::vector<std::size_t>& y,
                                const Ir2vecOptions& opts) {
  MPIDETECT_EXPECTS(!X.empty());
  const std::size_t dim = X.front().size();
  // 5-fold-ish split of the training set for fitness evaluation.
  const auto folds = ml::stratified_kfold(y, 5, opts.seed ^ 0xfeedu);
  const auto& val_idx = folds.front();
  const auto train_idx = ml::fold_complement(val_idx, y.size());
  const auto Xt = select_rows(X, train_idx);
  const auto yt = select_labels(y, train_idx);
  const auto Xv = select_rows(X, val_idx);
  const auto yv = select_labels(y, val_idx);

  const auto fitness = [&](const std::vector<std::size_t>& features) {
    ml::DecisionTreeConfig cfg;
    cfg.feature_subset = features;
    ml::DecisionTree dt(cfg);
    dt.fit(Xt, yt);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < Xv.size(); ++i) {
      correct += (dt.predict(Xv[i]) == yv[i]);
    }
    return static_cast<double>(correct) /
           static_cast<double>(std::max<std::size_t>(Xv.size(), 1));
  };
  return ml::select_features(dim, fitness, fitness_ga_config(opts))
      .best_features;
}

}  // namespace

std::size_t TrainedIr2vec::predict(const std::vector<double>& row) const {
  return tree.predict(row);
}

TrainedIr2vec train_ir2vec(const std::vector<std::vector<double>>& X,
                           const std::vector<std::size_t>& y,
                           const Ir2vecOptions& opts) {
  TrainedIr2vec model;
  ml::DecisionTreeConfig cfg;
  if (opts.use_ga) {
    model.selected_features = run_ga(X, y, opts);
    cfg.feature_subset = model.selected_features;
  }
  model.tree = ml::DecisionTree(cfg);
  model.tree.fit(X, y);
  return model;
}

}  // namespace mpidetect::core
