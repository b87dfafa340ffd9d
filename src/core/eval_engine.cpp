#include "core/eval_engine.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>

#include "ml/kfold.hpp"
#include "support/check.hpp"

namespace mpidetect::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<std::size_t> all_indices(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

std::vector<std::size_t> select(std::span<const std::size_t> values,
                                std::span<const std::size_t> idx) {
  std::vector<std::size_t> out;
  out.reserve(idx.size());
  for (const std::size_t i : idx) out.push_back(values[i]);
  return out;
}

/// Trains `det` on the `train_idx` cases of `src` (labels `y`, parallel
/// to train_idx): in place on a resident source, windowed on disk.
void fit(Detector& det, const corpus::CaseSource& src,
         std::span<const std::size_t> train_idx,
         std::span<const std::size_t> y, const FitSpec& spec,
         std::size_t window) {
  if (const datasets::Dataset* ds = src.resident()) {
    det.fit(*ds, train_idx, y, spec);
  } else {
    det.fit_stream(src, train_idx, y, spec, window);
  }
}

}  // namespace

EvalEngine::EvalEngine(unsigned threads, std::shared_ptr<EncodingCache> cache)
    : pool_(threads),
      cache_(cache ? std::move(cache) : std::make_shared<EncodingCache>()) {}

std::size_t EvalEngine::LabelTable::index_of(const std::string& name) const {
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) throw ContractViolation("unknown label: " + name);
  return static_cast<std::size_t>(it - names.begin());
}

EvalEngine::LabelTable EvalEngine::label_table(const corpus::CaseSource& src) {
  LabelTable t;
  t.index_per_case.reserve(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    const std::string name = src.label_name(i);
    const auto it = std::find(t.names.begin(), t.names.end(), name);
    t.index_per_case.push_back(static_cast<std::size_t>(it - t.names.begin()));
    if (it == t.names.end()) t.names.push_back(name);
  }
  return t;
}

std::vector<std::size_t> EvalEngine::binary_labels(
    const corpus::CaseSource& src) {
  std::vector<std::size_t> y(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) y[i] = src.incorrect(i) ? 1 : 0;
  return y;
}

void EvalEngine::prepare(Detector& det, const corpus::CaseSource& src) {
  det.use_cache(cache_);
  if (const datasets::Dataset* ds = src.resident()) {
    det.prepare(*ds, pool_.size());
  }
}

void EvalEngine::evaluate(Detector& det, const corpus::CaseSource& src,
                          std::span<const std::size_t> idx,
                          std::size_t window, bool parallel,
                          std::vector<Verdict>& verdicts) {
  MPIDETECT_EXPECTS(verdicts.size() == src.size());
  const auto each = [&](std::size_t n,
                        const std::function<void(std::size_t)>& fn) {
    if (parallel && det.parallel_eval_safe()) {
      pool_.parallel_for(n, fn);
    } else {
      for (std::size_t k = 0; k < n; ++k) fn(k);
    }
  };
  if (const datasets::Dataset* ds = src.resident()) {
    each(idx.size(),
         [&](std::size_t k) { verdicts[idx[k]] = det.evaluate(*ds, idx[k]); });
    return;
  }
  MPIDETECT_EXPECTS(window > 0);
  for (std::size_t b = 0; b < idx.size(); b += window) {
    const auto slots = idx.subspan(b, std::min(window, idx.size() - b));
    const datasets::Dataset win = corpus::load_window(src, slots);
    const ScopedDiscard discard(det, win);
    det.prepare(win, pool_.size());
    each(win.size(),
         [&](std::size_t j) { verdicts[slots[j]] = det.evaluate(win, j); });
  }
}

void EvalEngine::run_fold(Detector& det, const corpus::CaseSource& src,
                          std::span<const std::size_t> train_idx,
                          std::span<const std::size_t> train_y,
                          std::span<const std::size_t> val_idx,
                          const FitSpec& spec, std::size_t window,
                          bool parallel_eval, std::vector<Verdict>& verdicts) {
  auto fold_det = det.clone();
  fold_det->use_cache(cache_);
  fit(*fold_det, src, train_idx, train_y, spec, window);
  evaluate(*fold_det, src, val_idx, window, parallel_eval, verdicts);
}

EvalReport EvalEngine::make_report(Detector& det, std::string protocol,
                                   const corpus::CaseSource& train,
                                   const corpus::CaseSource& valid,
                                   std::vector<Verdict> verdicts,
                                   bool multiclass) {
  EvalReport r;
  r.detector = std::string(det.name());
  r.protocol = std::move(protocol);
  r.train_dataset = train.name();
  r.valid_dataset = valid.name();
  r.cases = valid.size();

  const LabelTable labels = label_table(valid);
  for (std::size_t i = 0; i < valid.size(); ++i) {
    const Verdict& v = verdicts[i];
    const bool truth = valid.incorrect(i);
    ++r.outcome_counts[static_cast<std::size_t>(v.outcome)];
    switch (v.outcome) {
      case Verdict::Outcome::Correct: r.confusion.add(truth, false); break;
      case Verdict::Outcome::Incorrect: r.confusion.add(truth, true); break;
      case Verdict::Outcome::Timeout: ++r.confusion.to; break;
      case Verdict::Outcome::RuntimeErr: ++r.confusion.re; break;
      case Verdict::Outcome::CompileErr: ++r.confusion.ce; break;
    }
    const std::size_t label = labels.index_per_case[i];
    auto& [correct, total] = r.per_label[labels.names[label]];
    ++total;
    if (multiclass) {
      correct += (v.predicted_label.has_value() && *v.predicted_label == label);
    } else {
      correct += (v.conclusive() && v.flagged() == truth);
    }
  }
  r.verdicts = std::move(verdicts);
  return r;
}

EvalReport EvalEngine::sweep(Detector& det, const corpus::CaseSource& src,
                             const StreamOptions& sopts) {
  const auto t0 = Clock::now();
  prepare(det, src);
  std::vector<Verdict> verdicts(src.size());
  evaluate(det, src, all_indices(src.size()), sopts.window, true, verdicts);
  EvalReport r = make_report(det, "sweep", src, src, std::move(verdicts),
                             /*multiclass=*/false);
  r.wall_seconds = seconds_since(t0);
  return r;
}

EvalReport EvalEngine::kfold(Detector& det, const corpus::CaseSource& src,
                             const EvalOptions& opts,
                             const StreamOptions& sopts) {
  const auto t0 = Clock::now();
  const bool resident = src.resident() != nullptr;
  if (opts.multiclass && !resident) {
    throw ContractViolation(
        "EvalEngine: the per-label k-fold needs a resident source (a "
        "window's label table is not the corpus's)");
  }
  if (!det.trainable()) {
    // Nothing to train per fold: the protocol degenerates to a sweep.
    EvalReport r = sweep(det, src, sopts);
    r.protocol = "kfold";
    r.wall_seconds = seconds_since(t0);
    return r;
  }
  prepare(det, src);

  const std::size_t n = src.size();
  const std::vector<std::size_t> y = opts.multiclass
                                         ? label_table(src).index_per_case
                                         : binary_labels(src);
  const auto folds =
      ml::stratified_kfold(y, static_cast<std::size_t>(opts.folds), opts.seed);

  // Resident binary folds train in parallel on the pool, each capped at
  // one training thread. The per-label protocol trains folds serially
  // with the detector's own thread budget. On-disk folds run serially at
  // the one-thread budget: CorpusReader is not thread-safe.
  const bool parallel_folds = resident && !opts.multiclass;
  std::vector<Verdict> verdicts(n);
  const auto run = [&](std::size_t f) {
    const FitSpec spec{f, opts.multiclass ? 0u : 1u, opts.multiclass};
    const auto train_idx = ml::fold_complement(folds[f], n);
    run_fold(det, src, train_idx, select(y, train_idx), folds[f], spec,
             sopts.window, !parallel_folds, verdicts);
  };
  if (parallel_folds) {
    pool_.parallel_for(folds.size(), run);
  } else {
    for (std::size_t f = 0; f < folds.size(); ++f) run(f);
  }

  EvalReport r = make_report(det, "kfold", src, src, std::move(verdicts),
                             opts.multiclass);
  r.wall_seconds = seconds_since(t0);
  return r;
}

EvalReport EvalEngine::cross(Detector& det, const corpus::CaseSource& train,
                             const corpus::CaseSource& valid,
                             const StreamOptions& sopts) {
  const auto t0 = Clock::now();
  fit_full(det, train, sopts);
  prepare(det, valid);
  std::vector<Verdict> verdicts(valid.size());
  evaluate(det, valid, all_indices(valid.size()), sopts.window, true,
           verdicts);
  EvalReport r = make_report(det, "cross", train, valid, std::move(verdicts),
                             /*multiclass=*/false);
  r.wall_seconds = seconds_since(t0);
  return r;
}

void EvalEngine::fit_full(Detector& det, const corpus::CaseSource& src,
                          const StreamOptions& sopts) {
  prepare(det, src);
  if (!det.trainable()) return;
  // No fold, default thread budget.
  fit(det, src, all_indices(src.size()), binary_labels(src), FitSpec{},
      sopts.window);
}

AblationReport EvalEngine::ablation(Detector& det,
                                    const corpus::CaseSource& src,
                                    const std::vector<std::string>& excluded,
                                    const std::optional<std::string>& measured,
                                    const EvalOptions& opts,
                                    const StreamOptions& sopts) {
  const auto t0 = Clock::now();
  prepare(det, src);

  const std::size_t n = src.size();
  const LabelTable labels = label_table(src);
  std::vector<bool> is_excluded(n, false);
  std::vector<bool> is_measured(n, false);
  for (const auto& name : excluded) {
    const std::size_t label = labels.index_of(name);
    for (std::size_t i = 0; i < n; ++i) {
      if (labels.index_per_case[i] == label) {
        is_excluded[i] = true;
        if (!measured.has_value() || name == *measured) is_measured[i] = true;
      }
    }
  }

  const auto y = binary_labels(src);
  const auto folds =
      ml::stratified_kfold(y, static_cast<std::size_t>(opts.folds), opts.seed);

  AblationReport r;
  std::vector<Verdict> verdicts(n);
  for (std::size_t f = 0; f < folds.size(); ++f) {
    std::vector<std::size_t> train_idx, val_idx;
    for (const std::size_t i : ml::fold_complement(folds[f], n)) {
      if (!is_excluded[i]) train_idx.push_back(i);  // never train on them
    }
    for (const std::size_t i : folds[f]) {
      if (is_measured[i]) val_idx.push_back(i);
    }
    run_fold(det, src, train_idx, select(y, train_idx), val_idx,
             FitSpec{f, 0, false}, sopts.window, true, verdicts);
    for (const std::size_t i : val_idx) {
      ++r.total;
      r.detected += verdicts[i].flagged();
    }
  }
  r.wall_seconds = seconds_since(t0);
  return r;
}

// ---- Dataset forwards: a dataset is a resident source ----------------------

EvalReport EvalEngine::sweep(Detector& det, const datasets::Dataset& ds) {
  return sweep(det, corpus::DatasetSource(ds));
}

EvalReport EvalEngine::kfold(Detector& det, const datasets::Dataset& ds,
                             const EvalOptions& opts) {
  return kfold(det, corpus::DatasetSource(ds), opts);
}

EvalReport EvalEngine::kfold(Detector& det, const datasets::Dataset& ds) {
  return kfold(det, ds, det.eval_defaults());
}

EvalReport EvalEngine::cross(Detector& det, const datasets::Dataset& train,
                             const datasets::Dataset& valid) {
  return cross(det, corpus::DatasetSource(train), corpus::DatasetSource(valid));
}

void EvalEngine::fit_full(Detector& det, const datasets::Dataset& ds) {
  fit_full(det, corpus::DatasetSource(ds));
}

AblationReport EvalEngine::ablation(Detector& det, const datasets::Dataset& ds,
                                    const std::vector<std::string>& excluded,
                                    const std::optional<std::string>& measured,
                                    const EvalOptions& opts) {
  return ablation(det, corpus::DatasetSource(ds), excluded, measured, opts);
}

}  // namespace mpidetect::core
