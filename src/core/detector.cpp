#include "core/detector.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "corpus/corpus.hpp"
#include "support/check.hpp"
#include "support/threads.hpp"

namespace mpidetect::core {

std::string_view detector_kind_name(DetectorKind k) {
  switch (k) {
    case DetectorKind::Static: return "static";
    case DetectorKind::Dynamic: return "dynamic";
    case DetectorKind::Learned: return "learned";
  }
  MPIDETECT_UNREACHABLE("bad DetectorKind");
}

std::string_view outcome_name(Verdict::Outcome o) {
  switch (o) {
    case Verdict::Outcome::Correct: return "correct";
    case Verdict::Outcome::Incorrect: return "incorrect";
    case Verdict::Outcome::Timeout: return "timeout";
    case Verdict::Outcome::RuntimeErr: return "runtime-error";
    case Verdict::Outcome::CompileErr: return "compile-error";
  }
  MPIDETECT_UNREACHABLE("bad Verdict::Outcome");
}

namespace {

/// ml::GraphSource over a streaming case source: each fetch materializes
/// just the requested training row and extracts its graph into the
/// source's own buffer — the whole corpus never becomes resident.
class StreamGraphSource final : public ml::GraphSource {
 public:
  StreamGraphSource(const corpus::CaseSource& src,
                    std::span<const std::size_t> train_idx,
                    passes::OptLevel opt)
      : src_(src), idx_(train_idx), opt_(opt) {}

  std::size_t size() const override { return idx_.size(); }

  const programl::ProgramGraph& fetch(std::size_t pos) override {
    const std::size_t row = idx_[pos];
    step_ = extract_graphs(corpus::load_window(src_, std::span(&row, 1)),
                           opt_);
    return step_.graphs[0];
  }

 private:
  const corpus::CaseSource& src_;
  std::span<const std::size_t> idx_;
  passes::OptLevel opt_;
  GraphSet step_;  // the graph of the step last fetched
};

}  // namespace

void Detector::use_cache(const std::shared_ptr<EncodingCache>&) {}

void Detector::prepare(const datasets::Dataset&, unsigned) {}

void Detector::fit(const datasets::Dataset&, std::span<const std::size_t>,
                   std::span<const std::size_t>, const FitSpec&) {}

void Detector::fit_stream(const corpus::CaseSource& src,
                          std::span<const std::size_t> train_idx,
                          std::span<const std::size_t> y, const FitSpec& spec,
                          std::size_t window) {
  (void)window;
  MPIDETECT_EXPECTS(train_idx.size() == y.size());
  if (!trainable()) return;
  // Fallback: materialize the whole training selection. Correct for any
  // detector; the learned detectors override with windowed paths.
  const datasets::Dataset ds = corpus::load_window(src, train_idx);
  const ScopedDiscard discard(*this, ds);
  std::vector<std::size_t> all_idx(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) all_idx[i] = i;
  fit(ds, all_idx, y, spec);
}

void Detector::discard(const datasets::Dataset&) {}

std::vector<Verdict> Detector::run(std::span<const datasets::Case> cases) {
  datasets::Dataset batch;
  batch.name = "batch";
  batch.cases.assign(cases.begin(), cases.end());
  const ScopedDiscard discard(*this, batch);
  prepare(batch);
  std::vector<Verdict> out;
  out.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out.push_back(evaluate(batch, i));
  }
  return out;
}

std::vector<Verdict> Detector::run_indexed(const datasets::Dataset& ds,
                                           std::span<const std::size_t> idx) {
  std::vector<Verdict> out;
  out.reserve(idx.size());
  for (const std::size_t i : idx) {
    MPIDETECT_EXPECTS(i < ds.size());
    out.push_back(evaluate(ds, i));
  }
  return out;
}

// ---- ToolDetector -----------------------------------------------------------

ToolDetector::ToolDetector(ToolFactory factory, DetectorKind kind)
    : factory_(std::move(factory)), tool_(factory_()), kind_(kind) {
  MPIDETECT_EXPECTS(tool_ != nullptr);
}

std::unique_ptr<Detector> ToolDetector::clone() const {
  return std::make_unique<ToolDetector>(factory_, kind_);
}

Verdict ToolDetector::evaluate(const datasets::Dataset& ds, std::size_t idx) {
  Verdict v;
  v.outcome = tool_->check(ds.cases[idx]);
  return v;
}

// ---- Ir2vecDetector ---------------------------------------------------------

Ir2vecDetector::Ir2vecDetector(DetectorConfig cfg) : cfg_(std::move(cfg)) {
  if (!cfg_.cache) cfg_.cache = std::make_shared<EncodingCache>();
}

std::unique_ptr<Detector> Ir2vecDetector::clone() const {
  return std::make_unique<Ir2vecDetector>(cfg_);
}

EvalOptions Ir2vecDetector::eval_defaults() const {
  EvalOptions o;
  o.folds = cfg_.ir2vec.folds;
  o.seed = cfg_.ir2vec.seed;
  return o;
}

void Ir2vecDetector::use_cache(const std::shared_ptr<EncodingCache>& cache) {
  if (cache && cache != cfg_.cache) {
    cfg_.cache = cache;
    bound_.clear();
  }
}

const FeatureEntry& Ir2vecDetector::entry(const datasets::Dataset& ds,
                                          unsigned threads) {
  if (const auto it = bound_.find(&ds); it != bound_.end()) return *it->second;
  return cfg_.cache->feature_entry(ds, cfg_.feature_opt, cfg_.normalization,
                                   cfg_.vocab_seed, threads);
}

void Ir2vecDetector::prepare(const datasets::Dataset& ds, unsigned threads) {
  bound_[&ds] = &cfg_.cache->feature_entry(ds, cfg_.feature_opt,
                                           cfg_.normalization,
                                           cfg_.vocab_seed, threads);
}

void Ir2vecDetector::discard(const datasets::Dataset& ds) {
  cfg_.cache->erase(ds);
  bound_.erase(&ds);
}

void Ir2vecDetector::fit(const datasets::Dataset& ds,
                         std::span<const std::size_t> train_idx,
                         std::span<const std::size_t> y, const FitSpec& spec) {
  MPIDETECT_EXPECTS(train_idx.size() == y.size());
  prepare(ds, spec.threads);
  train(bound_.at(&ds)->columns, train_idx, y, spec);
}

void Ir2vecDetector::fit_stream(const corpus::CaseSource& src,
                                std::span<const std::size_t> train_idx,
                                std::span<const std::size_t> y,
                                const FitSpec& spec, std::size_t window) {
  MPIDETECT_EXPECTS(train_idx.size() == y.size());
  MPIDETECT_EXPECTS(window > 0);
  if (spec.multiclass) {
    throw ContractViolation(
        "Ir2vecDetector: streamed multi-class training unsupported");
  }
  if (cfg_.normalization == ir2vec::Normalization::Index) {
    throw ContractViolation(
        "Ir2vecDetector: Index normalization standardizes across the whole "
        "dataset and cannot stream; use Vector or None");
  }
  // Window at a time: materialize, embed, keep only the feature rows.
  // Rows are per-case deterministic under None/Vector normalization, so
  // the matrix equals the in-memory fit()'s row gather bit for bit.
  std::vector<std::vector<double>> X;
  X.reserve(train_idx.size());
  for (std::size_t b = 0; b < train_idx.size(); b += window) {
    const std::size_t end = std::min(train_idx.size(), b + window);
    const datasets::Dataset win =
        corpus::load_window(src, train_idx.subspan(b, end - b));
    FeatureSet fs = extract_features(win, cfg_.feature_opt,
                                     cfg_.normalization, cfg_.vocab_seed,
                                     spec.threads);
    for (auto& row : fs.X) X.push_back(std::move(row));
  }
  std::vector<std::size_t> rows(X.size());
  std::iota(rows.begin(), rows.end(), 0);
  const ml::SortedColumns table(X);
  train(table, rows, y, spec);
}

void Ir2vecDetector::train(const ml::SortedColumns& table,
                           std::span<const std::size_t> rows,
                           std::span<const std::size_t> y,
                           const FitSpec& spec) {
  Ir2vecOptions o = cfg_.ir2vec;
  if (spec.fold.has_value()) o.seed = cfg_.ir2vec.seed + *spec.fold;
  if (spec.threads != 0) {
    o.threads = spec.threads;
    o.ga.threads = spec.threads;
  }
  model_ = train_ir2vec(table, rows, y, o);
  multiclass_ = spec.multiclass;
}

Verdict Ir2vecDetector::evaluate(const datasets::Dataset& ds,
                                 std::size_t idx) {
  if (!model_.has_value()) {
    throw ContractViolation("Ir2vecDetector: fit() before evaluate()/run()");
  }
  const FeatureSet& fs = entry(ds, 0).set;
  const std::size_t pred = model_->predict(fs.X[idx]);
  Verdict v;
  if (multiclass_) {
    v.predicted_label = pred;
    v.outcome = (pred < fs.label_names.size() &&
                 fs.label_names[pred] == "Correct")
                    ? Verdict::Outcome::Correct
                    : Verdict::Outcome::Incorrect;
  } else {
    v.outcome = pred == 1 ? Verdict::Outcome::Incorrect
                          : Verdict::Outcome::Correct;
  }
  return v;
}

const TrainedIr2vec* Ir2vecDetector::model() const {
  return model_.has_value() ? &*model_ : nullptr;
}

// ---- GnnDetector ------------------------------------------------------------

Verdict gnn_verdict(std::span<const double> proba) {
  Verdict v;
  if (!std::all_of(proba.begin(), proba.end(),
                   [](double p) { return std::isfinite(p); })) {
    v.outcome = Verdict::Outcome::RuntimeErr;
    return v;
  }
  const std::size_t pred = static_cast<std::size_t>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
  v.outcome =
      pred == 1 ? Verdict::Outcome::Incorrect : Verdict::Outcome::Correct;
  v.confidence = proba[pred];
  return v;
}

GnnDetector::GnnDetector(DetectorConfig cfg) : cfg_(std::move(cfg)) {
  if (!cfg_.cache) cfg_.cache = std::make_shared<EncodingCache>();
}

GnnDetector::~GnnDetector() = default;

std::unique_ptr<Detector> GnnDetector::clone() const {
  return std::make_unique<GnnDetector>(cfg_);
}

EvalOptions GnnDetector::eval_defaults() const {
  EvalOptions o;
  o.folds = cfg_.gnn.folds;
  o.seed = cfg_.gnn.seed;
  return o;
}

void GnnDetector::use_cache(const std::shared_ptr<EncodingCache>& cache) {
  if (cache && cache != cfg_.cache) {
    cfg_.cache = cache;
    bound_.clear();
  }
}

const GraphSet& GnnDetector::graphs(const datasets::Dataset& ds,
                                    unsigned threads) {
  if (const auto it = bound_.find(&ds); it != bound_.end()) return *it->second;
  return cfg_.cache->graphs(ds, cfg_.graph_opt, threads);
}

void GnnDetector::prepare(const datasets::Dataset& ds, unsigned threads) {
  bound_[&ds] = &cfg_.cache->graphs(ds, cfg_.graph_opt, threads);
}

void GnnDetector::discard(const datasets::Dataset& ds) {
  cfg_.cache->erase(ds);
  bound_.erase(&ds);
}

void GnnDetector::fit(const datasets::Dataset& ds,
                      std::span<const std::size_t> train_idx,
                      std::span<const std::size_t> y, const FitSpec& spec) {
  MPIDETECT_EXPECTS(train_idx.size() == y.size());
  prepare(ds, spec.threads);
  ml::ResidentGraphSource graphs(bound_.at(&ds)->graphs, train_idx);
  train(graphs, y, spec);
}

void GnnDetector::fit_stream(const corpus::CaseSource& src,
                             std::span<const std::size_t> train_idx,
                             std::span<const std::size_t> y,
                             const FitSpec& spec, std::size_t window) {
  MPIDETECT_EXPECTS(train_idx.size() == y.size());
  (void)window;  // the model takes one graph per step
  StreamGraphSource graphs(src, train_idx, cfg_.graph_opt);
  train(graphs, y, spec);
}

void GnnDetector::train(ml::GraphSource& graphs,
                        std::span<const std::size_t> y, const FitSpec& spec) {
  if (spec.multiclass) {
    throw ContractViolation("GnnDetector: multi-class training unsupported");
  }
  ml::GnnConfig cfg = cfg_.gnn.cfg;
  cfg.classes = 2;
  cfg.seed = spec.fold.has_value() ? cfg_.gnn.seed * 97 + *spec.fold
                                   : cfg_.gnn.seed;
  model_ = std::make_unique<ml::GnnModel>(cfg);
  model_->fit(graphs, y);
}

Verdict GnnDetector::evaluate(const datasets::Dataset& ds, std::size_t idx) {
  if (!model_) {
    throw ContractViolation("GnnDetector: fit() before evaluate()/run()");
  }
  const GraphSet& gs = graphs(ds, 0);
  return gnn_verdict(model_->predict_proba(gs.graphs[idx]));
}

std::vector<Verdict> GnnDetector::run(std::span<const datasets::Case> cases) {
  if (!model_) {
    throw ContractViolation("GnnDetector: fit() before evaluate()/run()");
  }
  // Ad-hoc batches are encoded directly, bypassing the shared cache:
  // nothing to accumulate (in memory or in the spill directory),
  // nothing to discard, and no bound-dataset state to invalidate on an
  // exception mid-batch.
  datasets::Dataset batch;
  batch.name = "batch";
  batch.cases.assign(cases.begin(), cases.end());
  const GraphSet gs = extract_graphs(batch, cfg_.graph_opt);
  const std::span<const programl::ProgramGraph> span(gs.graphs);
  const auto probas = model_->predict_proba(span);
  std::vector<Verdict> out;
  out.reserve(probas.size());
  for (const auto& proba : probas) out.push_back(gnn_verdict(proba));
  return out;
}

std::vector<Verdict> GnnDetector::run_indexed(
    const datasets::Dataset& ds, std::span<const std::size_t> idx) {
  if (!model_) {
    throw ContractViolation("GnnDetector: fit() before evaluate()/run()");
  }
  // The whole dataset is encoded once through the shared cache (warm
  // after the first batch touching it; with a spill dir, warm across
  // daemon restarts); per batch we only gather the selected graphs and
  // push them through mini-batched inference.
  const GraphSet& gs = graphs(ds, 0);
  std::vector<programl::ProgramGraph> selected;
  selected.reserve(idx.size());
  for (const std::size_t i : idx) {
    MPIDETECT_EXPECTS(i < gs.size());
    selected.push_back(gs.graphs[i]);
  }
  const std::span<const programl::ProgramGraph> span(selected);
  const auto probas = model_->predict_proba(span);
  std::vector<Verdict> out;
  out.reserve(probas.size());
  for (const auto& proba : probas) out.push_back(gnn_verdict(proba));
  return out;
}

// ---- DetectorRegistry -------------------------------------------------------

DetectorRegistry::DetectorRegistry() {
  // The dynamic tools, each under one key that runs the paper's single
  // round-robin schedule and one "-sweep" key that runs every case under
  // cfg.dynamic_schedules seeded interleavings (the round-robin one plus
  // Random schedules) and reports an error seen under any of them. See
  // mpisim/sweep.hpp and docs/TESTING.md.
  for (const auto& [tool, make] :
       {std::pair{"itac", &verify::make_itac_lite},
        std::pair{"must", &verify::make_must_lite}}) {
    for (const bool sweep : {false, true}) {
      add(std::string(tool) + (sweep ? "-sweep" : ""),
          [make, sweep](const DetectorConfig& cfg) {
            const int n = sweep ? cfg.dynamic_schedules : 1;
            const std::uint64_t seed = cfg.schedule_seed;
            return std::make_unique<ToolDetector>(
                [make, n, seed] { return make(n, seed); },
                DetectorKind::Dynamic);
          });
    }
  }
  add("parcoach", [](const DetectorConfig&) {
    return std::make_unique<ToolDetector>(verify::make_parcoach_lite,
                                          DetectorKind::Static);
  });
  add("mpi-checker", [](const DetectorConfig&) {
    return std::make_unique<ToolDetector>(verify::make_mpichecker_lite,
                                          DetectorKind::Static);
  });
  add("ir2vec", [](const DetectorConfig& cfg) {
    return std::make_unique<Ir2vecDetector>(cfg);
  });
  add("gnn", [](const DetectorConfig& cfg) {
    return std::make_unique<GnnDetector>(cfg);
  });
}

DetectorRegistry& DetectorRegistry::global() {
  static DetectorRegistry registry;
  return registry;
}

void DetectorRegistry::add(std::string name, Factory factory) {
  MPIDETECT_EXPECTS(!name.empty());
  MPIDETECT_EXPECTS(factory != nullptr);
  const auto [it, inserted] =
      factories_.emplace(std::move(name), std::move(factory));
  if (!inserted) {
    throw ContractViolation("detector already registered: " + it->first);
  }
}

bool DetectorRegistry::contains(std::string_view name) const {
  return factories_.find(name) != factories_.end();
}

std::vector<std::string> DetectorRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

std::unique_ptr<Detector> DetectorRegistry::create(
    std::string_view name, const DetectorConfig& cfg) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string known;
    for (const auto& n : names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw ContractViolation("unknown detector: " + std::string(name) +
                            " (known: " + known + ")");
  }
  return it->second(cfg);
}

}  // namespace mpidetect::core
