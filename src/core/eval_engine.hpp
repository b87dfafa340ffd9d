// The one evaluation engine behind every bench, example and test: the
// cross-cutting protocols the paper runs each detector through (straight
// dataset sweeps, Intra/Mix stratified k-fold CV, Cross suite-transfer,
// and the label-exclusion ablations of §V-E), thread-parallel over one
// shared worker pool, with dataset encodings cached so each corpus is
// embedded once per run no matter how many detectors consume it.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "corpus/corpus.hpp"
#include "ml/metrics.hpp"
#include "support/threads.hpp"

namespace mpidetect::core {

/// Structured result of one protocol run. `confusion` is what legacy
/// ml::Confusion consumers read; the rest adds the per-label breakdown,
/// the raw verdicts and the error-outcome tallies of Table III.
struct EvalReport {
  std::string detector;
  std::string protocol;  // "sweep" / "kfold" / "cross"
  std::string train_dataset;
  std::string valid_dataset;

  ml::Confusion confusion;
  /// Tallies indexed by Verdict::Outcome (Correct..CompileErr).
  std::array<std::size_t, kNumOutcomes> outcome_counts{};
  /// Label -> (correctly classified, total) over the validation set.
  /// Under a multiclass protocol "correct" means the exact label was
  /// predicted; otherwise that the binary flag matched.
  std::map<std::string, std::pair<std::size_t, std::size_t>> per_label;
  /// One verdict per validation case, in dataset order.
  std::vector<Verdict> verdicts;

  std::size_t cases = 0;
  double wall_seconds = 0.0;
};

/// Result of a label-exclusion ablation (Figures 8 and 9).
struct AblationReport {
  std::size_t detected = 0;  // excluded-label samples still flagged
  std::size_t total = 0;     // excluded-label samples evaluated
  double wall_seconds = 0.0;

  double rate() const {
    return total == 0 ? 0.0 : static_cast<double>(detected) / total;
  }
};

/// Knobs of the on-disk protocol path (ignored for a resident source).
struct StreamOptions {
  /// Cases materialized at a time during evaluation and windowed
  /// feature extraction. Peak resident cases per protocol stage is one
  /// window (plus one mmapped shard inside CorpusReader).
  std::size_t window = 256;
};

/// Every protocol has one implementation, over corpus::CaseSource. What
/// the source is decides only how cases are reached, never what is
/// computed:
///  - resident (CaseSource::resident(), e.g. a DatasetSource — what the
///    Dataset overloads wrap): the dataset is encoded once, detectors
///    train through Detector::fit, and binary k-fold folds run in
///    parallel on the pool;
///  - on disk (a CorpusReader): cases are materialized
///    StreamOptions::window at a time, detectors train through
///    Detector::fit_stream, and folds run serially (the reader maps
///    shards lazily and is not thread-safe). This is the path that runs
///    on corpora larger than RAM.
/// Over the same cases in the same order both give identical reports
/// (tests/corpus_eval_test.cpp).
class EvalEngine {
 public:
  /// \brief Builds the engine with its shared worker pool and cache.
  /// \param threads pool width; 0 = hardware concurrency.
  /// \param cache encoding cache shared with the detectors'
  ///        DetectorConfig so each corpus is embedded once per run
  ///        (null allocates a private one). Give the cache a spill
  ///        directory (EncodingCache::set_spill_dir) to also reuse
  ///        encodings across processes.
  explicit EvalEngine(unsigned threads = 0,
                      std::shared_ptr<EncodingCache> cache = nullptr);

  const std::shared_ptr<EncodingCache>& cache() const { return cache_; }
  unsigned threads() const { return pool_.size(); }

  /// \brief Straight sweep: every case through the detector once (the
  /// expert-tool protocol; also what `mpiguard predict` runs against a
  /// loaded bundle).
  /// \pre a Learned detector must be fitted — or restored via
  ///      DetectorRegistry::load_bundle — first.
  /// \return per-case verdicts in source order plus aggregates.
  EvalReport sweep(Detector& det, const corpus::CaseSource& src,
                   const StreamOptions& sopts = {});
  EvalReport sweep(Detector& det, const datasets::Dataset& ds);

  /// \brief Stratified k-fold cross-validation (the Intra and Mix
  /// protocols of Table II; Figure 6 when `opts.multiclass`).
  ///
  /// Folds are stratified over labels read from source metadata.
  /// Trainable detectors are cloned per fold and trained on the fold
  /// complement; untrainable detectors degenerate to a sweep. Binary
  /// folds train at one thread each; the per-label protocol trains
  /// folds serially with the detector's own thread budget. The Dataset
  /// overload without options uses the detector's eval_defaults() (the
  /// paper's fold count and seed).
  /// \throws ContractViolation for `opts.multiclass` over a source that
  ///         is not resident (a window's label table is not the
  ///         corpus's).
  EvalReport kfold(Detector& det, const corpus::CaseSource& src,
                   const EvalOptions& opts, const StreamOptions& sopts = {});
  EvalReport kfold(Detector& det, const datasets::Dataset& ds,
                   const EvalOptions& opts);
  EvalReport kfold(Detector& det, const datasets::Dataset& ds);

  /// \brief Suite transfer (the Cross protocol of §V-C): train on all
  /// of `train` with binary labels, validate on all of `valid`.
  /// \post `det` is left fitted — follow with save_bundle to persist
  ///       the transferred model.
  EvalReport cross(Detector& det, const corpus::CaseSource& train,
                   const corpus::CaseSource& valid,
                   const StreamOptions& sopts = {});
  EvalReport cross(Detector& det, const datasets::Dataset& train,
                   const datasets::Dataset& valid);

  /// \brief Trains `det` on the whole source with binary labels (the
  /// front half of cross(); what `mpiguard train` runs before saving).
  void fit_full(Detector& det, const corpus::CaseSource& src,
                const StreamOptions& sopts = {});
  void fit_full(Detector& det, const datasets::Dataset& ds);

  /// \brief Label-exclusion ablation (Figures 8, 9): k-fold CV never
  /// training on samples of `excluded` labels.
  /// \param measured count detections only over this excluded label
  ///        (all excluded labels when nullopt).
  /// \return how many excluded-label samples the binary model still
  ///         flags at validation, over how many were evaluated.
  /// \throws ContractViolation for labels absent from the source.
  AblationReport ablation(Detector& det, const corpus::CaseSource& src,
                          const std::vector<std::string>& excluded,
                          const std::optional<std::string>& measured,
                          const EvalOptions& opts,
                          const StreamOptions& sopts = {});
  AblationReport ablation(Detector& det, const datasets::Dataset& ds,
                          const std::vector<std::string>& excluded,
                          const std::optional<std::string>& measured,
                          const EvalOptions& opts);

 private:
  struct LabelTable {
    std::vector<std::string> names;           // first-occurrence order
    std::vector<std::size_t> index_per_case;  // case -> names index
    std::size_t index_of(const std::string& name) const;
  };
  static LabelTable label_table(const corpus::CaseSource& src);
  static std::vector<std::size_t> binary_labels(const corpus::CaseSource& src);

  /// Shares the engine cache with `det` and, for a resident source,
  /// encodes it once for the whole protocol (an on-disk source is
  /// encoded window by window in evaluate()).
  void prepare(Detector& det, const corpus::CaseSource& src);

  /// Writes `det`'s verdicts for the cases at `idx` to verdicts[idx[k]].
  /// A resident source is evaluated in place (`det` prepared on or
  /// fitted to it); an on-disk one `window` cases at a time — prepare,
  /// evaluate, discard. Cases run on the pool when `parallel` and the
  /// detector allow it (never from inside a pool task).
  void evaluate(Detector& det, const corpus::CaseSource& src,
                std::span<const std::size_t> idx, std::size_t window,
                bool parallel, std::vector<Verdict>& verdicts);

  /// One fold: clones `det`, trains the clone on `train_idx` (labels
  /// `train_y`, parallel to it) and evaluates it on `val_idx`.
  void run_fold(Detector& det, const corpus::CaseSource& src,
                std::span<const std::size_t> train_idx,
                std::span<const std::size_t> train_y,
                std::span<const std::size_t> val_idx, const FitSpec& spec,
                std::size_t window, bool parallel_eval,
                std::vector<Verdict>& verdicts);

  /// Aggregates `verdicts` (one per case of `valid`) from source
  /// metadata: labels and ground truth are never read from decoded
  /// cases.
  EvalReport make_report(Detector& det, std::string protocol,
                         const corpus::CaseSource& train,
                         const corpus::CaseSource& valid,
                         std::vector<Verdict> verdicts, bool multiclass);

  ThreadPool pool_;
  std::shared_ptr<EncodingCache> cache_;
};

}  // namespace mpidetect::core
