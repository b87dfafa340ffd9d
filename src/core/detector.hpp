// The unified detector surface of the repo: expert verification tools
// (ITAC/MUST/PARCOACH/MPI-Checker clones) and learned detectors
// (IR2vec+DT, ProGraML+GATv2) behind one polymorphic interface, plus a
// string-keyed registry that constructs any of the six by name. The
// cross-cutting evaluation protocols (k-fold CV, suite transfer,
// sweeps, ablations) live in EvalEngine (core/eval_engine.hpp).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/encoding_cache.hpp"
#include "core/gnn_detector.hpp"
#include "core/ir2vec_detector.hpp"
#include "datasets/dataset.hpp"
#include "verify/tool.hpp"

namespace mpidetect::io {
class Writer;
class Reader;
}  // namespace mpidetect::io

namespace mpidetect::corpus {
class CaseSource;
}  // namespace mpidetect::corpus

namespace mpidetect::core {

enum class DetectorKind : std::uint8_t {
  Static,   // analyses the code without executing it (PARCOACH, MPI-Checker)
  Dynamic,  // executes / traces the code (ITAC, MUST)
  Learned,  // trained on a corpus (IR2vec+DT, ProGraML+GATv2)
};

std::string_view detector_kind_name(DetectorKind k);

/// The outcome of running one detector on one case. Subsumes
/// verify::Diagnostic (the expert tools' answer vocabulary) and adds the
/// learned detectors' predicted class and confidence.
struct Verdict {
  enum class Outcome : std::uint8_t {
    Correct,     // code reported clean
    Incorrect,   // error reported
    Timeout,     // no conclusion within budget (TO)
    RuntimeErr,  // detector crashed while analysing (RE)
    CompileErr,  // detector could not ingest the code (CE)
  };

  Outcome outcome = Outcome::Correct;
  /// Predicted class index under multi-class training (Figure 6).
  std::optional<std::size_t> predicted_label;
  /// Class probability when the model exposes one (the GNN does).
  std::optional<double> confidence;

  bool flagged() const { return outcome == Outcome::Incorrect; }
  bool conclusive() const {
    return outcome == Outcome::Correct || outcome == Outcome::Incorrect;
  }

  static Verdict from_diagnostic(verify::Diagnostic d);
  verify::Diagnostic to_diagnostic() const;
};

std::string_view outcome_name(Verdict::Outcome o);
inline constexpr std::size_t kNumOutcomes = 5;

/// Per-training-call knobs EvalEngine passes to trainable detectors.
struct FitSpec {
  /// Cross-validation fold index; each detector derives its legacy
  /// per-fold seed stream from it (nullopt = full-set training).
  std::optional<std::size_t> fold;
  /// Width of the detector's own parallel work — encoding, and the
  /// IR2vec GA's fitness evaluation. 0 keeps the detector's option; a
  /// non-zero value forces it (EvalEngine forces 1 while folds train in
  /// parallel). Dense kernels always run on the calling thread.
  unsigned threads = 0;
  /// Train on per-label classes instead of binary correct/incorrect.
  bool multiclass = false;
};

/// Evaluation-protocol defaults a detector carries with it (fold count
/// and fold-assignment seed reproducing the paper setup). Protocol
/// parallelism is the engine's worker-pool width, fixed at
/// EvalEngine construction.
struct EvalOptions {
  int folds = 10;
  std::uint64_t seed = 1;   // fold assignment (keep equal to the
                            // detector's own seed for the paper protocol)
  bool multiclass = false;  // per-label protocol (Figure 6)
};

/// \brief The unified detector interface: expert verification tools and
/// learned models behind one polymorphic surface.
///
/// Lifecycle: construct via DetectorRegistry::create → prepare()
/// (encode a dataset through the shared EncodingCache) → fit() for
/// Learned detectors → evaluate()/run() → optionally
/// save_state()/DetectorRegistry::save_bundle to persist, and
/// load_state()/load_bundle to restore with bit-identical verdicts.
/// See docs/ARCHITECTURE.md ("Detector lifecycle").
class Detector {
 public:
  virtual ~Detector() = default;

  virtual std::string_view name() const = 0;
  virtual DetectorKind kind() const = 0;
  virtual bool trainable() const { return false; }
  /// Whether evaluate() may be called concurrently on one instance.
  virtual bool parallel_eval_safe() const { return true; }

  /// A fresh detector with the same configuration (fitted state is not
  /// copied); EvalEngine clones once per CV fold.
  virtual std::unique_ptr<Detector> clone() const = 0;

  /// The k-fold / seed defaults reproducing the paper protocol for this
  /// detector.
  virtual EvalOptions eval_defaults() const { return {}; }

  /// Shares an encoding cache with the detector (no-op for detectors
  /// that do not encode). A cache set at construction wins.
  virtual void use_cache(const std::shared_ptr<EncodingCache>& cache);

  /// Pre-encodes `ds` and binds it, so later fit / evaluate calls
  /// against it are cheap; always re-resolves, so calling it again
  /// rebinds. No-op for the expert tools.
  virtual void prepare(const datasets::Dataset& ds, unsigned threads = 0);

  /// Trains on the `train_idx` rows of `ds` with labels `y` (parallel to
  /// `train_idx`). No-op for the expert tools.
  virtual void fit(const datasets::Dataset& ds,
                   std::span<const std::size_t> train_idx,
                   std::span<const std::size_t> y, const FitSpec& spec);

  /// \brief Out-of-core training: like fit(), but the training rows
  /// come from a streaming case source (an on-disk .mpcs corpus or a
  /// wrapped dataset) materialized `window` cases at a time.
  ///
  /// `train_idx` / `y` are parallel, as in fit(). For a source yielding
  /// the same cases as a dataset, verdicts after fit_stream are
  /// bit-identical to verdicts after fit() (tests/corpus_eval_test.cpp);
  /// what changes is residency — the learned detectors' overrides never
  /// hold more than one window of programs/graphs (plus the trained
  /// model and, for IR2vec, the O(cases × dims) feature matrix).
  ///
  /// The base implementation materializes the full training selection
  /// and delegates to fit() — correct for any detector, out-of-core for
  /// none; trainable detectors should override.
  /// \throws ContractViolation for configurations that are inherently
  ///         not streamable (multiclass training; IR2vec Index
  ///         normalization, which standardizes across the whole set).
  virtual void fit_stream(const corpus::CaseSource& src,
                          std::span<const std::size_t> train_idx,
                          std::span<const std::size_t> y, const FitSpec& spec,
                          std::size_t window = 256);

  /// Verdict for one case of a prepared dataset.
  virtual Verdict evaluate(const datasets::Dataset& ds, std::size_t idx) = 0;

  /// Drops any cached state the detector holds for `ds`: its encodings
  /// in the shared cache and its binding (no-op for detectors that do
  /// not encode). Bindings of other datasets stay. Call it before a
  /// prepared dataset is destroyed; run() does so on its ad-hoc batch.
  virtual void discard(const datasets::Dataset& ds);

  /// \brief Serializes the detector's configuration and trained state.
  ///
  /// Learned detectors persist everything inference needs (encoding
  /// options, model weights); the base implementation writes a
  /// "stateless" marker (the expert tools re-derive their behaviour
  /// from construction). DetectorRegistry::save_bundle is the usual
  /// file-level entry point.
  ///
  /// \throws ContractViolation when a trainable detector is saved
  ///         before fit() — an unfitted model has no state worth a file.
  virtual void save_state(io::Writer& w) const;

  /// \brief Restores state written by save_state of the same detector.
  /// \throws io::FormatError on corrupt, truncated or future-version
  ///         data (the stream is validated, never trusted).
  virtual void load_state(io::Reader& r);

  /// Batched entry point: verdicts for an arbitrary batch of cases.
  /// Learned detectors must have been fitted (or cloned from a fitted
  /// instance's configuration and refitted) beforehand. The base
  /// implementation evaluates case by case; detectors with a real
  /// batched path (the GNN packs the whole span into graph mini-batches)
  /// override it.
  virtual std::vector<Verdict> run(std::span<const datasets::Case> cases);

  /// Batched verdicts for selected cases of a PREPARED dataset — the
  /// serving hot path (serve::Server). Unlike run(), which re-encodes
  /// its ad-hoc batch from scratch, this resolves encodings through the
  /// shared EncodingCache (warm across requests and, with a spill dir,
  /// across processes) and only ever gathers per-case views. The GNN
  /// overrides it to push the selection through GraphBatch mini-batch
  /// inference; verdicts are identical to per-case evaluate() calls,
  /// which the base implementation performs.
  virtual std::vector<Verdict> run_indexed(const datasets::Dataset& ds,
                                           std::span<const std::size_t> idx);
};

/// Calls det.discard(ds) when the scope ends, exceptions included: the
/// guard for a prepared dataset that dies with the scope (an ad-hoc
/// run() batch, a streamed window), so neither its encoding nor a
/// binding to it outlives it.
class ScopedDiscard {
 public:
  ScopedDiscard(Detector& det, const datasets::Dataset& ds)
      : det_(det), ds_(ds) {}
  ~ScopedDiscard() { det_.discard(ds_); }
  ScopedDiscard(const ScopedDiscard&) = delete;
  ScopedDiscard& operator=(const ScopedDiscard&) = delete;

 private:
  Detector& det_;
  const datasets::Dataset& ds_;
};

/// Shared construction-time configuration for the registry factories.
/// One DetectorConfig (with one shared EncodingCache) wires a whole
/// bench: every detector built from it encodes each dataset once.
struct DetectorConfig {
  Ir2vecOptions ir2vec;
  GnnOptions gnn;
  passes::OptLevel feature_opt = passes::OptLevel::Os;  // paper: -Os
  ir2vec::Normalization normalization = ir2vec::Normalization::Vector;
  passes::OptLevel graph_opt = passes::OptLevel::O0;  // paper: -O0
  std::uint64_t vocab_seed = 0x12c0ffee;
  /// Schedule-sweep width of the "itac-sweep" / "must-sweep" detectors:
  /// how many seeded interleavings each case is executed under (the
  /// plain "itac" / "must" keys always run the single deterministic
  /// schedule).
  int dynamic_schedules = 8;
  std::uint64_t schedule_seed = 1;
  std::shared_ptr<EncodingCache> cache;  // created on demand when null
};

/// Adapter exposing a verify::VerificationTool as a Detector.
class ToolDetector final : public Detector {
 public:
  using ToolFactory = std::function<std::unique_ptr<verify::VerificationTool>()>;

  ToolDetector(ToolFactory factory, DetectorKind kind);

  std::string_view name() const override { return tool_->name(); }
  DetectorKind kind() const override { return kind_; }
  std::unique_ptr<Detector> clone() const override;
  Verdict evaluate(const datasets::Dataset& ds, std::size_t idx) override;

 private:
  ToolFactory factory_;
  std::unique_ptr<verify::VerificationTool> tool_;
  DetectorKind kind_;
};

/// The IR2vec + decision-tree detector (Figure 4) as a Detector.
class Ir2vecDetector final : public Detector {
 public:
  explicit Ir2vecDetector(DetectorConfig cfg = {});

  std::string_view name() const override { return "IR2vec+DT"; }
  DetectorKind kind() const override { return DetectorKind::Learned; }
  bool trainable() const override { return true; }
  std::unique_ptr<Detector> clone() const override;
  EvalOptions eval_defaults() const override;
  void use_cache(const std::shared_ptr<EncodingCache>& cache) override;
  void prepare(const datasets::Dataset& ds, unsigned threads = 0) override;
  void fit(const datasets::Dataset& ds,
           std::span<const std::size_t> train_idx,
           std::span<const std::size_t> y, const FitSpec& spec) override;
  /// Windowed feature extraction straight from the source (the shared
  /// cache is bypassed — window encodings are used once): peak AST
  /// residency is one window, only the feature matrix of the selection
  /// is accumulated. Rejects Index normalization and multiclass.
  void fit_stream(const corpus::CaseSource& src,
                  std::span<const std::size_t> train_idx,
                  std::span<const std::size_t> y, const FitSpec& spec,
                  std::size_t window) override;
  Verdict evaluate(const datasets::Dataset& ds, std::size_t idx) override;
  void discard(const datasets::Dataset& ds) override;
  void save_state(io::Writer& w) const override;
  void load_state(io::Reader& r) override;

  /// The trained model (nullptr before fit); exposes the GA-selected
  /// feature subset for the seed study and Table VI.
  const TrainedIr2vec* model() const;
  const DetectorConfig& config() const { return cfg_; }

 private:
  const FeatureEntry& entry(const datasets::Dataset& ds, unsigned threads);
  /// Shared tail of fit() and fit_stream(): the spec's seed and thread
  /// options, then the tree (GA-selected when enabled) on the table rows
  /// `rows` labelled y[i].
  void train(const ml::SortedColumns& table,
             std::span<const std::size_t> rows,
             std::span<const std::size_t> y, const FitSpec& spec);

  DetectorConfig cfg_;
  std::optional<TrainedIr2vec> model_;
  bool multiclass_ = false;
  /// One binding per prepared/fitted dataset, so evaluate() on any of
  /// them costs one lookup instead of re-hashing the dataset through the
  /// cache. Written only by the single-threaded prepare()/fit(),
  /// discard(), use_cache() and load_state(); a binding lives until one
  /// of the last three drops it, so a caller destroying a prepared
  /// dataset must discard() it first.
  /// A binding carries the set's sorted-column table, which every fold
  /// and GA fitness fit over the set shares.
  std::map<const datasets::Dataset*, const FeatureEntry*> bound_;
};

/// The GNN's probabilities-to-verdict mapping, shared by the per-case
/// evaluate() and the batched run() so the two can never diverge. A
/// non-finite probability means the model's numbers are broken, so it
/// maps to RuntimeErr rather than to whichever class max_element picks.
Verdict gnn_verdict(std::span<const double> proba);

/// The ProGraML + GATv2 detector (Figure 5) as a Detector.
class GnnDetector final : public Detector {
 public:
  explicit GnnDetector(DetectorConfig cfg = {});
  ~GnnDetector() override;

  std::string_view name() const override { return "ProGraML+GATv2"; }
  DetectorKind kind() const override { return DetectorKind::Learned; }
  bool trainable() const override { return true; }
  /// Inference builds an autograd tape; one model is not re-entrant.
  bool parallel_eval_safe() const override { return false; }
  std::unique_ptr<Detector> clone() const override;
  EvalOptions eval_defaults() const override;
  void use_cache(const std::shared_ptr<EncodingCache>& cache) override;
  void prepare(const datasets::Dataset& ds, unsigned threads = 0) override;
  void fit(const datasets::Dataset& ds,
           std::span<const std::size_t> train_idx,
           std::span<const std::size_t> y, const FitSpec& spec) override;
  /// Out-of-core GNN training: the same training loop as fit(), but
  /// each optimisation step's graph is re-extracted from the source on
  /// demand (graphs for a training epoch are visited in shuffled order,
  /// so there is nothing to batch up — the trade is recompute for
  /// residency). Peak graph memory is one graph. Rejects multiclass,
  /// like fit().
  void fit_stream(const corpus::CaseSource& src,
                  std::span<const std::size_t> train_idx,
                  std::span<const std::size_t> y, const FitSpec& spec,
                  std::size_t window) override;
  Verdict evaluate(const datasets::Dataset& ds, std::size_t idx) override;
  void discard(const datasets::Dataset& ds) override;
  void save_state(io::Writer& w) const override;
  void load_state(io::Reader& r) override;

  /// True batched inference: the span is encoded once (directly — an
  /// ad-hoc batch never touches the shared cache or its spill tier)
  /// and pushed through the model in graph mini-batches
  /// (GnnConfig::infer_batch graphs per forward pass) instead of a
  /// per-case loop. Verdicts are identical to the base
  /// implementation's.
  std::vector<Verdict> run(std::span<const datasets::Case> cases) override;

  /// Serving path: graphs come from the shared cache (computed once per
  /// dataset, spillable to disk), the selection is packed into
  /// GraphBatch mini-batches. No compile/embed work per request.
  std::vector<Verdict> run_indexed(const datasets::Dataset& ds,
                                   std::span<const std::size_t> idx) override;

  const DetectorConfig& config() const { return cfg_; }

 private:
  const GraphSet& graphs(const datasets::Dataset& ds, unsigned threads);
  /// Shared tail of fit() and fit_stream(): a fresh model seeded for
  /// the spec's fold, trained on `graphs` under its thread budget.
  void train(ml::GraphSource& graphs, std::span<const std::size_t> y,
             const FitSpec& spec);

  DetectorConfig cfg_;
  std::unique_ptr<ml::GnnModel> model_;
  /// Per-dataset bindings, under Ir2vecDetector::bound_'s rules.
  std::map<const datasets::Dataset*, const GraphSet*> bound_;
};

/// String-keyed factory registry. The six paper detectors are
/// pre-registered under "itac", "must", "parcoach", "mpi-checker",
/// "ir2vec" and "gnn", plus the schedule-sweeping dynamic variants
/// "itac-sweep" and "must-sweep" (DetectorConfig::dynamic_schedules);
/// additional detectors can be added at runtime.
class DetectorRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Detector>(const DetectorConfig&)>;

  DetectorRegistry();  // pre-registers the built-ins

  /// The process-wide registry instance.
  static DetectorRegistry& global();

  /// Registers a factory; throws ContractViolation on a duplicate name.
  void add(std::string name, Factory factory);

  bool contains(std::string_view name) const;
  std::vector<std::string> names() const;

  /// Constructs a detector; throws ContractViolation with the list of
  /// known names when `name` is unknown.
  std::unique_ptr<Detector> create(std::string_view name,
                                   const DetectorConfig& cfg = {}) const;

  /// \brief Writes `det` — which must have been constructed under
  /// registry key `name` — plus its trained state to a model bundle
  /// file ("MPGD" format, written atomically).
  ///
  /// The bundle records the registry key so load_bundle can rebuild
  /// the right detector, then delegates to Detector::save_state.
  /// \throws ContractViolation when `name` is not registered or the
  ///         detector is trainable but unfitted; io::FormatError when
  ///         the file cannot be written.
  void save_bundle(std::string_view name, const Detector& det,
                   const std::string& path) const;

  /// \brief Reconstructs a detector from a bundle file: reads the
  /// registry key, builds the detector through its factory with `cfg`
  /// (so the caller wires in a shared EncodingCache), and restores the
  /// trained state via Detector::load_state.
  ///
  /// Encoding-relevant options stored in the bundle (opt level,
  /// normalization, vocabulary seed, model hyper-parameters) override
  /// the ones in `cfg`: a loaded model must embed exactly as it did
  /// when trained, or its verdicts would silently change.
  /// \throws io::FormatError on unreadable/corrupt/future-version
  ///         files; ContractViolation when the recorded detector is
  ///         not registered here.
  std::unique_ptr<Detector> load_bundle(const std::string& path,
                                        const DetectorConfig& cfg = {}) const;

 private:
  std::map<std::string, Factory, std::less<>> factories_;
};

}  // namespace mpidetect::core
