// The GNN perf-bench harness: times the three phases of the learned
// pipeline — encode (dataset -> ProGraML graphs), train, infer — in two
// modes, the pre-optimization baseline (naive matmul kernel, one graph
// per step, tape-recording inference) and the batched engine (blocked
// kernels, graph mini-batches, tape-free inference), with warmup and
// repetitions, reporting median and p90 per phase plus the end-to-end
// speedups and an equivalence check (batched inference must agree with
// graph-at-a-time inference).
//
// Both bench/perf_gnn.cpp and `mpiguard bench --json` are thin CLIs over
// run_gnn_perf; the JSON they write (BENCH_gnn.json) is the repo's perf
// trajectory record, schema-checked in CI by scripts/check_bench_json.py
// and documented in docs/PERFORMANCE.md.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "datasets/dataset.hpp"
#include "ml/gnn.hpp"
#include "ml/kernels.hpp"
#include "passes/pipelines.hpp"

namespace mpidetect::core {

/// Timing samples of one phase in one mode, in milliseconds.
struct PerfPhase {
  std::string name;
  std::vector<double> samples_ms;  // one entry per repetition

  double median_ms() const;
  double p90_ms() const;
};

struct GnnPerfOptions {
  /// Model hyper-parameters for both modes. classes is forced to 2;
  /// batch_size is ignored (the modes pick their own: 1 for the
  /// baseline, train_batch for the batched engine).
  ml::GnnConfig cfg;
  std::size_t train_batch = 4;   // graphs per optimisation step (batched)
  std::size_t infer_batch = 4;   // graphs per forward pass (batched)
  int warmup = 1;                // discarded leading repetitions
  int reps = 5;                  // measured repetitions per phase
  unsigned threads = 0;          // kernel/encode threads; 0 = hardware
  passes::OptLevel graph_opt = passes::OptLevel::O0;  // paper: -O0
};

/// The full harness result; to_json() is the BENCH_gnn.json payload.
struct GnnPerfReport {
  std::string dataset;
  std::size_t cases = 0;
  std::size_t nodes = 0;  // total graph nodes across the dataset
  std::size_t edges = 0;
  GnnPerfOptions options;

  /// The pool width the batched phases actually ran at
  /// (ml::kernels::effective_threads of options.threads) — what the
  /// record must report, never the requested knob: the two differ when
  /// the requested budget exceeds what the pool provided.
  unsigned effective_threads = 1;
  /// The SIMD dispatch target the run used (ml::kernels::isa_name).
  std::string simd;

  /// encode, train_baseline, train_batched, infer_baseline,
  /// infer_batched — in that order.
  std::vector<PerfPhase> phases;

  double train_speedup = 0.0;  // baseline median / batched median
  double infer_speedup = 0.0;

  /// Batched vs graph-at-a-time inference on one trained model: the
  /// largest probability difference and the fraction of agreeing
  /// argmax predictions (must be 1.0 — batching never changes logits).
  double max_abs_proba_diff = 0.0;
  double prediction_agreement = 0.0;

  /// Per-op profiling counters accumulated across the whole run
  /// (ml/kernels.hpp; reset at harness entry).
  std::array<ml::kernels::OpStats, ml::kernels::kNumOps> op_counters{};

  const PerfPhase& phase(const std::string& name) const;
  std::string to_json() const;
};

/// Runs the full harness on `ds`. Phases are timed back to back per
/// repetition; training reps fit a fresh identically-seeded model each
/// time, so repetitions measure the same work.
GnnPerfReport run_gnn_perf(const datasets::Dataset& ds,
                           const GnnPerfOptions& opts);

/// \brief Shared CLI tail of the harness drivers (bench/perf_gnn,
/// `mpiguard bench --json`): prints the phase table and the
/// speedup/equivalence summary to `os`, writes the JSON record to
/// `json_path`.
/// \return the process exit code — 0, or 2 when batched inference
/// disagreed with the baseline (the record is still written first so
/// the disagreement can be inspected).
int report_and_write(const GnnPerfReport& report, const std::string& json_path,
                     std::ostream& os);

/// Writes `json` to `path` atomically (io::save_file: temp file +
/// rename, temp removed on failure — no torn files for CI consumers).
/// Throws io::FormatError on I/O failure.
void write_text_file(const std::string& path, const std::string& json);

}  // namespace mpidetect::core
