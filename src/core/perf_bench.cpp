#include "core/perf_bench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <memory>
#include <sstream>
#include <thread>

#include "core/features.hpp"
#include "io/serialize.hpp"
#include "ml/kernels.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace mpidetect::core {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Runs `body` warmup + reps times; returns the timed (non-warmup)
/// samples in ms.
template <typename Fn>
std::vector<double> sample_phase(int warmup, int reps, Fn&& body) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < warmup + reps; ++i) {
    const auto t0 = Clock::now();
    body();
    const double ms = ms_since(t0);
    if (i >= warmup) samples.push_back(ms);
  }
  return samples;
}

void append_number(std::ostringstream& os, double v) {
  // JSON has no inf/nan; the harness never produces them, but degrade
  // defensively rather than emit an unparsable file.
  if (!std::isfinite(v)) {
    os << "0";
    return;
  }
  os << std::setprecision(6) << v;
}

}  // namespace

double PerfPhase::median_ms() const {
  return samples_ms.empty() ? 0.0 : percentile(samples_ms, 50.0);
}

double PerfPhase::p90_ms() const {
  return samples_ms.empty() ? 0.0 : percentile(samples_ms, 90.0);
}

const PerfPhase& GnnPerfReport::phase(const std::string& name) const {
  for (const PerfPhase& p : phases) {
    if (p.name == name) return p;
  }
  throw ContractViolation("no such perf phase: " + name);
}

GnnPerfReport run_gnn_perf(const datasets::Dataset& ds,
                           const GnnPerfOptions& opts) {
  MPIDETECT_EXPECTS(opts.reps >= 1);
  MPIDETECT_EXPECTS(opts.warmup >= 0);
  MPIDETECT_EXPECTS(ds.size() >= 1);

  GnnPerfReport r;
  r.dataset = ds.name;
  r.cases = ds.size();
  r.options = opts;
  // The record reports the live dispatch target. Counters restart so
  // the op breakdown covers exactly this run.
  r.simd = ml::kernels::isa_name(ml::kernels::active_isa());
  ml::kernels::reset_op_counters();

  // ---- encode: dataset -> ProGraML graph set ------------------------------
  GraphSet gs;
  r.phases.push_back(
      {"encode", sample_phase(opts.warmup, opts.reps, [&] {
         gs = extract_graphs(ds, opts.graph_opt, opts.threads);
       })});
  for (const auto& g : gs.graphs) {
    r.nodes += g.num_nodes();
    r.edges += g.num_edges();
  }

  ml::GnnConfig cfg = opts.cfg;
  cfg.classes = 2;
  const std::span<const std::size_t> labels(gs.y_binary);
  const std::span<const programl::ProgramGraph> graphs(gs.graphs);

  // ---- train: baseline (naive kernel, scalar) vs the engine -------------
  // ---- (packed kernels, SIMD); one graph per Adam step -------------------
  // Baseline and engine repetitions are interleaved (one of each per
  // round): background noise on a shared machine then lands on both
  // modes roughly equally instead of skewing whichever phase it hits.
  PerfPhase train_baseline{"train_baseline", {}};
  PerfPhase train{"train", {}};
  std::unique_ptr<ml::GnnModel> model;  // last engine-trained, reused below
  for (int i = 0; i < opts.warmup + opts.reps; ++i) {
    const bool measured = i >= opts.warmup;
    {
      // The baseline is the seed's kernels: naive matmul and scalar
      // dispatch for the fused ops. The v1 record was measured before
      // the SIMD table existed — leaving SIMD live here would silently
      // shrink the baseline and make speedups incomparable across
      // records. The op chain is not the seed's: training now runs the
      // fused GATv2 ops over the gathered rows (ml/gnn.cpp), which train
      // the same parameters bit for bit but skip the unfused chain's
      // (E,d) intermediates, so this baseline is faster than the seed
      // pipeline was.
      ml::kernels::ScopedNaiveMatmul naive(true);
      ml::kernels::ScopedIsa scalar(ml::kernels::Isa::Scalar);
      const auto t0 = Clock::now();
      ml::GnnModel baseline_model(cfg);
      baseline_model.fit(graphs, labels);
      if (measured) train_baseline.samples_ms.push_back(ms_since(t0));
    }
    {
      const auto t0 = Clock::now();
      model = std::make_unique<ml::GnnModel>(cfg);
      model->fit(graphs, labels);
      if (measured) train.samples_ms.push_back(ms_since(t0));
    }
  }
  r.phases.push_back(std::move(train_baseline));
  r.phases.push_back(std::move(train));

  // ---- infer: baseline (tape-recording, graph at a time) vs the batched ---
  // ---- engine (tape-free graph mini-batches), on one trained model --------
  PerfPhase infer_baseline{"infer_baseline", {}};
  PerfPhase infer_batched{"infer_batched", {}};
  std::vector<std::vector<double>> baseline_probas(gs.size());
  std::vector<std::vector<double>> batched_probas;
  for (int i = 0; i < opts.warmup + opts.reps; ++i) {
    const bool measured = i >= opts.warmup;
    {
      // Seed path again: naive matmul AND scalar dispatch (see the
      // train_baseline comment).
      ml::kernels::ScopedNaiveMatmul naive(true);
      ml::kernels::ScopedIsa scalar(ml::kernels::Isa::Scalar);
      const auto t0 = Clock::now();
      for (std::size_t g = 0; g < gs.size(); ++g) {
        // The pre-optimization inference path: a full forward with the
        // autograd tape recorded, then a softmax readout.
        ml::Var logits = model->forward(gs.graphs[g]);
        baseline_probas[g] = ml::softmax_row(logits->value);
      }
      if (measured) infer_baseline.samples_ms.push_back(ms_since(t0));
    }
    {
      const auto t0 = Clock::now();
      batched_probas = model->predict_proba(graphs);
      if (measured) infer_batched.samples_ms.push_back(ms_since(t0));
    }
  }
  r.phases.push_back(std::move(infer_baseline));
  r.phases.push_back(std::move(infer_batched));

  // ---- equivalence + speedups ---------------------------------------------
  std::size_t agree = 0;
  for (std::size_t i = 0; i < gs.size(); ++i) {
    const auto& a = baseline_probas[i];
    const auto& b = batched_probas[i];
    for (std::size_t j = 0; j < a.size(); ++j) {
      r.max_abs_proba_diff =
          std::max(r.max_abs_proba_diff, std::abs(a[j] - b[j]));
    }
    const auto amax = std::max_element(a.begin(), a.end()) - a.begin();
    const auto bmax = std::max_element(b.begin(), b.end()) - b.begin();
    agree += (amax == bmax);
  }
  r.prediction_agreement =
      static_cast<double>(agree) / static_cast<double>(gs.size());

  r.op_counters = ml::kernels::op_counters();

  const auto speedup = [&](const char* base, const char* fast) {
    const double b = r.phase(base).median_ms();
    const double f = r.phase(fast).median_ms();
    return f > 0.0 ? b / f : 0.0;
  };
  r.train_speedup = speedup("train_baseline", "train");
  r.infer_speedup = speedup("infer_baseline", "infer_batched");
  return r;
}

std::string GnnPerfReport::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"benchmark\": \"gnn_perf\",\n";
  os << "  \"schema_version\": 5,\n";
  os << "  \"dataset\": {\"name\": \"" << dataset << "\", \"cases\": " << cases
     << ", \"nodes\": " << nodes << ", \"edges\": " << edges << "},\n";
  os << "  \"config\": {\"warmup\": " << options.warmup
     << ", \"reps\": " << options.reps << ", \"threads\": " << options.threads
     << ", \"infer_batch\": " << options.cfg.infer_batch
     << ", \"epochs\": " << options.cfg.epochs
     << ", \"embed_dim\": " << options.cfg.embed_dim << ", \"layers\": [";
  for (std::size_t i = 0; i < options.cfg.layers.size(); ++i) {
    if (i) os << ", ";
    os << options.cfg.layers[i];
  }
  os << "], \"fc_hidden\": " << options.cfg.fc_hidden
     << ", \"hardware_concurrency\": "
     << std::max(1u, std::thread::hardware_concurrency())
     << ", \"simd\": \"" << simd << "\"},\n";
  os << "  \"phases\": [\n";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PerfPhase& p = phases[i];
    os << "    {\"name\": \"" << p.name << "\", \"unit\": \"ms\", "
       << "\"samples\": [";
    for (std::size_t s = 0; s < p.samples_ms.size(); ++s) {
      if (s) os << ", ";
      append_number(os, p.samples_ms[s]);
    }
    os << "], \"median\": ";
    append_number(os, p.median_ms());
    os << ", \"p90\": ";
    append_number(os, p.p90_ms());
    os << "}" << (i + 1 < phases.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"speedup\": {\"train\": ";
  append_number(os, train_speedup);
  os << ", \"infer\": ";
  append_number(os, infer_speedup);
  os << "},\n";
  os << "  \"equivalence\": {\"max_abs_proba_diff\": ";
  append_number(os, max_abs_proba_diff);
  os << ", \"prediction_agreement\": ";
  append_number(os, prediction_agreement);
  os << "},\n";
  os << "  \"op_counters\": [\n";
  for (std::size_t i = 0; i < op_counters.size(); ++i) {
    const ml::kernels::OpStats& s = op_counters[i];
    os << "    {\"op\": \""
       << ml::kernels::op_name(static_cast<ml::kernels::Op>(i))
       << "\", \"calls\": " << s.calls << ", \"flops\": " << s.flops
       << ", \"ns\": " << s.ns << "}"
       << (i + 1 < op_counters.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

void write_text_file(const std::string& path, const std::string& json) {
  io::save_file(path, [&](io::Writer& w) { w.raw(json.data(), json.size()); });
}

int report_and_write(const GnnPerfReport& report, const std::string& json_path,
                     std::ostream& os) {
  Table t({"Phase", "Median (ms)", "p90 (ms)"});
  for (const auto& p : report.phases) {
    t.add_row({p.name, fmt_double(p.median_ms(), 2),
               fmt_double(p.p90_ms(), 2)});
  }
  t.print(os);
  os << "speedup: train " << fmt_double(report.train_speedup, 2)
     << "x, infer " << fmt_double(report.infer_speedup, 2) << "x\n"
     << "equivalence: max |dp| "
     << fmt_double(report.max_abs_proba_diff, 12) << ", agreement "
     << fmt_double(report.prediction_agreement * 100.0, 1) << "%\n"
     << "simd: " << report.simd << "\n";
  write_text_file(json_path, report.to_json());
  os << "wrote " << json_path << "\n";
  if (report.prediction_agreement < 1.0) {
    os << "FAIL: batched inference disagreed with the baseline on "
       << fmt_double((1.0 - report.prediction_agreement) * 100.0, 2)
       << "% of cases\n";
    return 2;
  }
  if (report.max_abs_proba_diff > kMaxProbaDiff) {
    os << "FAIL: batched inference moved a probability by "
       << fmt_double(report.max_abs_proba_diff, 12) << " (bound "
       << fmt_double(kMaxProbaDiff, 6) << ")\n";
    return 2;
  }
  return 0;
}

}  // namespace mpidetect::core
