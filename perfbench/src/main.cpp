// perfbench_driver: runs one benchmark workload through the library's
// public entry points and writes a raw record (timings, samples,
// counters, spans, verdict digest) as JSON. perfbench/run.py turns the
// record into the benchmark's metrics; see perfbench/README.md.
//
//   perfbench_driver --workload gnn-kfold --seed 1 --seconds 10 --trace 0
//                    --out .bench_run/raw.json [--daemon PATH] [--smoke]
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "core/eval_engine.hpp"
#include "datasets/spec.hpp"
#include "ir2vec/encoder.hpp"
#include "ml/gnn.hpp"
#include "ml/kernels.hpp"
#include "mpisim/machine.hpp"
#include "passes/pipelines.hpp"
#include "progmodel/lower.hpp"
#include "programl/graph.hpp"
#include "serve_load.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace mp = mpidetect;
namespace pb = perfbench;
using pb::Clock;
using pb::Span;

namespace {

// ---- arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string daemon;
  std::string work_dir = ".bench_run";  // scratch files, inside the checkout
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + f);
      return argv[++i];
    };
    if (f == "--workload") a.workload = value();
    else if (f == "--seed") a.seed = std::stoull(value());
    else if (f == "--seconds") a.seconds = std::stod(value());
    else if (f == "--trace") a.trace = value() == "1";
    else if (f == "--out") a.out = value();
    else if (f == "--daemon") a.daemon = value();
    else if (f == "--smoke") a.smoke = true;
    else throw std::runtime_error("unknown flag " + f);
  }
  if (a.workload.empty() || a.out.empty()) {
    throw std::runtime_error("--workload and --out are required");
  }
  if (a.seconds <= 0) throw std::runtime_error("--seconds must be > 0");
  return a;
}

// ---- raw record ----------------------------------------------------------------

std::string num(double v) {
  char b[40];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

std::string quote(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
      continue;
    }
    o += c;
  }
  return o + "\"";
}

std::string arr(const std::vector<double>& v) {
  std::string o = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) o += ',';
    o += num(v[i]);
  }
  return o + "]";
}

/// Everything the driver measured; run.py derives the metrics.
struct Record {
  std::vector<double> setup_s;
  double timed_s = 0.0;        // untraced timed region
  double units = 0.0;          // validated work units in the timed region
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  // Batch workloads: per-operation latencies, one list per pass.
  std::vector<std::vector<double>> latency_passes;
  double peak_rss_mb = 0.0;
  std::string digest;
  std::string confusion;  // JSON object text
  std::map<std::string, double> layers;
  std::map<std::string, std::vector<double>> samples;
  std::string rungs_json = "[]";  // serve workloads
  double latency_limit_ms = 0.0;
  // traced run
  double traced_s = 0.0;
  double traced_units = 0.0;
  double untraced_s = 0.0;
  double untraced_units = 0.0;
  std::uint64_t root_span = 0;
  std::vector<pb::SpanRec> spans;
};

void fail(Record& rec, const std::string& why) {
  ++rec.failed;
  if (rec.problems.size() < 20) rec.problems.push_back(why);
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

void write_record(const Args& a, const Record& rec, unsigned threads) {
  std::ostringstream o;
  o << "{\"workload\":" << quote(a.workload) << ",\"seed\":" << a.seed
    << ",\"seconds\":" << num(a.seconds) << ",\"trace\":" << (a.trace ? 1 : 0)
    << ",\"smoke\":" << (a.smoke ? "true" : "false");
  o << ",\"host\":{\"nproc\":" << nproc()
    << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
    << ",\"isa\":" << quote(mp::ml::kernels::isa_name(mp::ml::kernels::active_isa()))
    << ",\"kernel_threads\":"
    << mp::ml::kernels::effective_threads(mp::ml::kernels::kernel_threads())
    << ",\"pool_threads\":" << threads
    << ",\"build_type\":" << quote(PERFBENCH_BUILD_TYPE) << "}";
  o << ",\"setup_s\":" << arr(rec.setup_s) << ",\"timed_s\":" << num(rec.timed_s)
    << ",\"units\":" << num(rec.units) << ",\"attempted\":" << rec.attempted
    << ",\"failed\":" << rec.failed << ",\"problems\":[";
  for (std::size_t i = 0; i < rec.problems.size(); ++i) {
    o << (i ? "," : "") << quote(rec.problems[i]);
  }
  o << "],\"latency_passes\":[";
  for (std::size_t i = 0; i < rec.latency_passes.size(); ++i) {
    o << (i ? "," : "") << arr(rec.latency_passes[i]);
  }
  o << "]"
    << ",\"peak_rss_mb\":" << num(rec.peak_rss_mb)
    << ",\"digest\":" << quote(rec.digest)
    << ",\"confusion\":" << (rec.confusion.empty() ? "{}" : rec.confusion)
    << ",\"rungs\":" << rec.rungs_json
    << ",\"latency_limit_ms\":" << num(rec.latency_limit_ms);
  o << ",\"layers\":{";
  bool first = true;
  for (const auto& [k, v] : rec.layers) {
    o << (first ? "" : ",") << quote(k) << ":" << num(v);
    first = false;
  }
  o << "},\"samples\":{";
  first = true;
  for (const auto& [k, v] : rec.samples) {
    o << (first ? "" : ",") << quote(k) << ":" << arr(v);
    first = false;
  }
  o << "},\"traced_s\":" << num(rec.traced_s)
    << ",\"traced_units\":" << num(rec.traced_units)
    << ",\"untraced_s\":" << num(rec.untraced_s)
    << ",\"untraced_units\":" << num(rec.untraced_units)
    << ",\"root_span\":" << rec.root_span << ",\"spans\":[";
  for (std::size_t i = 0; i < rec.spans.size(); ++i) {
    const auto& s = rec.spans[i];
    o << (i ? "," : "") << "[" << quote(s.name) << "," << s.start << ","
      << s.end << "," << s.id << "," << s.parent << "," << s.request << "]";
  }
  o << "]}\n";
  std::ofstream f(a.out);
  f << o.str();
  if (!f) throw std::runtime_error("cannot write " + a.out);
}

// ---- helpers -----------------------------------------------------------------

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// FNV-1a over every verdict's outcome, predicted label and confidence
/// bits, in order.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void verdict(std::uint8_t outcome, std::optional<std::uint64_t> label,
               std::optional<double> conf) {
    bytes(&outcome, 1);
    const std::uint64_t l = label ? *label : ~0ULL;
    bytes(&l, 8);
    std::uint64_t c = 0;
    if (conf) std::memcpy(&c, &*conf, 8);
    bytes(&c, 8);
  }
  void verdict(const mp::core::Verdict& v) {
    verdict(static_cast<std::uint8_t>(v.outcome),
            v.predicted_label ? std::optional<std::uint64_t>(*v.predicted_label)
                              : std::nullopt,
            v.confidence);
  }
  std::string hex() const {
    char b[17];
    std::snprintf(b, sizeof b, "%016llx", static_cast<unsigned long long>(h));
    return b;
  }
};

std::string confusion_json(const mp::ml::Confusion& c) {
  std::ostringstream o;
  o << "{\"tp\":" << c.tp << ",\"tn\":" << c.tn << ",\"fp\":" << c.fp
    << ",\"fn\":" << c.fn << ",\"ce\":" << c.ce << ",\"to\":" << c.to
    << ",\"re\":" << c.re << "}";
  return o.str();
}

using OpRow = std::array<double, 3>;  // calls, flops, ns
using OpTable = std::map<std::string, OpRow>;

OpTable local_ops() {
  OpTable t;
  const auto c = mp::ml::kernels::op_counters();
  for (std::size_t i = 0; i < mp::ml::kernels::kNumOps; ++i) {
    t[mp::ml::kernels::op_name(static_cast<mp::ml::kernels::Op>(i))] = {
        static_cast<double>(c[i].calls), static_cast<double>(c[i].flops),
        static_cast<double>(c[i].ns)};
  }
  return t;
}

OpTable stats_ops(const mp::serve::Stats& s) {
  OpTable t;
  for (const auto& r : s.op_counters) {
    t[r.name] = {static_cast<double>(r.calls), static_cast<double>(r.flops),
                 static_cast<double>(r.ns)};
  }
  return t;
}

/// Writes ml.kernels.<op>.<phase>.{calls,s,gflops} for after - before and
/// returns the summed op seconds.
double put_op_delta(Record& rec, const std::string& phase, const OpTable& before,
                    const OpTable& after) {
  double total_s = 0.0;
  for (const auto& [op, a] : after) {
    if (op == "qmatmul") continue;  // quantized serving is not benchmarked
    const auto it = before.find(op);
    const OpRow b = it == before.end() ? OpRow{0, 0, 0} : it->second;
    const double calls = a[0] - b[0], flops = a[1] - b[1], ns = a[2] - b[2];
    const std::string k = "ml.kernels." + op + "." + phase;
    rec.layers[k + ".calls"] = calls;
    rec.layers[k + ".s"] = ns * 1e-9;
    rec.layers[k + ".gflops"] = ns > 0 ? flops / ns : 0.0;
    total_s += ns * 1e-9;
  }
  return total_s;
}

/// The per-case front half every detector runs (lower, optimize, embed
/// or build a graph, or simulate), called case by case under spans so
/// each layer gets its own per-case distribution. The engine does the
/// same work inside EncodingCache / the tools; spans inside src/ are a
/// separate change, so this probe is how the layers are separated.
struct PipelineProbe {
  bool ir2vec = false;
  bool programl = false;
  bool mpisim = false;
};

void run_pipeline_probe(Record& rec, const mp::datasets::Dataset& ds,
                        const PipelineProbe& what, std::size_t max_cases) {
  Span root("core.features.probe");
  const mp::ir2vec::Vocabulary vocab(0x12c0ffee);
  const std::size_t stride = std::max<std::size_t>(1, ds.size() / max_cases);
  auto timed = [&](const std::string& name, auto&& fn) {
    const auto t0 = Clock::now();
    {
      Span s(name);
      fn();
    }
    const double ms = since(t0) * 1e3;
    rec.samples[name + "_ms"].push_back(ms);
    rec.layers[name + "_s"] += ms * 1e-3;
  };
  std::array<double, mp::mpisim::kNumOutcomes> outcomes{};
  for (std::size_t i = 0; i < ds.size(); i += stride) {
    const auto& c = ds.cases[i];
    try {
      if (what.ir2vec) {
        std::unique_ptr<mp::ir::Module> m;
        timed("progmodel.lower", [&] { m = mp::progmodel::lower(c.program); });
        timed("passes.optimize",
              [&] { mp::passes::run_pipeline(*m, mp::passes::OptLevel::Os); });
        timed("ir2vec.encode",
              [&] { (void)mp::ir2vec::encode_concat(*m, vocab); });
      }
      if (what.programl) {
        std::unique_ptr<mp::ir::Module> m;
        timed("progmodel.lower", [&] { m = mp::progmodel::lower(c.program); });
        timed("passes.optimize",
              [&] { mp::passes::run_pipeline(*m, mp::passes::OptLevel::O0); });
        timed("programl.build", [&] { (void)mp::programl::build_graph(*m); });
      }
      if (what.mpisim) {
        std::unique_ptr<mp::ir::Module> m = mp::progmodel::lower(c.program);
        mp::mpisim::MachineConfig cfg;
        cfg.nprocs = c.program.nprocs;
        cfg.max_steps = 100'000;
        mp::mpisim::RunReport r;
        timed("mpisim.run", [&] { r = mp::mpisim::run(*m, cfg); });
        outcomes[static_cast<std::size_t>(r.outcome)] += 1;
      }
    } catch (const std::exception&) {
      // Compile-error cases: the tools report CE for them too.
    }
  }
  if (what.mpisim) {
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
      std::string n(mp::mpisim::outcome_name(static_cast<mp::mpisim::Outcome>(k)));
      std::transform(n.begin(), n.end(), n.begin(), ::tolower);
      rec.layers["mpisim.outcome." + n] = outcomes[k];
    }
  }
}

/// Repeats `setup` `times` times (the last result is kept) and records
/// each duration.
template <class State>
std::unique_ptr<State> repeated_setup(
    Record& rec, int times, const std::function<std::unique_ptr<State>()>& setup) {
  std::unique_ptr<State> st;
  for (int k = 0; k < times; ++k) {
    st.reset();
    const auto t0 = Clock::now();
    st = setup();
    rec.setup_s.push_back(since(t0));
  }
  return st;
}

/// Runs `unit` (which returns the work units it validated) until its
/// calls have taken `seconds`, at least once. `between`, if set, runs
/// after each call, outside the timing. Returns {seconds, units}.
std::pair<double, double> run_for(double seconds, const std::function<double()>& unit,
                                  const std::function<void()>& between = {}) {
  double timed = 0.0, units = 0.0;
  do {
    const auto t0 = Clock::now();
    units += unit();
    timed += since(t0);
    if (between) between();
  } while (timed < seconds);
  return {timed, units};
}

/// The untraced half and the traced half of a traced run, or the one
/// untraced timed region of a normal run, which calls `between` after
/// each unit.
void timed_region(const Args& a, Record& rec, const std::function<double()>& unit,
                  const std::function<void()>& between = {}) {
  if (!a.trace) {
    auto [s, u] = run_for(a.seconds, unit, between);
    rec.timed_s = s, rec.units = u;
    return;
  }
  auto [us, uu] = run_for(a.seconds / 2, unit);
  rec.untraced_s = us, rec.untraced_units = uu;
  pb::Tracer::get().enable(true);
  {
    Span root("run");
    rec.root_span = root.id();
    auto [ts, tu] = run_for(a.seconds / 2, unit);
    rec.traced_s = ts, rec.traced_units = tu;
  }
  pb::Tracer::get().enable(false);
}

unsigned pool_width() { return std::min(4u, std::max(1u, nproc())); }

/// Set-up time follows the host's load over a run (15 gnn-kfold set-ups
/// at the start and 15 after the passes of one run differed by up to
/// 30%), so setup_s is the median of set-ups spread over the run, each
/// outside the timed work. Traced runs set up only at the start.
///
/// Batch workloads set up kSetupsEach times before the timed region and
/// again after every pass.
constexpr int kSetupsEach = 3;

/// Serve workloads set up kServeSetupsBefore times before the ladder
/// and, with a fresh daemon each, kServeSetupsAfter times after it.
constexpr int kServeSetupsBefore = 8;
constexpr int kServeSetupsAfter = 7;

/// Repeats `setup` between the passes of an untraced full-size run; the
/// states it builds are discarded.
template <class State>
std::function<void()> setups_between(const Args& a, Record& rec,
                                     const std::function<std::unique_ptr<State>()>& setup) {
  if (a.trace || a.smoke) return {};
  return [&rec, &setup] { repeated_setup<State>(rec, kSetupsEach, setup); };
}

// ---- gnn-kfold ---------------------------------------------------------------

struct KfoldState {
  mp::datasets::Dataset ds;
  std::shared_ptr<mp::core::EncodingCache> cache;
  std::unique_ptr<mp::core::EvalEngine> engine;
  std::shared_ptr<pb::DetectorSinks> sinks;
  std::unique_ptr<pb::TracedDetector> det;
};

void gnn_kfold(const Args& a, Record& rec) {
  // The corpus is fixed: corpora drawn with different seeds differ in
  // training cost by about 17% (IQR over five seeds), more than the
  // bound. The seed drives what the protocol draws: fold assignment and
  // model initialisation.
  const std::string spec = a.smoke ? "mbi:0.006@1" : "mbi:0.015@1";
  const unsigned threads = pool_width();
  mp::core::EvalOptions opts;
  opts.seed = a.seed;
  const std::function<std::unique_ptr<KfoldState>()> setup = [&] {
    auto s = std::make_unique<KfoldState>();
    const auto g0 = Clock::now();
    s->ds = mp::datasets::make_dataset(spec);
    rec.layers["datasets.generate_s"] = since(g0);
    s->cache = std::make_shared<mp::core::EncodingCache>();
    s->engine = std::make_unique<mp::core::EvalEngine>(threads, s->cache);
    mp::core::DetectorConfig cfg;
    cfg.cache = s->cache;  // paper stack: GnnConfig defaults, batch_size 1
    cfg.gnn.cfg.seed = a.seed;
    s->sinks = std::make_shared<pb::DetectorSinks>();
    s->det = std::make_unique<pb::TracedDetector>(
        mp::core::DetectorRegistry::global().create("gnn", cfg), "ml.gnn.fit",
        "ml.gnn.infer", s->sinks);
    // First-touch graph encode, on this thread alone: with a worker per
    // core the few milliseconds of encoding were dominated by thread
    // start-up and wake-ups, whose cost swings with host load. k-fold
    // finds the graphs in the cache.
    s->det->prepare(s->ds, 1);
    return s;
  };
  auto st = repeated_setup<KfoldState>(rec, a.smoke ? 1 : kSetupsEach, setup);

  std::string first_digest;
  std::uint64_t pass = 0;
  double traced_busy_s = 0.0;
  const auto unit = [&]() -> double {
    ++pass;
    Span ps("core.eval_engine.kfold", pass);
    pb::Tracer::get().set_ambient(ps.id(), pass);
    const auto t0 = Clock::now();
    const mp::core::EvalReport r = st->engine->kfold(*st->det, st->ds, opts);
    rec.samples["pass_s"].push_back(since(t0));
    std::vector<double> fold_ms;
    for (double s : st->sinks->fold_busy_s.values()) {
      fold_ms.push_back(s * 1e3);
      if (pb::Tracer::get().on()) traced_busy_s += s;
    }
    st->sinks->fold_busy_s.clear();
    if (!pb::Tracer::get().on()) rec.latency_passes.push_back(std::move(fold_ms));
    Digest d;
    for (const auto& v : r.verdicts) d.verdict(v);
    ++rec.attempted;
    if (first_digest.empty()) {
      first_digest = d.hex();
      rec.digest = first_digest;
      rec.confusion = confusion_json(r.confusion);
    } else if (d.hex() != first_digest) {
      fail(rec, "k-fold pass " + std::to_string(pass) +
                    " verdicts differ from the first pass");
    }
    if (r.verdicts.size() != st->ds.size()) fail(rec, "missing verdicts");
    return static_cast<double>(r.verdicts.size());
  };

  if (!a.trace) {
    timed_region(a, rec, unit, setups_between(a, rec, setup));
  } else {
    // Kernel deltas and fold spans cover the traced half only.
    OpTable before;
    double kfold_wall = 0.0;
    auto traced_unit = [&]() -> double {
      if (pb::Tracer::get().on() && before.empty()) {
        before = local_ops();
        st->sinks->fit_s.clear();
      }
      const auto t0 = Clock::now();
      const double u = unit();
      if (pb::Tracer::get().on()) kfold_wall += since(t0);
      return u;
    };
    timed_region(a, rec, traced_unit);
    const double op_s = put_op_delta(rec, "train", before, local_ops());
    const auto fits = st->sinks->fit_s.values();
    const double busy_sum = traced_busy_s;
    rec.samples["core.fold_fit_s"] = fits;
    rec.layers["core.pool_efficiency"] =
        kfold_wall > 0 ? busy_sum / (kfold_wall * threads) : 0.0;
    rec.layers["ml.unattributed_s.train"] = busy_sum - op_s;

    // Probes: per-step training latency and the per-case front half.
    const auto& graphs = st->cache->graphs(st->ds, mp::passes::OptLevel::O0);
    {
      mp::ml::kernels::ScopedKernelThreads one(1);
      mp::ml::GnnModel model{mp::ml::GnnConfig{}};
      pb::Tracer::get().enable(true);
      const std::size_t steps = std::min<std::size_t>(graphs.size(), 64);
      for (std::size_t i = 0; i < steps; ++i) {
        const auto t0 = Clock::now();
        {
          Span s("ml.gnn.train_step");
          model.train_step(graphs.graphs[i], graphs.y_binary[i]);
        }
        rec.samples["ml.gnn.train_step_ms"].push_back(since(t0) * 1e3);
      }
    }
    // Inference phase: tape-free batched predictions of the probe model
    // at batch sizes 1 and 8 (the daemon's coalescing window).
    {
      mp::ml::kernels::ScopedKernelThreads one(1);
      mp::ml::GnnModel model{mp::ml::GnnConfig{}};
      for (std::size_t i = 0; i < std::min<std::size_t>(graphs.size(), 16); ++i) {
        model.train_step(graphs.graphs[i], graphs.y_binary[i]);
      }
      const OpTable before_infer = local_ops();
      double span_s = 0.0;
      for (const std::size_t b : {std::size_t{1}, std::size_t{8}}) {
        for (std::size_t i = 0; i + b <= graphs.size(); i += b) {
          const auto c0 = Clock::now();
          {
            Span s("ml.gnn.infer_batch");
            (void)model.predict_proba(
                std::span<const mp::programl::ProgramGraph>(&graphs.graphs[i], b));
          }
          const double dt = since(c0);
          span_s += dt;
          rec.samples["ml.gnn.infer_batch_ms.b" + std::to_string(b)].push_back(dt * 1e3);
        }
      }
      const double op_infer = put_op_delta(rec, "infer", before_infer, local_ops());
      rec.layers["ml.unattributed_s.infer"] = span_s - op_infer;
    }
    run_pipeline_probe(rec, st->ds, {false, true, false}, 400);
    pb::Tracer::get().enable(false);
  }
  rec.layers["core.cache.graph_sets"] =
      static_cast<double>(st->cache->graph_set_count());
  rec.layers["core.cache.feature_sets"] =
      static_cast<double>(st->cache->feature_set_count());
  rec.layers["core.cache.disk_hits"] = static_cast<double>(st->cache->disk_hits());
  rec.layers["core.cache.disk_writes"] =
      static_cast<double>(st->cache->disk_writes());
  rec.peak_rss_mb = self_peak_rss_mb();
}

// ---- paper-eval ---------------------------------------------------------------

constexpr const char* kTools[] = {"itac", "must", "must-sweep", "parcoach",
                                  "mpi-checker"};

struct EvalState {
  mp::datasets::Dataset ds;
};

void paper_eval(const Args& a, Record& rec) {
  // Fixed corpus, as in gnn-kfold; the seed drives the IR2vec fold
  // assignment. The must-sweep schedule seeds stay fixed: they change
  // how long each simulation runs, by about 40% at the p99.
  const std::string spec = a.smoke ? "mix:0.03@1" : "mix:0.35@1";
  const unsigned threads = pool_width();
  const std::function<std::unique_ptr<EvalState>()> setup = [&] {
    auto s = std::make_unique<EvalState>();
    const auto g0 = Clock::now();
    s->ds = mp::datasets::make_dataset(spec);
    rec.layers["datasets.generate_s"] = since(g0);
    return s;
  };
  auto st = repeated_setup<EvalState>(rec, a.smoke ? 1 : kSetupsEach, setup);

  std::map<std::string, std::shared_ptr<pb::DetectorSinks>> sinks;
  for (const char* t : kTools) sinks[t] = std::make_shared<pb::DetectorSinks>();
  sinks["ir2vec"] = std::make_shared<pb::DetectorSinks>();
  std::string first_digest;
  std::uint64_t pass = 0;
  std::shared_ptr<mp::core::EncodingCache> last_cache;
  const auto unit = [&]() -> double {
    ++pass;
    if (pb::Tracer::get().on()) {
      for (auto& [k, s] : sinks) s->verdict_ms.clear(), s->fit_s.clear();
    }
    Span ps("core.eval_engine.paper_eval", pass);
    const auto pass_t0 = Clock::now();
    // A fresh cache per pass keeps lower/optimize/encode inside the
    // timed region, as a one-shot `mpiguard eval` pays it.
    auto cache = std::make_shared<mp::core::EncodingCache>();
    mp::core::EvalEngine engine(threads, cache);
    mp::core::DetectorConfig cfg;
    cfg.cache = cache;
    cfg.ir2vec.use_ga = false;
    mp::core::EvalOptions opts;
    opts.seed = a.seed;
    Digest d;
    std::ostringstream conf;
    conf << "{";
    double units = 0.0;
    auto run_one = [&](const std::string& key, bool kfold) {
      pb::TracedDetector det(
          mp::core::DetectorRegistry::global().create(key, cfg),
          kfold ? "ml.dt.fit" : "verify." + key + ".fit",
          kfold ? "ml.dt.infer" : "verify." + key + ".check", sinks[key]);
      Span s(kfold ? "core.eval_engine.kfold" : "core.eval_engine.sweep");
      pb::Tracer::get().set_ambient(s.id(), pass);
      const mp::core::EvalReport r =
          kfold ? engine.kfold(det, st->ds, opts) : engine.sweep(det, st->ds);
      for (const auto& v : r.verdicts) d.verdict(v);
      conf << (units > 0 ? "," : "") << quote(key) << ":"
           << confusion_json(r.confusion);
      ++rec.attempted;
      if (r.verdicts.size() != st->ds.size()) fail(rec, key + ": missing verdicts");
      units += static_cast<double>(r.verdicts.size());
    };
    for (const char* t : kTools) run_one(t, false);
    run_one("ir2vec", true);
    conf << "}";
    if (first_digest.empty()) {
      first_digest = d.hex();
      rec.digest = first_digest;
      rec.confusion = conf.str();
    } else if (d.hex() != first_digest) {
      fail(rec, "pass " + std::to_string(pass) + " verdicts differ from pass 1");
    }
    last_cache = cache;
    rec.samples["pass_s"].push_back(since(pass_t0));
    if (!pb::Tracer::get().on()) {
      std::vector<double> lat;
      for (auto& [k, s] : sinks) {
        const auto v = s->verdict_ms.values();
        lat.insert(lat.end(), v.begin(), v.end());
        s->verdict_ms.clear();
      }
      rec.latency_passes.push_back(std::move(lat));
    }
    return units;
  };
  timed_region(a, rec, unit, setups_between(a, rec, setup));

  if (a.trace) {
    for (const auto& [k, s] : sinks) {
      if (k != "ir2vec") rec.samples["verify." + k + ".check_ms"] = s->verdict_ms.values();
    }
    double dt = 0.0;
    for (double f : sinks["ir2vec"]->fit_s.values()) dt += f;
    rec.layers["ml.dt.fit_s"] = dt;
    run_pipeline_probe(rec, st->ds, {true, false, true}, 400);
    rec.layers["core.cache.feature_sets"] =
        static_cast<double>(last_cache->feature_set_count());
    rec.layers["core.cache.graph_sets"] =
        static_cast<double>(last_cache->graph_set_count());
    rec.layers["core.cache.disk_hits"] =
        static_cast<double>(last_cache->disk_hits());
    rec.layers["core.cache.disk_writes"] =
        static_cast<double>(last_cache->disk_writes());
  }
  rec.peak_rss_mb = self_peak_rss_mb();
}

// ---- serve-gnn / serve-ir2vec ---------------------------------------------------

struct ServeConfig {
  std::string key;                    // registry key of the bundle
  std::string train_spec;             // corpus the bundle is trained on
  std::vector<std::string> targets;   // specs SUBMITs name, alternating
  std::vector<std::pair<double, std::size_t>> ladder;  // (rate/s, requests)
  double limit_ms = 0.0;              // p99 limit for max_rate_rps
};

struct ServeState {
  std::vector<mp::datasets::Dataset> datasets;
  std::unique_ptr<mp::core::Detector> local;  // generator-side bundle copy
  std::unique_ptr<pb::Daemon> daemon;
  std::vector<std::unique_ptr<pb::Conn>> conns;
  std::vector<pb::Target> targets;
};

ServeConfig serve_config(const Args& a) {
  // Fixed corpora and bundles, as in the batch workloads: the seed
  // drives the traffic (arrival times and case indices).
  const std::string s = "@1";
  ServeConfig c;
  if (a.workload == "serve-gnn") {
    c.key = "gnn";
    c.train_spec = "mbi:0.02" + s;
    c.targets = {"mbi:0.05" + s};
    c.ladder = {{250, 1000}, {500, 1000}, {1000, 1000}, {2000, 1000}};
    c.limit_ms = 100.0;
  } else {
    c.key = "ir2vec";
    c.train_spec = "mix:0.05" + s;
    c.targets = {"mbi:0.05" + s, "corr:0.1" + s};
    // Capacity is about 1.7-2k/s on a 4-core x86 box; the limit sits
    // well above the p99 of every rung up to 1400/s (<= 40 ms) and the
    // 4000/s rung is always overloaded, so the selected rung does not
    // flip with noise.
    c.ladder = {{500, 8000}, {1000, 2000}, {1400, 2000}, {4000, 2000}};
    c.limit_ms = 100.0;
  }
  // Request counts follow the run length: at 20 s the reference rung
  // has 8 windows of 1000 requests (12 at 30 s), each with a p99 that
  // has 10 samples beyond it.
  // A traced run measures the ladder twice (untraced, then traced).
  const double scale = (a.smoke ? 0.025 : a.seconds / 20.0) * (a.trace ? 0.5 : 1.0);
  for (auto& [rate, n] : c.ladder) {
    n = std::max<std::size_t>(20, static_cast<std::size_t>(n * scale));
  }
  return c;
}

std::string rung_json(const pb::Rung& r, bool traced) {
  std::ostringstream o;
  o << "{\"rate\":" << num(r.rate) << ",\"traced\":" << (traced ? 1 : 0)
    << ",\"sched_ns\":[";
  for (std::size_t i = 0; i < r.reqs.size(); ++i) {
    o << (i ? "," : "") << r.reqs[i].sched_ns;
  }
  o << "],\"sent_ns\":[";
  for (std::size_t i = 0; i < r.reqs.size(); ++i) {
    o << (i ? "," : "") << r.reqs[i].sent_ns;
  }
  o << "],\"recv_ns\":[";
  for (std::size_t i = 0; i < r.reqs.size(); ++i) {
    o << (i ? "," : "")
      << (r.reqs[i].status == pb::ReqStatus::Verdict ? r.reqs[i].recv_ns : 0);
  }
  o << "]}";
  return o.str();
}

void serve(const Args& a, Record& rec) {
  if (a.daemon.empty()) throw std::runtime_error("--daemon is required");
  const ServeConfig cfg = serve_config(a);
  const unsigned threads = pool_width();
  std::filesystem::create_directories(a.work_dir);
  const std::string bundle = a.work_dir + "/serve.mpib";
  const std::string sock = a.work_dir + "/mpiguardd.sock";
  const std::string log = a.work_dir + "/mpiguardd.log";
  const auto& registry = mp::core::DetectorRegistry::global();

  auto stop = [&](ServeState& s) {
    if (!s.daemon) return;
    if (!s.conns.empty() && s.daemon->alive()) {
      try {
        s.conns[0]->send(mp::serve::Shutdown{});
        for (;;) {
          auto f = s.conns[0]->read_one(10000);
          if (std::holds_alternative<mp::serve::Bye>(f)) break;
        }
      } catch (const std::exception&) {
        // A daemon that cannot drain is killed by reap() below.
      }
    }
    s.conns.clear();
    s.daemon->reap(10000);
    s.daemon.reset();
  };

  const std::function<std::unique_ptr<ServeState>()> setup = [&] {
    auto s = std::make_unique<ServeState>();
    const auto g0 = Clock::now();
    const mp::datasets::Dataset train = mp::datasets::make_dataset(cfg.train_spec);
    for (const auto& t : cfg.targets) {
      s->datasets.push_back(mp::datasets::make_dataset(t));
      s->targets.push_back({t, s->datasets.back().size()});
    }
    rec.layers["datasets.generate_s"] = since(g0);
    {
      // The bundle is trained with one kernel thread, the budget
      // EvalEngine gives each fold: multi-threaded GNN training trips
      // the ThreadPool race described in perfbench/README.md. One epoch
      // is enough: serving cost depends on the graphs, not the weights.
      mp::ml::kernels::ScopedKernelThreads one(1);
      mp::core::DetectorConfig dc;
      dc.ir2vec.use_ga = false;
      dc.gnn.cfg.epochs = 1;
      mp::core::EvalEngine engine(threads);
      auto det = registry.create(cfg.key, dc);
      engine.fit_full(*det, train);
      registry.save_bundle(cfg.key, *det, bundle);
    }
    const auto l0 = Clock::now();
    s->local = registry.load_bundle(bundle);
    rec.layers["io.bundle_load_s"] = since(l0);
    s->daemon = std::make_unique<pb::Daemon>(
        a.daemon,
        std::vector<std::string>{"--model", bundle, "--socket", sock, "--queue",
                                 "4096", "--batch", "8"},
        log);
    for (unsigned c = 0; c < threads; ++c) {
      s->conns.push_back(std::make_unique<pb::Conn>(sock, 30000));
      s->conns.back()->send(mp::serve::Hello{"perfbench"});
      s->conns.back()->read_one(10000);  // CAPS
    }
    // First touch: the daemon generates and encodes each target corpus,
    // one target at a time. The order matters: the IR2vec detector keeps
    // only the last prepared corpus bound, and requests for any other
    // corpus re-resolve it through the cache (about 0.6 ms each), so a
    // racy order would flip the daemon between two speeds.
    std::vector<pb::Conn*> cs;
    for (auto& c : s->conns) cs.push_back(c.get());
    std::uint64_t id = 1;
    for (const auto& t : s->targets) {
      pb::run_rung(cs, {t}, 200.0, 1, a.seed, id, 60000, nullptr, nullptr);
    }
    return s;
  };
  auto st = repeated_setup<ServeState>(rec, a.smoke ? 1 : kServeSetupsBefore, setup);
  // Only the final set-up's daemon is left running; earlier ones were
  // torn down as each next set-up replaced them (the destructor reaps).

  std::vector<pb::Conn*> conns;
  for (auto& c : st->conns) conns.push_back(c.get());
  pb::Samples enc_us, dec_us;
  const mp::serve::Stats s0 = pb::fetch_stats(*conns[0]);
  std::vector<pb::Rung> rungs;
  std::uint64_t next_id = 1'000'000;
  auto run_ladder = [&]() -> double {
    double units = 0.0;
    for (std::size_t i = 0; i < cfg.ladder.size(); ++i) {
      const auto [rate, n] = cfg.ladder[i];
      Span rs("serve.rung");
      pb::Rung r = pb::run_rung(conns, st->targets, rate, n,
                                a.seed * 1000 + i, next_id, 20000, &enc_us,
                                &dec_us);
      if (!r.error.empty()) fail(rec, "rung " + num(rate) + "/s: " + r.error);
      bool all_ok = r.error.empty();
      for (const auto& q : r.reqs) {
        if (q.status == pb::ReqStatus::Verdict) ++units;
        else all_ok = false;
      }
      rungs.push_back(std::move(r));
      // Every rung runs, even above one over the latency limit: run.py
      // judges the rungs, and a fixed ladder keeps each run's work the
      // same. Only failed requests stop the ladder.
      if (!all_ok) break;
    }
    return units;
  };
  std::size_t untraced_rungs = 0;
  if (!a.trace) {
    const auto t0 = Clock::now();
    rec.units = run_ladder();
    rec.timed_s = since(t0);
  } else {
    auto t0 = Clock::now();
    rec.untraced_units = run_ladder();
    rec.untraced_s = since(t0);
    untraced_rungs = rungs.size();
    enc_us.clear();
    dec_us.clear();
    pb::Tracer::get().enable(true);
    t0 = Clock::now();
    {
      Span run("run");
      rec.root_span = run.id();
      rec.traced_units = run_ladder();
    }
    pb::Tracer::get().enable(false);
    rec.traced_s = since(t0);
  }
  const mp::serve::Stats s1 = pb::fetch_stats(*conns[0]);
  rec.peak_rss_mb = st->daemon->peak_rss_mb();

  // Cross-check every verdict against the same bundle loaded here; the
  // batch-1 calls double as the service-time probe.
  std::map<std::pair<std::uint32_t, std::uint64_t>, mp::core::Verdict> expected;
  std::vector<double> service_ms;
  {
    mp::ml::kernels::ScopedKernelThreads one(1);
    for (auto& ds : st->datasets) st->local->prepare(ds, threads);
    for (const auto& r : rungs) {
      for (const auto& q : r.reqs) {
        const auto key = std::make_pair(q.target, q.index);
        if (expected.count(key)) continue;
        const std::size_t idx = q.index;
        const auto c0 = Clock::now();
        auto v = st->local->run_indexed(st->datasets[q.target], {&idx, 1});
        service_ms.push_back(since(c0) * 1e3);
        expected[key] = v.at(0);
      }
    }
  }
  Digest d;
  std::ostringstream rj;
  rj << "[";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    for (const auto& q : rungs[i].reqs) {
      ++rec.attempted;
      switch (q.status) {
        case pb::ReqStatus::Pending: fail(rec, "unanswered request"); continue;
        case pb::ReqStatus::Busy: fail(rec, "BUSY"); continue;
        case pb::ReqStatus::Error: fail(rec, "ERROR"); continue;
        case pb::ReqStatus::Expired: fail(rec, "EXPIRED"); continue;
        case pb::ReqStatus::Verdict: break;
      }
      const auto& w = q.verdict;
      const auto& e = expected.at({q.target, q.index});
      const bool same =
          w.outcome == static_cast<std::uint8_t>(e.outcome) &&
          w.predicted_label.has_value() == e.predicted_label.has_value() &&
          (!w.predicted_label || *w.predicted_label == *e.predicted_label) &&
          w.confidence.has_value() == e.confidence.has_value() &&
          (!w.confidence ||
           std::memcmp(&*w.confidence, &*e.confidence, sizeof(double)) == 0);
      if (!same) fail(rec, "verdict differs from the local bundle");
      if (i == 0 && !a.trace) d.verdict(w.outcome, w.predicted_label, w.confidence);
    }
    rj << (i ? "," : "") << rung_json(rungs[i], a.trace && i >= untraced_rungs);
  }
  rj << "]";
  rec.rungs_json = rj.str();
  rec.digest = d.hex();
  rec.latency_limit_ms = cfg.limit_ms;
  if (!st->daemon->alive()) fail(rec, "daemon died");

  rec.samples["serve.service_ms"] = service_ms;
  rec.samples["serve.wire.encode_us"] = enc_us.values();
  rec.samples["serve.wire.decode_us"] = dec_us.values();
  rec.layers["serve.batches"] = static_cast<double>(s1.batches - s0.batches);
  rec.layers["serve.served"] = static_cast<double>(s1.served - s0.served);
  rec.layers["serve.max_queue_depth"] = static_cast<double>(s1.max_queue_depth);
  rec.layers["serve.busy_rejected"] =
      static_cast<double>(s1.busy_rejected - s0.busy_rejected);
  rec.layers["serve.deadline_sheds"] =
      static_cast<double>(s1.deadline_sheds - s0.deadline_sheds);
  rec.layers["serve.io_timeouts"] =
      static_cast<double>(s1.io_timeouts - s0.io_timeouts);
  rec.layers["core.cache.disk_hits"] = static_cast<double>(s1.cache_disk_hits);
  rec.layers["core.cache.disk_writes"] = static_cast<double>(s1.cache_disk_writes);
  if (a.trace) {
    // Inference kernels as the daemon ran them (its STATS op rows).
    put_op_delta(rec, "infer", stats_ops(s0), stats_ops(s1));
    PipelineProbe p;
    p.ir2vec = cfg.key == "ir2vec";
    p.programl = cfg.key == "gnn";
    for (const auto& ds : st->datasets) run_pipeline_probe(rec, ds, p, 200);
    pb::Tracer::get().enable(false);
  }
  stop(*st);
  if (!a.trace && !a.smoke) {
    auto last = repeated_setup<ServeState>(rec, kServeSetupsAfter, setup);
    stop(*last);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
  Record rec;
  try {
    if (a.workload == "gnn-kfold") gnn_kfold(a, rec);
    else if (a.workload == "paper-eval") paper_eval(a, rec);
    else if (a.workload == "serve-gnn" || a.workload == "serve-ir2vec") serve(a, rec);
    else throw std::runtime_error("unknown workload " + a.workload);
  } catch (const std::exception& e) {
    ++rec.attempted;
    fail(rec, std::string("exception: ") + e.what());
  }
  rec.spans = pb::Tracer::get().take();
  try {
    write_record(a, rec, pool_width());
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
