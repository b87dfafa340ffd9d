// mpiguard — the command-line front end of the detector stack: train a
// detector on a generated corpus, persist it as a model bundle, reload
// it anywhere, and run the EvalEngine protocols from the shell. The
// §V-D CI-gatekeeper story becomes a pipeline:
//
//   mpiguard train   --detector ir2vec --dataset mbi:0.3 --out gate.mpib
//   mpiguard predict --model gate.mpib --dataset mbi:0.05@7
//
// and with --cache-dir the encoding spill makes every later run on the
// same corpus skip the compile+embed front half entirely (once per
// machine, not once per process).
//
// Subcommands: train | predict | eval | bench | fuzz | corpus | list.
// Run with --help (or see docs/API.md) for the full flag reference.
#include <algorithm>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <optional>
#include <string>
#include <vector>

#include "core/fuzzer.hpp"
#include "core/detector.hpp"
#include "core/eval_engine.hpp"
#include "core/perf_bench.hpp"
#include "corpus/corpus.hpp"
#include "datasets/spec.hpp"
#include "io/serialize.hpp"
#include "support/check.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

using namespace mpidetect;

namespace {

constexpr const char* kUsage = R"(mpiguard — train, persist and evaluate MPI error detectors

usage:
  mpiguard train   --detector NAME --dataset SPEC --out FILE [options]
  mpiguard predict --model FILE --dataset SPEC [--limit N] [options]
  mpiguard eval    (--detector NAME | --model FILE)
                   (--dataset SPEC | --corpus DIR [--window N])
                   [--protocol sweep|kfold|cross] [--valid SPEC] [options]
  mpiguard bench   [--detectors A,B,...] --dataset SPEC [options]
  mpiguard bench   --json --dataset SPEC [--json-out FILE] [--reps N]
                   [--warmup N] [--batch N] [--infer-batch N]
  mpiguard fuzz    [--seed S --runs N --schedules K] [--json] [--quick]
                   [--corpus FILE] [--corpus-dir DIR] [--repro TUPLE]
                   [options]
  mpiguard corpus  build  --out DIR (--dataset SPEC | --fuzz N [--seed S])
                          [--shard-mb M]
  mpiguard corpus  info   --dir DIR
  mpiguard corpus  verify --dir DIR
  mpiguard corpus  merge  --out DIR --inputs A,B,... [--shard-mb M]
  mpiguard list

dataset SPEC        mbi | corr | mix, with optional scale and generator
                    seed: "mbi:0.25@7" = MBI at 25% size, seed 7.
                    corr also accepts "corr+header" (keep the mpitest.h
                    preamble, i.e. the Figure 2 size bias).

common options:
  --cache-dir DIR   on-disk encoding cache shared across runs: each
                    corpus is compiled+embedded once per machine
  --threads N       worker pool width (default: hardware concurrency)
  --ga              enable GA feature selection for ir2vec (off by
                    default on the CLI; --ga-pop/--ga-gens to size it)
  --folds N         override k-fold count (eval kfold)
  --multiclass      train/evaluate on per-label classes (ir2vec kfold)
  --quiet           summary lines only (no per-case/per-label tables)

streamed eval (out-of-core .mpcs shards, see docs/CORPUS.md):
  --corpus DIR      evaluate over a sharded corpus directory instead of
                    a generated --dataset: sweep and kfold stream cases
                    window-by-window with bounded memory, folds run
                    serially (binary detectors only)
  --window N        cases materialized per streaming window (default 256)

fuzz options (differential fuzz harness, see docs/TESTING.md):
  --seed S          campaign seed (default 1); a fixed (seed, runs,
                    schedules) triple reproduces the campaign exactly
  --runs N          programs to draw (default 200)
  --schedules K     seeded schedules per program, incl. the
                    deterministic round-robin one (default 4)
  --detectors A,B   registry keys to cross-check (default
                    itac,must,must-sweep,parcoach,mpi-checker)
  --max-steps N     simulator budget per run, total across ranks
  --corpus FILE     stream divergence repro tuples to FILE as they are
                    found ("MPFZ" corpus; no file when none diverge)
  --corpus-dir DIR  distill EVERY drawn case into .mpcs shards under
                    DIR — turns a campaign into a labeled training
                    corpus for `mpiguard eval --corpus`
  --no-shrink       keep divergent tuples as drawn
  --repro TUPLE     re-run one printed seed tuple instead of a campaign
  --quick           CI smoke profile (120 runs x 3 schedules); exit
                    status reflects divergences only, never speed
  --json            emit the machine-readable report
  exit status: 0 = no divergences, 2 = divergences or crashes.

corpus options (sharded .mpcs corpora, see docs/CORPUS.md):
  build             write a corpus: --dataset SPEC streams a generated
                    corpus into shards; --fuzz N distills N fuzz draws
                    (seeded by --seed) without running the simulator
  info              validate and summarize a corpus (per-shard table)
  verify            full integrity pass: header/index/fingerprint checks
                    plus a decode + checksum of every record
  merge             re-shard the union of --inputs corpora into --out
  --out DIR         output directory (build, merge)
  --dir DIR         corpus directory (info, verify)
  --shard-mb M      max shard payload size in MiB (default 64)
  --inputs A,B      comma-separated source directories (merge)

bench --json options (GNN perf harness, see docs/PERFORMANCE.md):
  --json            time GNN encode/train/infer, baseline vs batched
                    engine, and write the BENCH_gnn.json record instead
                    of running the detector-comparison table
  --json-out FILE   output path (default: BENCH_gnn.json)
  --reps N          measured repetitions per phase (default 5)
  --warmup N        discarded warmup repetitions per phase (default 1)
  --batch N         training mini-batch for the batched mode (default 4)
  --infer-batch N   inference micro-batch (default 4)

exit status: 0 success, 1 usage error, 2 runtime failure.
)";

struct CliError final : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Strict numeric parsing: malformed input is a usage error (exit 1
/// with the flag named), never a stray std::invalid_argument (exit 2).
std::uint64_t parse_u64(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(s, &pos);
    if (pos != s.size() || s.front() == '-') throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw CliError(std::string(what) + ": not a non-negative integer: '" + s +
                   "'");
  }
}

// ---- argument parsing -------------------------------------------------------

struct Args {
  std::string subcommand;
  std::string detector;
  std::string detectors;  // bench: comma-separated
  std::string dataset_spec;
  std::string valid_spec;
  std::string protocol;
  std::string model_path;
  std::string out_path;
  std::string cache_dir;
  unsigned threads = 0;
  bool use_ga = false;
  std::size_t ga_pop = 300;
  std::size_t ga_gens = 12;
  std::optional<int> folds;
  bool multiclass = false;
  bool quiet = false;
  std::size_t limit = 20;
  bool json = false;
  std::string json_out = "BENCH_gnn.json";
  int reps = 5;
  int warmup = 1;
  std::size_t batch = 4;
  std::size_t infer_batch = 4;
  // fuzz
  std::uint64_t fuzz_seed = 1;
  int fuzz_runs = 200;
  int fuzz_schedules = 4;
  std::optional<std::uint64_t> fuzz_max_steps;
  std::string corpus_path;  // fuzz: MPFZ file; eval: .mpcs directory
  std::string repro_tuple;
  bool no_shrink = false;
  bool quick = false;
  // corpus / streaming
  std::string corpus_action;  // build | info | verify | merge
  std::string corpus_dir;     // fuzz --corpus-dir
  std::string dir;            // corpus info/verify --dir
  std::string inputs;         // corpus merge, comma-separated
  std::optional<int> fuzz_distill;  // corpus build --fuzz N
  std::uint64_t shard_mb = 0;       // 0 = writer default
  std::size_t window = 256;
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw CliError("missing subcommand");
  a.subcommand = argv[1];

  int first_flag = 2;
  if (a.subcommand == "corpus" && argc >= 3 && argv[2][0] != '-') {
    a.corpus_action = argv[2];
    first_flag = 3;
  }

  const auto need_value = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) {
      throw CliError(std::string(flag) + " requires a value");
    }
    return argv[++i];
  };
  for (int i = first_flag; i < argc; ++i) {
    const std::string_view f = argv[i];
    if (f == "--detector") a.detector = need_value(i, "--detector");
    else if (f == "--detectors") a.detectors = need_value(i, "--detectors");
    else if (f == "--dataset") a.dataset_spec = need_value(i, "--dataset");
    else if (f == "--valid") a.valid_spec = need_value(i, "--valid");
    else if (f == "--protocol") a.protocol = need_value(i, "--protocol");
    else if (f == "--model") a.model_path = need_value(i, "--model");
    else if (f == "--out") a.out_path = need_value(i, "--out");
    else if (f == "--cache-dir") a.cache_dir = need_value(i, "--cache-dir");
    else if (f == "--threads")
      a.threads = static_cast<unsigned>(
          parse_u64(need_value(i, "--threads"), "--threads"));
    else if (f == "--ga") a.use_ga = true;
    else if (f == "--no-ga") a.use_ga = false;
    else if (f == "--ga-pop")
      a.ga_pop = parse_u64(need_value(i, "--ga-pop"), "--ga-pop");
    else if (f == "--ga-gens")
      a.ga_gens = parse_u64(need_value(i, "--ga-gens"), "--ga-gens");
    else if (f == "--folds")
      a.folds = static_cast<int>(parse_u64(need_value(i, "--folds"),
                                           "--folds"));
    else if (f == "--multiclass") a.multiclass = true;
    else if (f == "--quiet") a.quiet = true;
    else if (f == "--limit")
      a.limit = parse_u64(need_value(i, "--limit"), "--limit");
    else if (f == "--json") a.json = true;
    else if (f == "--json-out") a.json_out = need_value(i, "--json-out");
    else if (f == "--reps")
      a.reps = static_cast<int>(parse_u64(need_value(i, "--reps"), "--reps"));
    else if (f == "--warmup")
      a.warmup = static_cast<int>(
          parse_u64(need_value(i, "--warmup"), "--warmup"));
    else if (f == "--batch")
      a.batch = parse_u64(need_value(i, "--batch"), "--batch");
    else if (f == "--infer-batch")
      a.infer_batch = parse_u64(need_value(i, "--infer-batch"),
                                "--infer-batch");
    else if (f == "--seed")
      a.fuzz_seed = parse_u64(need_value(i, "--seed"), "--seed");
    else if (f == "--runs")
      a.fuzz_runs = static_cast<int>(
          parse_u64(need_value(i, "--runs"), "--runs"));
    else if (f == "--schedules")
      a.fuzz_schedules = static_cast<int>(
          parse_u64(need_value(i, "--schedules"), "--schedules"));
    else if (f == "--max-steps")
      a.fuzz_max_steps = parse_u64(need_value(i, "--max-steps"),
                                   "--max-steps");
    else if (f == "--corpus") a.corpus_path = need_value(i, "--corpus");
    else if (f == "--corpus-dir") a.corpus_dir = need_value(i, "--corpus-dir");
    else if (f == "--dir") a.dir = need_value(i, "--dir");
    else if (f == "--inputs") a.inputs = need_value(i, "--inputs");
    else if (f == "--fuzz")
      a.fuzz_distill = static_cast<int>(
          parse_u64(need_value(i, "--fuzz"), "--fuzz"));
    else if (f == "--shard-mb")
      a.shard_mb = parse_u64(need_value(i, "--shard-mb"), "--shard-mb");
    else if (f == "--window")
      a.window = parse_u64(need_value(i, "--window"), "--window");
    else if (f == "--repro") a.repro_tuple = need_value(i, "--repro");
    else if (f == "--no-shrink") a.no_shrink = true;
    else if (f == "--quick") a.quick = true;
    else if (f == "--help" || f == "-h") throw CliError("");
    else throw CliError("unknown flag: " + std::string(f));
  }
  return a;
}

// ---- dataset specs ----------------------------------------------------------

/// "name[:scale][@seed]" -> generated corpus via the shared spec
/// grammar (datasets/spec.hpp — the same parser the daemon applies to
/// SUBMIT frames). A malformed spec is a usage error (exit 1), never a
/// stray runtime failure.
datasets::Dataset make_dataset(const std::string& spec) {
  try {
    return datasets::make_dataset(spec);
  } catch (const datasets::SpecError& e) {
    throw CliError(e.what());
  }
}

// ---- shared wiring ----------------------------------------------------------

/// One cache + engine per invocation, mirroring bench::Harness; the
/// spill dir (when given) is what makes separate invocations share
/// encodings.
struct Session {
  std::shared_ptr<core::EncodingCache> cache;
  core::EvalEngine engine;

  explicit Session(const Args& a)
      : cache(std::make_shared<core::EncodingCache>()),
        engine(a.threads, cache) {
    if (!a.cache_dir.empty()) cache->set_spill_dir(a.cache_dir);
  }

  core::DetectorConfig config(const Args& a) const {
    core::DetectorConfig cfg;
    cfg.cache = cache;
    cfg.ir2vec.use_ga = a.use_ga;
    cfg.ir2vec.ga.population = a.ga_pop;
    cfg.ir2vec.ga.generations = a.ga_gens;
    if (a.folds) {
      cfg.ir2vec.folds = *a.folds;
      cfg.gnn.folds = *a.folds;
    }
    return cfg;
  }

  void print_cache_stats() const {
    std::cout << "encoding cache: " << cache->feature_set_count()
              << " feature set(s), " << cache->graph_set_count()
              << " graph set(s) in memory";
    if (!cache->spill_dir().empty()) {
      std::cout << "; disk hits " << cache->disk_hits() << ", disk writes "
                << cache->disk_writes() << " (" << cache->spill_dir() << ")";
    }
    std::cout << "\n";
  }
};

void print_report(const core::EvalReport& r, bool quiet) {
  std::cout << r.detector << " [" << r.protocol << "] " << r.train_dataset;
  if (r.valid_dataset != r.train_dataset) std::cout << " -> " << r.valid_dataset;
  const ml::Confusion& c = r.confusion;
  std::cout << ": " << c.to_string() << "\n"
            << "  recall " << fmt_double(c.recall(), 3) << "  precision "
            << fmt_double(c.precision(), 3) << "  f1 " << fmt_double(c.f1(), 3)
            << "  accuracy " << fmt_double(c.accuracy(), 3) << "  ("
            << r.cases << " cases, " << fmt_double(r.wall_seconds, 2)
            << " s)\n";
  if (quiet) return;
  Table t({"Label", "Correct", "Total", "Rate"});
  for (const auto& [label, counts] : r.per_label) {
    t.add_row({label, std::to_string(counts.first),
               std::to_string(counts.second),
               fmt_percent(static_cast<double>(counts.first) /
                           static_cast<double>(counts.second))});
  }
  t.print(std::cout);
}

// ---- subcommands ------------------------------------------------------------

int cmd_train(const Args& a) {
  if (a.detector.empty()) throw CliError("train: --detector is required");
  if (a.dataset_spec.empty()) throw CliError("train: --dataset is required");
  if (a.out_path.empty()) throw CliError("train: --out is required");

  Session session(a);
  const auto ds = make_dataset(a.dataset_spec);
  auto& registry = core::DetectorRegistry::global();
  auto det = registry.create(a.detector, session.config(a));

  if (det->trainable()) {
    std::cout << "training " << det->name() << " on " << ds.name << " ("
              << ds.size() << " cases)...\n";
    session.engine.fit_full(*det, ds);
  } else {
    std::cout << det->name() << " needs no training (expert tool); bundling "
              << "its configuration only\n";
  }
  registry.save_bundle(a.detector, *det, a.out_path);
  std::cout << "saved model bundle: " << a.out_path << "\n";
  session.print_cache_stats();
  return 0;
}

int cmd_predict(const Args& a) {
  if (a.model_path.empty()) throw CliError("predict: --model is required");
  if (a.dataset_spec.empty()) throw CliError("predict: --dataset is required");

  Session session(a);
  auto det = core::DetectorRegistry::global().load_bundle(a.model_path,
                                                          session.config(a));
  const auto ds = make_dataset(a.dataset_spec);
  const auto report = session.engine.sweep(*det, ds);

  if (!a.quiet) {
    Table t({"Case", "Truth", "Verdict", "Hit"});
    const std::size_t shown = std::min(a.limit, ds.size());
    for (std::size_t i = 0; i < shown; ++i) {
      const auto& v = report.verdicts[i];
      t.add_row({ds.cases[i].name.substr(0, 44),
                 ds.cases[i].incorrect ? "bug" : "clean",
                 std::string(core::outcome_name(v.outcome)),
                 v.conclusive() && v.flagged() == ds.cases[i].incorrect
                     ? "yes"
                     : "NO"});
    }
    t.print(std::cout);
    if (shown < ds.size()) {
      std::cout << "... " << ds.size() - shown
                << " more (raise --limit to see them)\n";
    }
  }
  print_report(report, /*quiet=*/true);
  session.print_cache_stats();
  return 0;
}

/// eval: one protocol dispatch over a case source — a generated
/// --dataset (resident) or a .mpcs --corpus directory (windowed). Cross
/// needs a second corpus and is resident-only for now.
int cmd_eval(const Args& a) {
  if (a.dataset_spec.empty() && a.corpus_path.empty()) {
    throw CliError("eval: --dataset or --corpus is required");
  }
  if (!a.dataset_spec.empty() && !a.corpus_path.empty()) {
    throw CliError("eval: --dataset and --corpus are mutually exclusive");
  }
  if (a.model_path.empty() == a.detector.empty()) {
    throw CliError("eval: exactly one of --model / --detector is required");
  }

  Session session(a);
  auto& registry = core::DetectorRegistry::global();
  auto det = a.model_path.empty()
                 ? registry.create(a.detector, session.config(a))
                 : registry.load_bundle(a.model_path, session.config(a));

  const bool on_disk = !a.corpus_path.empty();
  datasets::Dataset ds;
  std::unique_ptr<corpus::CaseSource> src;
  if (on_disk) {
    auto reader = std::make_unique<corpus::CorpusReader>(a.corpus_path);
    std::cout << "corpus " << a.corpus_path << ": " << reader->size()
              << " case(s) across " << reader->shard_count() << " shard(s)\n";
    src = std::move(reader);
  } else {
    ds = make_dataset(a.dataset_spec);
    src = std::make_unique<corpus::DatasetSource>(ds);
  }

  std::string protocol = a.protocol;
  if (protocol.empty()) {
    // Sensible default per detector: a loaded/untrainable detector is
    // swept, a fresh trainable one cross-validates.
    protocol = (!a.model_path.empty() || !det->trainable()) ? "sweep" : "kfold";
  }
  core::StreamOptions sopts;
  sopts.window = std::max<std::size_t>(1, a.window);

  core::EvalReport report;
  if (protocol == "sweep") {
    if (det->trainable() && a.model_path.empty()) {
      throw CliError("eval: a fresh " + std::string(det->name()) +
                     " has no trained state to sweep; pass --model, or use "
                     "--protocol " + (on_disk ? "kfold" : "kfold/cross"));
    }
    report = session.engine.sweep(*det, *src, sopts);
  } else if (protocol == "kfold") {
    if (a.multiclass && on_disk) {
      throw CliError("eval: --corpus streaming is binary-only (drop "
                     "--multiclass or use --dataset)");
    }
    core::EvalOptions opts = det->eval_defaults();
    if (a.folds) opts.folds = *a.folds;
    opts.multiclass = a.multiclass;
    report = session.engine.kfold(*det, *src, opts, sopts);
  } else if (on_disk) {
    throw CliError("eval: protocol '" + protocol +
                   "' is not streamable (use sweep or kfold with --corpus)");
  } else if (protocol == "cross") {
    if (a.valid_spec.empty()) {
      throw CliError("eval: --protocol cross requires --valid");
    }
    const auto valid = make_dataset(a.valid_spec);
    report = session.engine.cross(*det, ds, valid);
  } else {
    throw CliError("eval: unknown protocol '" + protocol +
                   "' (expected sweep, kfold or cross)");
  }
  print_report(report, a.quiet);
  session.print_cache_stats();
  return 0;
}

/// `bench --json`: the GNN perf harness (core/perf_bench.hpp) instead
/// of the detector-comparison table — times encode/train/infer in
/// baseline and batched modes and writes the BENCH_gnn.json record.
int cmd_bench_json(const Args& a) {
  if (a.reps < 1) throw CliError("bench --json: --reps must be >= 1");
  if (a.warmup < 0) throw CliError("bench --json: --warmup must be >= 0");
  if (a.batch == 0 || a.infer_batch == 0) {
    throw CliError("bench --json: batch sizes must be >= 1");
  }
  const auto ds = make_dataset(a.dataset_spec);

  core::GnnPerfOptions opts;
  // The reduced bench stack of bench/common.hpp: same shape of results
  // as the paper's 128/64/32, far faster per step.
  opts.cfg.embed_dim = 16;
  opts.cfg.layers = {64, 32, 16};
  opts.cfg.fc_hidden = 16;
  opts.cfg.epochs = 4;
  opts.train_batch = a.batch;
  opts.infer_batch = a.infer_batch;
  opts.warmup = a.warmup;
  opts.reps = a.reps;
  opts.threads = a.threads;

  std::cout << "GNN perf bench on " << ds.name << " (" << ds.size()
            << " cases): reps=" << a.reps << " warmup=" << a.warmup
            << " train_batch=" << a.batch << " infer_batch=" << a.infer_batch
            << "\n";
  const core::GnnPerfReport report = core::run_gnn_perf(ds, opts);
  return core::report_and_write(report, a.json_out, std::cout);
}

int cmd_bench(const Args& a) {
  if (a.dataset_spec.empty()) throw CliError("bench: --dataset is required");
  if (a.json) return cmd_bench_json(a);
  const std::string names =
      a.detectors.empty() ? "itac,must,parcoach,mpi-checker,ir2vec"
                          : a.detectors;

  Session session(a);
  const auto ds = make_dataset(a.dataset_spec);
  auto& registry = core::DetectorRegistry::global();

  Table t({"Detector", "Protocol", "Recall", "Precision", "F1", "Accuracy",
           "Conclusive", "Seconds"});
  for (const auto& name : split(names, ',')) {
    auto det = registry.create(trim(name), session.config(a));
    const auto report = det->trainable() ? session.engine.kfold(*det, ds)
                                         : session.engine.sweep(*det, ds);
    const ml::Confusion& c = report.confusion;
    t.add_row({std::string(det->name()), report.protocol,
               fmt_double(c.recall(), 3), fmt_double(c.precision(), 3),
               fmt_double(c.f1(), 3), fmt_double(c.accuracy(), 3),
               fmt_percent(c.conclusiveness()),
               fmt_double(report.wall_seconds, 2)});
  }
  std::cout << "=== " << ds.name << " (" << ds.size() << " cases) ===\n";
  t.print(std::cout);
  session.print_cache_stats();
  return 0;
}

void print_fuzz_divergences(const core::FuzzReport& report) {
  for (const auto& d : report.divergences) {
    std::cout << "DIVERGENCE [" << core::divergence_kind_name(d.kind) << "] "
              << d.detector << ": " << d.detail << "\n"
              << "  drawn:  " << d.tuple.to_string() << "\n"
              << "  shrunk: " << d.shrunk.to_string();
    if (!d.shrunk.dropped.empty()) {
      std::cout << " (-" << d.shrunk.dropped.size() << " stmts)";
    }
    std::cout << "\n  reproduce: mpiguard fuzz --repro '"
              << d.shrunk.to_string() << "' --schedules "
              << report.config.schedules << "\n";
  }
}

void print_fuzz_coverage(const core::FuzzReport& report, bool quiet) {
  print_fuzz_divergences(report);
  if (!quiet) {
    std::vector<std::string> head{"Injection", "Runs", "Single", "Swept"};
    for (const auto& key : report.config.detectors) head.push_back(key);
    Table t(head);
    for (const auto& [inject, stats] : report.per_inject) {
      std::vector<std::string> row{inject, std::to_string(stats.runs),
                                   std::to_string(stats.flagged_single),
                                   std::to_string(stats.flagged_swept)};
      for (const auto& key : report.config.detectors) {
        const auto it = stats.detector_hits.find(key);
        row.push_back(
            std::to_string(it == stats.detector_hits.end() ? 0 : it->second));
      }
      t.add_row(row);
    }
    t.print(std::cout);
  }
  std::cout << report.summary() << "\n";
}

/// `mpiguard fuzz`: the differential fuzz harness (core/fuzzer.hpp).
/// Exit 0 when the campaign is divergence-free, 2 otherwise — CI runs
/// `fuzz --quick` as a smoke step that fails on crashes/divergences but
/// never on machine speed.
int cmd_fuzz(const Args& a) {
  core::FuzzConfig cfg;
  cfg.seed = a.fuzz_seed;
  cfg.runs = a.quick ? 120 : a.fuzz_runs;
  cfg.schedules = a.quick ? 3 : a.fuzz_schedules;
  cfg.shrink = !a.no_shrink;
  cfg.corpus_path = a.corpus_path;
  cfg.corpus_dir = a.corpus_dir;
  if (a.fuzz_max_steps) cfg.max_steps = *a.fuzz_max_steps;
  if (!a.detectors.empty()) {
    cfg.detectors.clear();
    for (const auto& name : split(a.detectors, ',')) {
      cfg.detectors.emplace_back(trim(name));
    }
  }
  if (cfg.runs < 0 || cfg.schedules < 1) {
    throw CliError("fuzz: --runs must be >= 0 and --schedules >= 1");
  }

  core::DifferentialFuzzer fuzzer(cfg);

  if (!a.repro_tuple.empty()) {
    const auto tuple = core::FuzzTuple::parse(a.repro_tuple);
    if (!tuple) {
      throw CliError("fuzz: malformed --repro tuple: '" + a.repro_tuple +
                     "'");
    }
    core::FuzzReport report;
    report.config = cfg;
    fuzzer.check(*tuple, report);
    report.runs = 1;
    const auto swept = fuzzer.sweep(*tuple);
    std::cout << "tuple: " << tuple->to_string() << "\n"
              << "sweep: " << swept.summary() << "\n";
    for (const auto& rep : swept.reports) {
      std::cout << "  seed=" << rep.schedule_seed << ": " << rep.summary()
                << "\n";
    }
    if (a.json) std::cout << report.to_json();
    print_fuzz_divergences(report);
    return report.ok() ? 0 : 2;
  }

  const auto report = fuzzer.run();
  if (a.json) {
    std::cout << report.to_json();
  } else {
    print_fuzz_coverage(report, a.quiet);
  }
  if (!a.corpus_path.empty() && report.divergence_count > 0) {
    std::cout << "repro corpus written: " << a.corpus_path << "\n";
  }
  if (!a.corpus_dir.empty()) {
    std::cout << "distilled corpus written: " << a.corpus_dir << " ("
              << report.distilled_cases << " cases, "
              << report.distilled_shards << " shards)\n";
  }
  return report.ok() ? 0 : 2;
}

// ---- corpus subcommand ------------------------------------------------------

corpus::WriterOptions writer_options(const Args& a) {
  corpus::WriterOptions w;
  if (a.shard_mb > 0) w.max_shard_bytes = a.shard_mb << 20;
  return w;
}

int cmd_corpus_build(const Args& a) {
  if (a.out_path.empty()) throw CliError("corpus build: --out is required");
  if (a.dataset_spec.empty() == !a.fuzz_distill) {
    throw CliError(
        "corpus build: exactly one of --dataset / --fuzz is required");
  }
  corpus::WriteStats stats;
  if (a.fuzz_distill) {
    core::FuzzConfig cfg;
    cfg.seed = a.fuzz_seed;
    const core::DifferentialFuzzer fuzzer(cfg);
    stats = fuzzer.distill(a.out_path, *a.fuzz_distill, writer_options(a));
  } else {
    const auto ds = make_dataset(a.dataset_spec);
    corpus::CorpusWriter w(a.out_path, writer_options(a));
    for (const auto& c : ds.cases) w.add(c);
    stats = w.finish();
  }
  std::cout << "corpus built: " << a.out_path << " (" << stats.cases
            << " cases, " << stats.shards << " shards, " << stats.bytes
            << " bytes)\n";
  return 0;
}

int cmd_corpus_info(const Args& a, bool deep_verify) {
  if (a.dir.empty()) {
    throw CliError(std::string("corpus ") +
                   (deep_verify ? "verify" : "info") + ": --dir is required");
  }
  // Construction already validates headers, geometry, index entries and
  // whole-shard fingerprints; verify additionally decodes every record
  // (per-record checksum + metadata cross-check).
  const corpus::CorpusReader src(a.dir);
  if (deep_verify) {
    std::size_t n = 0;
    src.for_each([&](std::size_t, const datasets::Case&) { ++n; });
    std::cout << "corpus OK: " << a.dir << " (" << n << " cases decoded across "
              << src.shard_count() << " shards)\n";
    return 0;
  }
  Table t({"Shard", "Cases", "Bytes", "Fingerprint"});
  for (const auto& s : src.shards()) {
    std::ostringstream fp;
    fp << std::hex << std::setw(16) << std::setfill('0') << s.fingerprint;
    t.add_row({s.path.filename().string(), std::to_string(s.case_count),
               std::to_string(s.file_bytes), fp.str()});
  }
  t.print(std::cout);
  std::map<std::string, std::size_t> labels;
  std::size_t bugs = 0;
  for (std::size_t i = 0; i < src.size(); ++i) {
    ++labels[src.label_name(i)];
    bugs += src.incorrect(i);
  }
  std::cout << src.size() << " case(s) (" << bugs << " incorrect) across "
            << src.shard_count() << " shard(s)\n";
  if (!a.quiet) {
    Table lt({"Label", "Cases"});
    for (const auto& [label, n] : labels) {
      lt.add_row({label, std::to_string(n)});
    }
    lt.print(std::cout);
  }
  return 0;
}

int cmd_corpus_merge(const Args& a) {
  if (a.out_path.empty()) throw CliError("corpus merge: --out is required");
  if (a.inputs.empty()) throw CliError("corpus merge: --inputs is required");
  corpus::CorpusWriter w(a.out_path, writer_options(a));
  std::uint64_t sources = 0;
  for (const auto& in : split(a.inputs, ',')) {
    const corpus::CorpusReader src(trim(in));
    src.for_each(
        [&](std::size_t, const datasets::Case& c) { w.add(c); });
    ++sources;
  }
  const corpus::WriteStats stats = w.finish();
  std::cout << "merged " << sources << " corpora into " << a.out_path << " ("
            << stats.cases << " cases, " << stats.shards << " shards)\n";
  return 0;
}

int cmd_corpus(const Args& a) {
  if (a.corpus_action == "build") return cmd_corpus_build(a);
  if (a.corpus_action == "info") return cmd_corpus_info(a, false);
  if (a.corpus_action == "verify") return cmd_corpus_info(a, true);
  if (a.corpus_action == "merge") return cmd_corpus_merge(a);
  throw CliError(a.corpus_action.empty()
                     ? "corpus: missing action (build|info|verify|merge)"
                     : "corpus: unknown action '" + a.corpus_action + "'");
}

int cmd_list() {
  Table t({"Registry key", "Display name", "Kind", "Trainable"});
  const auto& registry = core::DetectorRegistry::global();
  for (const auto& name : registry.names()) {
    const auto det = registry.create(name);
    t.add_row({name, std::string(det->name()),
               std::string(core::detector_kind_name(det->kind())),
               det->trainable() ? "yes" : "no"});
  }
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.subcommand == "train") return cmd_train(args);
    if (args.subcommand == "predict") return cmd_predict(args);
    if (args.subcommand == "eval") return cmd_eval(args);
    if (args.subcommand == "bench") return cmd_bench(args);
    if (args.subcommand == "fuzz") return cmd_fuzz(args);
    if (args.subcommand == "corpus") return cmd_corpus(args);
    if (args.subcommand == "list") return cmd_list();
    if (args.subcommand == "--help" || args.subcommand == "-h" ||
        args.subcommand == "help") {
      std::cout << kUsage;
      return 0;
    }
    throw CliError("unknown subcommand: " + args.subcommand);
  } catch (const CliError& e) {
    if (e.what()[0] != '\0') std::cerr << "mpiguard: " << e.what() << "\n\n";
    std::cerr << kUsage;
    return 1;
  } catch (const io::FormatError& e) {
    std::cerr << "mpiguard: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "mpiguard: " << e.what() << "\n";
    return 2;
  }
}
