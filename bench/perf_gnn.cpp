// perf_gnn — the GNN perf-bench driver: times encode / train / infer in
// baseline (naive kernel, scalar, graph-at-a-time inference) and engine
// (packed kernels, SIMD, tape-free batched inference) modes and writes
// the BENCH_gnn.json perf-trajectory record (see docs/PERFORMANCE.md).
// Both modes train one graph per Adam step, as the paper does, and every
// kernel runs on the calling thread; --threads sets only the width of
// the encode phase.
//
// Unlike the figure/table drivers this binary reproduces no paper
// artifact; it exists so every optimisation PR leaves a measured data
// point behind. Run from the repo root so BENCH_gnn.json lands there:
//
//   ./build/perf_gnn                 # default: MBI at 15%, 5 reps
//   ./build/perf_gnn --quick         # CI smoke: tiny corpus, 1 rep
//   ./build/perf_gnn --reps=9 --infer-batch=16 --out=/tmp/bench.json
#include <cstring>
#include <iostream>
#include <string>

#include "bench/common.hpp"
#include "core/perf_bench.hpp"

using namespace mpidetect;

namespace {

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "perf_gnn: " << msg
            << "\nusage: perf_gnn [--quick] [--scale=X] [--reps=N] "
               "[--warmup=N] [--infer-batch=N] [--threads=N] "
               "[--out=FILE]\n"
               "  --threads=N  encode width (0 = hardware); kernels always "
               "run on the calling thread\n";
  std::exit(1);
}

/// Strict numeric parsing: malformed values are usage errors, never
/// uncaught std::stoX exceptions. `integer` additionally rejects
/// fractional values instead of silently truncating them.
double parse_number(const char* value, const char* flag, double min,
                    bool integer = false) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != std::strlen(value) || v < min) throw std::invalid_argument("");
    if (integer && v != static_cast<double>(static_cast<long long>(v))) {
      throw std::invalid_argument("");
    }
    return v;
  } catch (const std::exception&) {
    usage_error(std::string(flag) + " needs a" +
                (integer ? "n integer" : " number") + " >= " +
                fmt_double(min, 2) + ", got '" + value + "'");
  }
}

struct PerfArgs {
  double scale = 0.15;
  int reps = 5;
  int warmup = 1;
  std::size_t infer_batch = 4;
  unsigned threads = 0;
  std::string out = "BENCH_gnn.json";
  bool quick = false;

  static PerfArgs parse(int argc, char** argv) {
    PerfArgs a;
    // --quick only rewrites the defaults, so it is applied before the
    // other flags regardless of position: `--scale=0.3 --quick` and
    // `--quick --scale=0.3` both run at scale 0.3.
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--quick") == 0) {
        a.quick = true;
        a.scale = 0.04;
        a.reps = 1;
        a.warmup = 0;
      }
    }
    for (int i = 1; i < argc; ++i) {
      const char* f = argv[i];
      if (std::strcmp(f, "--quick") == 0) {
        continue;  // already applied above
      } else if (std::strncmp(f, "--scale=", 8) == 0) {
        a.scale = parse_number(f + 8, "--scale", 0.01);
      } else if (std::strncmp(f, "--reps=", 7) == 0) {
        a.reps = static_cast<int>(parse_number(f + 7, "--reps", 1, true));
      } else if (std::strncmp(f, "--warmup=", 9) == 0) {
        a.warmup = static_cast<int>(parse_number(f + 9, "--warmup", 0, true));
      } else if (std::strncmp(f, "--infer-batch=", 14) == 0) {
        a.infer_batch =
            static_cast<std::size_t>(parse_number(f + 14, "--infer-batch", 1, true));
      } else if (std::strncmp(f, "--threads=", 10) == 0) {
        a.threads =
            static_cast<unsigned>(parse_number(f + 10, "--threads", 0, true));
      } else if (std::strncmp(f, "--out=", 6) == 0) {
        a.out = f + 6;
      } else {
        usage_error("unknown flag " + std::string(f));
      }
    }
    return a;
  }
};

}  // namespace

int run_main(int argc, char** argv) {
  const PerfArgs args = PerfArgs::parse(argc, argv);

  datasets::MbiConfig mbi_cfg;
  mbi_cfg.scale = args.scale;
  const datasets::Dataset ds = datasets::generate_mbi(mbi_cfg);

  core::GnnPerfOptions opts;
  // The paper's GATv2 stack (§IV-B): the perf trajectory should track
  // the architecture the headline results use, not the reduced bench
  // stack. --quick shrinks the corpus and epochs, not the model.
  opts.cfg.embed_dim = 32;
  opts.cfg.layers = {128, 64, 32};
  opts.cfg.fc_hidden = 32;
  opts.cfg.epochs = args.quick ? 2 : 4;
  opts.cfg.infer_batch = args.infer_batch;
  opts.warmup = args.warmup;
  opts.reps = args.reps;
  opts.threads = args.threads;

  bench::print_header("GNN perf bench (encode / train / infer)");
  std::cout << ds.name << ": " << ds.size() << " cases; reps=" << args.reps
            << " warmup=" << args.warmup
            << " infer_batch=" << args.infer_batch << "\n";

  const core::GnnPerfReport report = core::run_gnn_perf(ds, opts);
  return core::report_and_write(report, args.out, std::cout);
}

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perf_gnn: " << e.what() << "\n";
    return 2;
  }
}
