// mpiguardd — detection-as-a-service: load trained model bundles once,
// keep their encodings warm in one shared cache, and serve concurrent
// SUBMIT frames over an AF_UNIX socket with batched admission
// (serve/server.hpp). The CI-gatekeeper pipeline of §V-D without the
// per-invocation model load:
//
//   mpiguard train --detector gnn --dataset mbi:0.1 --out gate.mpib
//   mpiguardd --model gate.mpib --socket /tmp/mpiguard.sock &
//   mpiguard-client --socket /tmp/mpiguard.sock --dataset mbi:0.05@7 --count 8
//
// Wire protocol and byte layout: docs/SERVING.md.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/serialize.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "support/check.hpp"
#include "support/faultpoint.hpp"

using namespace mpidetect;

namespace {

constexpr const char* kUsage = R"(mpiguardd — detection-as-a-service daemon

usage:
  mpiguardd --model FILE [--model FILE ...] --socket PATH [options]

options:
  --model FILE      a trained .mpib bundle to serve (repeatable; SUBMIT
                    frames address bundles by their registry key)
  --socket PATH     AF_UNIX socket path to listen on
  --queue N         admission slots before BUSY backpressure (default 64)
  --batch N         coalescing window: requests per inference batch
                    (default 8)
  --threads N       encode width for first-touch dataset encodes
                    (default: hardware concurrency)
  --cache-dir DIR   encoding-spill directory shared with mpiguard runs
  --max-scale X     largest dataset scale a SUBMIT may request
                    (default 2.0)
  --max-cases N     largest generated corpus held warm (default 8192)

robustness (docs/SERVING.md, "Failure model"):
  --io-timeout MS   per-read/write inactivity deadline once a frame has
                    started; a slow-loris peer is reaped instead of
                    pinning a connection thread (default 10000, 0 = off)
  --idle-timeout MS reap a connection sending no frame for this long
                    (default 0 = never)
  --watchdog-ms MS  count batches running longer than this in STATS
                    (watchdog_trips; default 30000, 0 = off)
  --faults SPEC     arm the fault-injection registry; also read from
                    the MPIGUARD_FAULTS environment variable (the flag
                    wins). Grammar:
                    seed=N,point[:p=F][:nth=N][:count=K][:ms=M],...

The daemon drains every admitted request before exiting, whether
stopped by a SHUTDOWN frame or by SIGINT/SIGTERM. A stale socket file
left by a crashed daemon is probed and replaced automatically; a LIVE
daemon on the same path is never displaced (startup fails instead).

exit status: 0 clean shutdown, 1 usage error, 2 startup/runtime failure.
)";

struct CliError final : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::uint64_t parse_u64(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    if (s.empty() || s.front() == '-') throw std::invalid_argument(s);
    const std::uint64_t v = std::stoull(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw CliError(std::string(what) + ": not a non-negative integer: '" + s +
                   "'");
  }
}

double parse_double(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw CliError(std::string(what) + ": not a number: '" + s + "'");
  }
}

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int) { g_signal = 1; }

int run(int argc, char** argv) {
  serve::ServerOptions opts;
  std::string socket_path;
  std::string fault_spec;
  if (const char* env = std::getenv("MPIGUARD_FAULTS")) fault_spec = env;

  const auto need_value = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) throw CliError(std::string(flag) + " requires a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view f = argv[i];
    if (f == "--model") opts.model_paths.push_back(need_value(i, "--model"));
    else if (f == "--socket") socket_path = need_value(i, "--socket");
    else if (f == "--queue")
      opts.queue_capacity = parse_u64(need_value(i, "--queue"), "--queue");
    else if (f == "--batch")
      opts.max_batch = parse_u64(need_value(i, "--batch"), "--batch");
    else if (f == "--threads")
      opts.threads = static_cast<unsigned>(
          parse_u64(need_value(i, "--threads"), "--threads"));
    else if (f == "--cache-dir") opts.cache_dir = need_value(i, "--cache-dir");
    else if (f == "--max-scale")
      opts.max_scale = parse_double(need_value(i, "--max-scale"),
                                    "--max-scale");
    else if (f == "--max-cases")
      opts.max_cases = parse_u64(need_value(i, "--max-cases"), "--max-cases");
    else if (f == "--io-timeout")
      opts.io_timeout_ms = static_cast<int>(
          parse_u64(need_value(i, "--io-timeout"), "--io-timeout"));
    else if (f == "--idle-timeout")
      opts.idle_timeout_ms = static_cast<int>(
          parse_u64(need_value(i, "--idle-timeout"), "--idle-timeout"));
    else if (f == "--watchdog-ms")
      opts.watchdog_ms = static_cast<int>(
          parse_u64(need_value(i, "--watchdog-ms"), "--watchdog-ms"));
    else if (f == "--faults") fault_spec = need_value(i, "--faults");
    else if (f == "--help" || f == "-h") throw CliError("");
    else throw CliError("unknown flag: " + std::string(f));
  }
  if (opts.model_paths.empty()) throw CliError("--model is required");
  if (socket_path.empty()) throw CliError("--socket is required");
  if (opts.queue_capacity < 1) throw CliError("--queue must be >= 1");
  if (opts.max_batch < 1) throw CliError("--batch must be >= 1");
  if (opts.max_scale <= 0.0) throw CliError("--max-scale must be > 0");
  if (opts.max_cases < 1) throw CliError("--max-cases must be >= 1");

  // SIGPIPE must never kill the daemon: every send already uses
  // MSG_NOSIGNAL, but belt-and-braces against any stray write to a
  // closed pipe (e.g. stdout under a dead pager).
  std::signal(SIGPIPE, SIG_IGN);

  if (!fault_spec.empty()) {
    fault::Registry::global().configure(fault_spec);  // throws on bad grammar
    std::cout << "mpiguardd: fault injection ARMED: " << fault_spec
              << std::endl;
  }

  serve::Server server(std::move(opts));
  serve::Listener listener(socket_path);
  server.start();

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::cout << "mpiguardd: serving";
  for (const auto& key : server.detector_keys()) std::cout << " " << key;
  std::cout << " on " << listener.path() << " (queue "
            << server.options().queue_capacity << ", batch "
            << server.options().max_batch << ")" << std::endl;

  // Accept loop: 100 ms poll so SIGINT/SIGTERM and wire-level SHUTDOWN
  // (which flips server.stopped()) are both noticed promptly.
  std::vector<std::thread> connections;
  std::size_t next_conn = 0;
  while (!server.stopped() && g_signal == 0) {
    std::unique_ptr<serve::Transport> t = listener.accept(100);
    if (!t) continue;
    const std::string peer = "client#" + std::to_string(next_conn++);
    // Daemon-side transports carry the "serve" fault tag: an armed
    // registry shakes the server's read/write paths, never a client's.
    t->set_fault_tag("serve");
    connections.emplace_back(
        [&server, peer, tr = std::move(t)]() mutable {
          server.serve_connection(*tr, peer);
        });
  }

  server.stop();  // drains; idempotent after a wire SHUTDOWN
  for (auto& th : connections) th.join();

  const serve::Stats s = server.snapshot_stats();
  std::cout << "mpiguardd: stopped after " << s.received << " request(s), "
            << s.served << " served in " << s.batches
            << " batch(es), max coalesced " << s.max_coalesced << ", "
            << s.busy_rejected << " busy, " << s.request_errors
            << " request error(s), " << s.protocol_errors
            << " protocol error(s)" << std::endl;
  if (s.deadline_sheds + s.io_timeouts + s.reaped_connections + s.retries +
          s.watchdog_trips + s.faults_fired >
      0) {
    std::cout << "mpiguardd: robustness: " << s.deadline_sheds
              << " shed, " << s.io_timeouts << " io timeout(s), "
              << s.reaped_connections << " reaped, " << s.retries
              << " retried, " << s.watchdog_trips << " watchdog trip(s), "
              << s.faults_fired << " fault(s) fired" << std::endl;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const CliError& e) {
    if (e.what()[0] != '\0') std::cerr << "mpiguardd: " << e.what() << "\n\n";
    std::cerr << kUsage;
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "mpiguardd: " << e.what() << "\n";
    return 2;
  }
}
