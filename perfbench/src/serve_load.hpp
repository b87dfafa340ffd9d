// Open-loop load generator for mpiguardd: a daemon child process, raw
// AF_UNIX connections driven from ONE thread with poll(), frames built
// and parsed with the library's wire codec. Every request records when
// it was scheduled, sent and answered, so latency is measured from the
// scheduled send (a stalled generator cannot hide queueing).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/wire.hpp"
#include "trace.hpp"

namespace perfbench {

/// A spawned mpiguardd. The destructor kills and reaps a daemon that
/// was not stopped cleanly, so no child outlives the benchmark.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::vector<std::string>& args,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool alive();
  /// Peak resident set (VmHWM) in MiB; 0 when unreadable.
  double peak_rss_mb() const;
  /// Waits up to `timeout_ms` for exit, then SIGKILLs. Returns the
  /// wait status.
  int reap(int timeout_ms);

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
};

/// One client connection (blocking writes, non-blocking frame reads).
class Conn {
 public:
  /// Connects, retrying until the daemon listens or `timeout_ms` passes.
  Conn(const std::string& socket_path, int timeout_ms);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  void send(const mpidetect::serve::Frame& f, Samples* encode_us = nullptr);
  /// Reads whatever is available (call after poll says readable) and
  /// returns every complete frame. Throws on EOF or a bad frame.
  std::vector<mpidetect::serve::Frame> drain(Samples* decode_us = nullptr);
  /// Blocks until one frame arrives (or throws after `timeout_ms`).
  mpidetect::serve::Frame read_one(int timeout_ms);

 private:
  int fd_ = -1;
  std::string buf_;
  std::vector<mpidetect::serve::Frame> ready_;
};

struct Target {
  std::string spec;
  std::size_t cases = 0;
};

enum class ReqStatus : std::uint8_t { Pending, Verdict, Busy, Error, Expired };

struct Request {
  std::int64_t sched_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  std::uint32_t target = 0;
  std::uint64_t index = 0;
  ReqStatus status = ReqStatus::Pending;
  mpidetect::serve::WireVerdict verdict;
};

struct Rung {
  double rate = 0.0;
  std::vector<Request> reqs;
  std::int64_t start_ns = 0;
  std::string error;  // why the rung ended early, if it did
};

/// Runs `n` requests as a seeded Poisson process at `rate` per second,
/// spread round-robin over `conns`, requests alternating over
/// `targets` with uniformly drawn case indices. Gives up on answers
/// `give_up_ms` after the last send (those stay Pending = failed).
Rung run_rung(std::vector<Conn*>& conns, const std::vector<Target>& targets,
              double rate, std::size_t n, std::uint64_t seed,
              std::uint64_t& next_id, int give_up_ms, Samples* encode_us,
              Samples* decode_us);

/// STATS round trip on an idle connection.
mpidetect::serve::Stats fetch_stats(Conn& c);

}  // namespace perfbench
