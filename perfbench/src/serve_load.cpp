#include "serve_load.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "support/rng.hpp"

extern char** environ;

namespace perfbench {

namespace ms = mpidetect::serve;

// ---- Daemon ---------------------------------------------------------------

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& args,
               const std::string& log_path) {
  std::vector<std::string> argv_s;
  argv_s.push_back(exe);
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  const int rc = posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    throw std::runtime_error("cannot spawn " + exe + ": " + std::strerror(rc));
  }
}

Daemon::~Daemon() {
  if (!reaped_) reap(0);
}

bool Daemon::alive() {
  if (reaped_) return false;
  int st = 0;
  if (::waitpid(pid_, &st, WNOHANG) == pid_) {
    reaped_ = true;
    return false;
  }
  return true;
}

double Daemon::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

int Daemon::reap(int timeout_ms) {
  if (reaped_) return 0;
  int st = 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (::waitpid(pid_, &st, WNOHANG) == pid_) {
      reaped_ = true;
      return st;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &st, 0);
  reaped_ = true;
  return st;
}

// ---- Conn -----------------------------------------------------------------

Conn::Conn(const std::string& socket_path, int timeout_ms) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      break;
    }
    ::close(fd_);
    fd_ = -1;
    if (Clock::now() >= deadline) {
      throw std::runtime_error("daemon did not listen on " + socket_path);
    }
    // A short poll: the wait for the daemon to listen is part of setup_s.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

void Conn::send(const ms::Frame& f, Samples* encode_us) {
  const auto t0 = Clock::now();
  std::string bytes;
  {
    Span s("serve.wire.encode");
    bytes = ms::encode_frame(f);
  }
  if (encode_us != nullptr) {
    encode_us->add(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send failed: ") +
                               std::strerror(errno));
    }
    off += static_cast<std::size_t>(w);
  }
}

std::vector<ms::Frame> Conn::drain(Samples* decode_us) {
  char tmp[65536];
  const ssize_t r = ::recv(fd_, tmp, sizeof tmp, MSG_DONTWAIT);
  if (r == 0) throw std::runtime_error("daemon closed the connection");
  if (r < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return {};
    throw std::runtime_error(std::string("recv failed: ") +
                             std::strerror(errno));
  }
  buf_.append(tmp, static_cast<std::size_t>(r));
  std::vector<ms::Frame> out;
  std::size_t off = 0;
  while (buf_.size() - off >= 4) {
    std::uint32_t len = 0;
    std::memcpy(&len, buf_.data() + off, 4);  // little-endian hosts only
    if (len > ms::kMaxFrameBytes) throw std::runtime_error("oversized frame");
    if (buf_.size() - off - 4 < len) break;
    const auto t0 = Clock::now();
    {
      Span s("serve.wire.decode");
      out.push_back(ms::decode_payload(
          std::string_view(buf_).substr(off + 4, len), "mpiguardd"));
    }
    if (decode_us != nullptr) {
      decode_us->add(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
    off += 4 + len;
  }
  buf_.erase(0, off);
  return out;
}

ms::Frame Conn::read_one(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (ready_.empty()) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) throw std::runtime_error("timed out waiting for a frame");
    pollfd p{fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left)) > 0) {
      for (auto& f : drain()) ready_.push_back(std::move(f));
    }
  }
  ms::Frame f = std::move(ready_.front());
  ready_.erase(ready_.begin());
  return f;
}

// ---- open-loop rung ---------------------------------------------------------

Rung run_rung(std::vector<Conn*>& conns, const std::vector<Target>& targets,
              double rate, std::size_t n, std::uint64_t seed,
              std::uint64_t& next_id, int give_up_ms, Samples* encode_us,
              Samples* decode_us) {
  Rung rung;
  rung.rate = rate;
  rung.reqs.resize(n);
  mpidetect::Rng rng(seed);
  rung.start_ns = now_ns() + 1'000'000;  // first arrival 1 ms out
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.uniform()) / rate;  // exponential gaps
    Request& r = rung.reqs[i];
    r.sched_ns = rung.start_ns + static_cast<std::int64_t>(t * 1e9);
    r.target = static_cast<std::uint32_t>(i % targets.size());
    r.index = static_cast<std::uint64_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(targets[r.target].cases) - 1));
  }
  const std::uint64_t base_id = next_id;
  next_id += n;

  std::vector<pollfd> pfds;
  for (Conn* c : conns) pfds.push_back({c->fd(), POLLIN, 0});

  std::size_t next_send = 0;
  std::size_t answered = 0;
  std::int64_t give_up_at = 0;
  try {
  while (answered < n) {
    const std::int64_t now = now_ns();
    while (next_send < n && rung.reqs[next_send].sched_ns <= now) {
      Request& r = rung.reqs[next_send];
      ms::Submit s;
      s.request_id = base_id + next_send;
      s.dataset = targets[r.target].spec;
      s.index = r.index;
      r.sent_ns = now_ns();
      conns[next_send % conns.size()]->send(s, encode_us);
      ++next_send;
      if (next_send == n) give_up_at = now_ns() + give_up_ms * 1'000'000LL;
    }
    if (next_send == n && now_ns() > give_up_at) break;
    std::int64_t wait_ns = 5'000'000;
    if (next_send < n) {
      wait_ns = std::min(wait_ns, rung.reqs[next_send].sched_ns - now_ns());
    }
    if (wait_ns < 0) wait_ns = 0;
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t c = 0; c < pfds.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (auto& f : conns[c]->drain(decode_us)) {
        const std::int64_t at = now_ns();
        std::uint64_t id = 0;
        ReqStatus st = ReqStatus::Pending;
        const ms::WireVerdict* v = nullptr;
        if (auto* p = std::get_if<ms::WireVerdict>(&f)) {
          id = p->request_id, st = ReqStatus::Verdict, v = p;
        } else if (auto* p = std::get_if<ms::Busy>(&f)) {
          id = p->request_id, st = ReqStatus::Busy;
        } else if (auto* p = std::get_if<ms::Error>(&f)) {
          id = p->request_id, st = ReqStatus::Error;
        } else if (auto* p = std::get_if<ms::Expired>(&f)) {
          id = p->request_id, st = ReqStatus::Expired;
        } else {
          continue;
        }
        if (id < base_id || id >= base_id + n) continue;
        Request& r = rung.reqs[id - base_id];
        if (r.status != ReqStatus::Pending) continue;
        r.status = st;
        r.recv_ns = at;
        if (v != nullptr) r.verdict = *v;
        ++answered;
      }
    }
  }
  } catch (const std::exception& e) {
    // A dead daemon or a broken stream: unanswered requests stay
    // Pending and count as failed.
    rung.error = e.what();
  }
  return rung;
}

ms::Stats fetch_stats(Conn& c) {
  c.send(ms::StatsReq{});
  for (;;) {
    ms::Frame f = c.read_one(10000);
    if (auto* s = std::get_if<ms::Stats>(&f)) return *s;
  }
}

}  // namespace perfbench
