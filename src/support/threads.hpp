// Shared concurrency helpers: the one place that resolves "0 means
// hardware concurrency", a one-shot parallel_for matching the worker
// pattern used across the detectors, and a persistent ThreadPool that
// EvalEngine uses so every evaluation protocol shares one set of
// workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mpidetect {

/// Resolves a requested thread count: 0 means "use the hardware", with
/// a floor of one so headless containers never divide by zero.
inline unsigned resolve_threads(unsigned requested) {
  return requested != 0 ? requested
                        : std::max(1u, std::thread::hardware_concurrency());
}

/// Runs fn(0), ..., fn(n-1) on `threads` short-lived workers pulling
/// indices from a shared counter. threads == 0 resolves to hardware
/// concurrency; a resolved count of one runs inline. If fn throws, no
/// further indices are handed out and the first exception is rethrown
/// on the caller once every worker has joined.
template <typename Fn>
void parallel_for(std::size_t n, unsigned threads, Fn&& fn) {
  const unsigned n_threads = resolve_threads(threads);
  if (n_threads == 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  std::vector<std::thread> workers;
  workers.reserve(n_threads);
  for (unsigned t = 0; t < n_threads; ++t) {
    workers.emplace_back([&] {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) break;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
          next.store(n);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  if (error) std::rethrow_exception(error);
}

/// Persistent worker pool. One instance serves many parallel_for calls
/// without respawning threads; the calling thread participates, so a
/// pool of size k runs k tasks concurrently. A task that throws stops
/// the job: no further indices are handed out, and parallel_for
/// rethrows the first exception once every worker is done with the
/// call, so the pool stays usable. Not reentrant: only one
/// parallel_for may be in flight at a time (nested parallelism inside a
/// task must use the one-shot helper above or run single-threaded).
class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return size_; }

  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Runs indices of the current job until it is exhausted or failed.
  void drain(const std::function<void(std::size_t)>& fn, std::size_t n);

  unsigned size_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_n_ = 0;
  std::uint64_t generation_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t pending_ = 0;  // workers yet to finish the current generation
  std::exception_ptr error_;  // first exception of the current job
  bool stop_ = false;
};

}  // namespace mpidetect
