#include "support/threads.hpp"

#include <utility>

namespace mpidetect {

ThreadPool::ThreadPool(unsigned threads) : size_(resolve_threads(threads)) {
  // The caller participates in every job, so spawn size - 1 workers.
  workers_.reserve(size_ - 1);
  for (unsigned t = 1; t < size_; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    wake_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const auto* job = job_;
    const std::size_t n = job_n_;
    lock.unlock();
    drain(*job, n);
    lock.lock();
    if (--pending_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::drain(const std::function<void(std::size_t)>& fn,
                       std::size_t n) {
  while (true) {
    const std::size_t i = next_.fetch_add(1);
    if (i >= n) return;
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
      next_.store(n);  // hand out no further indices
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    job_ = &fn;
    job_n_ = n;
    next_.store(0);
    pending_ = workers_.size();
    ++generation_;
  }
  wake_cv_.notify_all();
  // Participate. Returning before every worker has acknowledged this
  // generation would let a late waker read this job_ and then take an
  // index of the next call after next_ resets, so wait for all of them
  // — also when a task threw, since the workers may still be running fn.
  drain(fn, n);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

}  // namespace mpidetect
