// In-memory span recorder and the detector wrapper that puts spans
// around every call the benchmark makes into a module's public
// functions. Spans are kept in memory and written out when the run
// ends; with tracing off a Span costs one relaxed load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/detector.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct SpanRec {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = none
  std::uint64_t request = 0;
};

/// Process-wide span sink. Parents come from the calling thread's open
/// spans; a thread with none open (a pool worker running a fold) takes
/// the ambient parent the coordinating thread published.
class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void enable(bool v) { on_.store(v, std::memory_order_relaxed); }
  std::uint64_t next_id() { return ++ids_; }
  void set_ambient(std::uint64_t parent, std::uint64_t request) {
    ambient_parent_.store(parent);
    ambient_request_.store(request);
  }
  std::uint64_t ambient_parent() const { return ambient_parent_.load(); }
  std::uint64_t ambient_request() const { return ambient_request_.load(); }
  void record(SpanRec r) {
    std::lock_guard lk(mu_);
    spans_.push_back(std::move(r));
  }
  std::vector<SpanRec> take() {
    std::lock_guard lk(mu_);
    return std::move(spans_);
  }

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> ids_{0};
  std::atomic<std::uint64_t> ambient_parent_{0};
  std::atomic<std::uint64_t> ambient_request_{0};
  std::mutex mu_;
  std::vector<SpanRec> spans_;
};

/// RAII span. `request` 0 inherits the enclosing span's request id.
class Span {
 public:
  explicit Span(std::string name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return rec_.id; }

 private:
  bool active_ = false;
  SpanRec rec_;
};

/// Thread-safe sample sink (durations in the unit its user chooses).
class Samples {
 public:
  void add(double v) {
    std::lock_guard lk(mu_);
    v_.push_back(v);
  }
  std::vector<double> values() const {
    std::lock_guard lk(mu_);
    return v_;
  }
  void clear() {
    std::lock_guard lk(mu_);
    v_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> v_;
};

/// Where a TracedDetector reports: per-verdict latency (ms), per-fit
/// duration (s) and per-fold busy time (s, fit + its validations).
struct DetectorSinks {
  Samples verdict_ms;
  Samples fit_s;
  Samples fold_busy_s;
};

/// Forwards every Detector call to the wrapped detector, timing fit()
/// and evaluate() always (the batch workloads' latency samples) and
/// recording spans when tracing is on. clone() wraps the inner clone,
/// so EvalEngine's per-fold copies are traced too.
class TracedDetector final : public mpidetect::core::Detector {
 public:
  TracedDetector(std::unique_ptr<mpidetect::core::Detector> inner,
                 std::string fit_span, std::string eval_span,
                 std::shared_ptr<DetectorSinks> sinks);
  ~TracedDetector() override;

  std::string_view name() const override { return inner_->name(); }
  mpidetect::core::DetectorKind kind() const override { return inner_->kind(); }
  bool trainable() const override { return inner_->trainable(); }
  bool parallel_eval_safe() const override {
    return inner_->parallel_eval_safe();
  }
  std::unique_ptr<mpidetect::core::Detector> clone() const override;
  mpidetect::core::EvalOptions eval_defaults() const override {
    return inner_->eval_defaults();
  }
  void use_cache(
      const std::shared_ptr<mpidetect::core::EncodingCache>& cache) override {
    inner_->use_cache(cache);
  }
  void prepare(const mpidetect::datasets::Dataset& ds,
               unsigned threads) override;
  void fit(const mpidetect::datasets::Dataset& ds,
           std::span<const std::size_t> train_idx,
           std::span<const std::size_t> y,
           const mpidetect::core::FitSpec& spec) override;
  mpidetect::core::Verdict evaluate(const mpidetect::datasets::Dataset& ds,
                                    std::size_t idx) override;
  void discard(const mpidetect::datasets::Dataset& ds) override {
    inner_->discard(ds);
  }
  std::vector<mpidetect::core::Verdict> run_indexed(
      const mpidetect::datasets::Dataset& ds,
      std::span<const std::size_t> idx) override {
    return inner_->run_indexed(ds, idx);
  }

 private:
  std::unique_ptr<mpidetect::core::Detector> inner_;
  std::string fit_span_;
  std::string eval_span_;
  std::shared_ptr<DetectorSinks> sinks_;
  bool fitted_ = false;
  // evaluate() may run concurrently on one instance during sweeps.
  std::atomic<std::int64_t> busy_ns_{0};
};

}  // namespace perfbench
