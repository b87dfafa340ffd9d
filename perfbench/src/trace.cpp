#include "trace.hpp"

namespace perfbench {

namespace {

struct ThreadCtx {
  std::vector<std::uint64_t> open;
  std::vector<std::uint64_t> requests;
};
thread_local ThreadCtx t_ctx;

}  // namespace

Span::Span(std::string name, std::uint64_t request) {
  Tracer& t = Tracer::get();
  if (!t.on()) return;
  active_ = true;
  rec_.name = std::move(name);
  rec_.id = t.next_id();
  if (t_ctx.open.empty()) {
    rec_.parent = t.ambient_parent();
    rec_.request = request != 0 ? request : t.ambient_request();
  } else {
    rec_.parent = t_ctx.open.back();
    rec_.request = request != 0 ? request : t_ctx.requests.back();
  }
  t_ctx.open.push_back(rec_.id);
  t_ctx.requests.push_back(rec_.request);
  rec_.start = now_ns();
}

Span::~Span() {
  if (!active_) return;
  rec_.end = now_ns();
  t_ctx.open.pop_back();
  t_ctx.requests.pop_back();
  Tracer::get().record(std::move(rec_));
}

TracedDetector::TracedDetector(std::unique_ptr<mpidetect::core::Detector> inner,
                               std::string fit_span, std::string eval_span,
                               std::shared_ptr<DetectorSinks> sinks)
    : inner_(std::move(inner)),
      fit_span_(std::move(fit_span)),
      eval_span_(std::move(eval_span)),
      sinks_(std::move(sinks)) {}

TracedDetector::~TracedDetector() {
  if (fitted_) sinks_->fold_busy_s.add(static_cast<double>(busy_ns_.load()) * 1e-9);
}

std::unique_ptr<mpidetect::core::Detector> TracedDetector::clone() const {
  return std::make_unique<TracedDetector>(inner_->clone(), fit_span_,
                                          eval_span_, sinks_);
}

void TracedDetector::prepare(const mpidetect::datasets::Dataset& ds,
                             unsigned threads) {
  Span s("core.encoding_cache.prepare");
  inner_->prepare(ds, threads);
}

void TracedDetector::fit(const mpidetect::datasets::Dataset& ds,
                         std::span<const std::size_t> train_idx,
                         std::span<const std::size_t> y,
                         const mpidetect::core::FitSpec& spec) {
  const auto t0 = Clock::now();
  {
    Span s(fit_span_);
    inner_->fit(ds, train_idx, y, spec);
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count();
  sinks_->fit_s.add(static_cast<double>(ns) * 1e-9);
  busy_ns_ += ns;
  fitted_ = true;
}

mpidetect::core::Verdict TracedDetector::evaluate(
    const mpidetect::datasets::Dataset& ds, std::size_t idx) {
  const auto t0 = Clock::now();
  mpidetect::core::Verdict v;
  {
    Span s(eval_span_);
    v = inner_->evaluate(ds, idx);
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count();
  sinks_->verdict_ms.add(static_cast<double>(ns) * 1e-6);
  busy_ns_ += ns;
  return v;
}

}  // namespace perfbench
