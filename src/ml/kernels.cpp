#include "ml/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>

#include "support/check.hpp"
#include "support/threads.hpp"

namespace mpidetect::ml::kernels {

namespace {

thread_local unsigned t_kernel_threads = 0;  // 0 = auto
thread_local bool t_naive_matmul = false;
thread_local bool t_force_scalar = false;
// True while this thread is executing a kernel-pool task: a nested
// kernel must run inline (the pool is not reentrant).
thread_local bool t_in_kernel_task = false;

// One pool for all kernel-level parallelism, created on first use and
// intentionally leaked (kernels may run during static destruction of
// benchmark fixtures). Guarded by a try-lock: concurrent kernels from
// other threads (e.g. CV folds training in parallel) fall back to their
// serial path instead of queueing. The pool GROWS on demand when a
// dispatch arrives with an explicit budget above its current size —
// sizing is never frozen by whichever call happened to come first.
std::mutex& pool_mutex() {
  static std::mutex mu;
  return mu;
}

ThreadPool* g_pool = nullptr;  // guarded by pool_mutex()

/// Returns the shared pool, at least `budget` wide. Caller holds
/// pool_mutex(), which also excludes every pool user — replacing the
/// pool here is safe because nobody else can be inside it.
ThreadPool& pool_at_least(unsigned budget) {
  if (g_pool == nullptr || g_pool->size() < budget) {
    delete g_pool;
    g_pool = new ThreadPool(std::max(budget, hardware_probe()));
  }
  return *g_pool;
}

/// The budget in force for a dispatch happening NOW: the thread-local
/// override when set, else the cached hardware probe. Nothing about the
/// override is cached — a ScopedKernelThreads(1) pin active during the
/// first kernel call (an EvalEngine fold) must not freeze the
/// process-wide budget (the bug this replaces cached the whole
/// resolution in a function-local static).
unsigned resolved_budget() {
  return t_kernel_threads == 0 ? hardware_probe() : t_kernel_threads;
}

}  // namespace

unsigned hardware_probe() {
  // resolve_threads(0) re-reads sysfs on every call in some libcs;
  // kernels ask often enough that the raw probe — and only the raw
  // probe — is cached once.
  static const unsigned hw = resolve_threads(0);
  return hw;
}

unsigned effective_threads(unsigned requested) {
  const unsigned budget = requested == 0 ? hardware_probe() : requested;
  if (budget <= 1) return 1;
  std::lock_guard<std::mutex> lock(pool_mutex());
  return std::min<unsigned>(budget, pool_at_least(budget).size());
}

unsigned kernel_threads() { return t_kernel_threads; }

void set_kernel_threads(unsigned n) { t_kernel_threads = n; }

ScopedKernelThreads::ScopedKernelThreads(unsigned n) : prev_(t_kernel_threads) {
  t_kernel_threads = n;
}

ScopedKernelThreads::~ScopedKernelThreads() { t_kernel_threads = prev_; }

bool naive_matmul() { return t_naive_matmul; }

void set_naive_matmul(bool on) { t_naive_matmul = on; }

ScopedNaiveMatmul::ScopedNaiveMatmul(bool on) : prev_(t_naive_matmul) {
  t_naive_matmul = on;
}

ScopedNaiveMatmul::~ScopedNaiveMatmul() { t_naive_matmul = prev_; }

bool parallel_allowed(std::size_t n) {
  if (n <= 1 || t_in_kernel_task) return false;
  return resolved_budget() > 1;
}

void parallel_ranges_impl(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  const unsigned budget = resolved_budget();
  std::unique_lock<std::mutex> lock(pool_mutex(), std::try_to_lock);
  if (!lock.owns_lock()) {  // another kernel holds the pool: stay serial
    fn(0, n);
    return;
  }
  ThreadPool& p = pool_at_least(budget);
  const std::size_t width = std::min<std::size_t>(budget, p.size());
  if (width <= 1 || n <= 1) {
    fn(0, n);
    return;
  }
  // Oversplit: more chunks than workers, claimed off a shared counter
  // the CALLING thread participates in. On a fully-loaded or
  // oversubscribed machine the caller simply steals most of the range
  // itself instead of blocking on a worker that cannot be scheduled —
  // a fixed per-worker split would serialize caller -> switch -> worker
  // there. Chunks stay contiguous and each index lands in exactly one
  // chunk, so the result is bit-identical at any chunk count.
  const std::size_t chunks = std::min<std::size_t>(width * 4, n);
  p.parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = n * c / chunks;
    const std::size_t end = n * (c + 1) / chunks;
    const bool prev = t_in_kernel_task;
    t_in_kernel_task = true;
    fn(begin, end);
    t_in_kernel_task = prev;
  });
}

// ---- scalar reference kernels -----------------------------------------------
//
// These are byte-for-byte the loops the blocked kernels ran before the
// dispatch layer existed; the SIMD tables are tested against them for
// bit-identity (tests/batched_gnn_test.cpp, "SimdKernels").

namespace {

void axpy8_scalar(double* o, const double* const* b, const double* a,
                  std::size_t n) {
  const double a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3];
  const double a4 = a[4], a5 = a[5], a6 = a[6], a7 = a[7];
  const double *b0 = b[0], *b1 = b[1], *b2 = b[2], *b3 = b[3];
  const double *b4 = b[4], *b5 = b[5], *b6 = b[6], *b7 = b[7];
  for (std::size_t j = 0; j < n; ++j) {
    double acc = o[j];
    acc += a0 * b0[j];
    acc += a1 * b1[j];
    acc += a2 * b2[j];
    acc += a3 * b3[j];
    acc += a4 * b4[j];
    acc += a5 * b5[j];
    acc += a6 * b6[j];
    acc += a7 * b7[j];
    o[j] = acc;
  }
}

void axpy4_scalar(double* o, const double* const* b, const double* a,
                  std::size_t n) {
  const double a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3];
  const double *b0 = b[0], *b1 = b[1], *b2 = b[2], *b3 = b[3];
  for (std::size_t j = 0; j < n; ++j) {
    double acc = o[j];
    acc += a0 * b0[j];
    acc += a1 * b1[j];
    acc += a2 * b2[j];
    acc += a3 * b3[j];
    o[j] = acc;
  }
}

void axpy4x2_scalar(double* o0, double* o1, const double* const* b,
                    const double* a0, const double* a1, std::size_t n) {
  // The reference is literally two axpy4 passes: the rows are
  // independent outputs, so cross-row order is bit-irrelevant.
  axpy4_scalar(o0, b, a0, n);
  axpy4_scalar(o1, b, a1, n);
}

void axpy1_scalar(double* o, const double* b, double a, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) o[j] += a * b[j];
}

void add1_scalar(double* o, const double* b, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) o[j] += b[j];
}

void dot4_scalar(const double* a, const double* const* b, std::size_t K,
                 double* out) {
  const double *b0 = b[0], *b1 = b[1], *b2 = b[2], *b3 = b[3];
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (std::size_t k = 0; k < K; ++k) {
    const double ak = a[k];
    s0 += ak * b0[k];
    s1 += ak * b1[k];
    s2 += ak * b2[k];
    s3 += ak * b3[k];
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

void bias_elu_row_scalar(double* dst, const double* src, const double* bias,
                         std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double t = src[j] + bias[j];
    dst[j] = t > 0 ? t : std::expm1(t);
  }
}

void gatv2_scores4_scalar(const double* const* l, const double* const* r,
                          const double* av, double slope, std::size_t d,
                          double* out) {
  for (int e = 0; e < 4; ++e) {
    const double* le = l[e];
    const double* re = r[e];
    double acc = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      const double t = le[k] + re[k];
      const double act = t > 0 ? t : slope * t;
      acc += act * av[k];
    }
    out[e] = acc;
  }
}

constexpr KernelFns kScalarFns = {
    axpy8_scalar,    axpy4_scalar,         axpy4x2_scalar,
    axpy1_scalar,    add1_scalar,          dot4_scalar,
    bias_elu_row_scalar, gatv2_scores4_scalar,
};

struct Detected {
  Isa isa = Isa::Scalar;
  const KernelFns* fns = &kScalarFns;
};

const Detected& detect() {
  static const Detected d = [] {
    Detected out;
    const char* env = std::getenv("MPIDETECT_FORCE_SCALAR");
    if (env != nullptr && env[0] == '1') return out;
    Isa isa = Isa::Scalar;
    if (const KernelFns* simd = detail::simd_table(&isa)) {
      out.isa = isa;
      out.fns = simd;
    }
    return out;
  }();
  return d;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return "scalar";
    case Isa::Avx2: return "avx2";
    case Isa::Neon: return "neon";
  }
  MPIDETECT_UNREACHABLE("bad Isa");
}

Isa detected_isa() { return detect().isa; }

Isa active_isa() { return t_force_scalar ? Isa::Scalar : detect().isa; }

bool force_scalar() { return t_force_scalar; }

void set_force_scalar(bool on) { t_force_scalar = on; }

ScopedForceScalar::ScopedForceScalar(bool on) : prev_(t_force_scalar) {
  t_force_scalar = on;
}

ScopedForceScalar::~ScopedForceScalar() { t_force_scalar = prev_; }

const KernelFns& fns() {
  return t_force_scalar ? kScalarFns : *detect().fns;
}

const KernelFns& fns_for(Isa isa) {
  if (isa == Isa::Scalar) return kScalarFns;
  if (const KernelFns* t = detail::simd_table_for(isa)) return *t;
  return kScalarFns;
}

// ---- per-op profiling counters ----------------------------------------------

namespace {

struct OpCell {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> flops{0};
  std::atomic<std::uint64_t> ns{0};
};

OpCell g_ops[kNumOps];

thread_local bool t_in_op = false;

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::Matmul: return "matmul";
    case Op::MatmulNt: return "matmul_nt";
    case Op::MatmulTn: return "matmul_tn";
    case Op::BiasElu: return "bias_elu";
    case Op::Gatv2Scores: return "gatv2_scores";
    case Op::ScatterAddScaled: return "scatter_add_scaled";
    case Op::GatherRows: return "gather_rows";
    case Op::SegmentSoftmax: return "segment_softmax";
  }
  MPIDETECT_UNREACHABLE("bad Op");
}

std::array<OpStats, kNumOps> op_counters() {
  std::array<OpStats, kNumOps> out;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    out[i].calls = g_ops[i].calls.load(std::memory_order_relaxed);
    out[i].flops = g_ops[i].flops.load(std::memory_order_relaxed);
    out[i].ns = g_ops[i].ns.load(std::memory_order_relaxed);
  }
  return out;
}

void reset_op_counters() {
  for (OpCell& c : g_ops) {
    c.calls.store(0, std::memory_order_relaxed);
    c.flops.store(0, std::memory_order_relaxed);
    c.ns.store(0, std::memory_order_relaxed);
  }
}

OpTimer::OpTimer(Op op, std::uint64_t flops)
    : op_(op), flops_(flops), active_(!t_in_op) {
  if (!active_) return;
  t_in_op = true;
  t0_ = std::chrono::steady_clock::now();
}

OpTimer::~OpTimer() {
  if (!active_) return;
  const auto dt = std::chrono::steady_clock::now() - t0_;
  t_in_op = false;
  OpCell& c = g_ops[static_cast<std::size_t>(op_)];
  c.calls.fetch_add(1, std::memory_order_relaxed);
  c.flops.fetch_add(flops_, std::memory_order_relaxed);
  c.ns.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()),
      std::memory_order_relaxed);
}

}  // namespace mpidetect::ml::kernels
