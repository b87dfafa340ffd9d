#include "ml/kernels.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>

#include "support/check.hpp"

namespace mpidetect::ml::kernels {

namespace {

thread_local bool t_naive_matmul = false;
thread_local bool t_force_scalar = false;

}  // namespace

bool naive_matmul() { return t_naive_matmul; }

void set_naive_matmul(bool on) { t_naive_matmul = on; }

ScopedNaiveMatmul::ScopedNaiveMatmul(bool on) : prev_(t_naive_matmul) {
  t_naive_matmul = on;
}

ScopedNaiveMatmul::~ScopedNaiveMatmul() { t_naive_matmul = prev_; }

// ---- scalar reference kernels -----------------------------------------------
//
// The SIMD tables are tested against these for bit-identity
// (tests/batched_gnn_test.cpp, "SimdDispatch"). They are plain loops
// over independent outputs, so GCC vectorizes them for the baseline ISA
// without changing a bit; -ffp-contract=off (CMakeLists.txt) keeps it
// from fusing any multiply-add on targets with FMA.

namespace {

bool gemm_tile_scalar(const double* ap, const double* bp, std::size_t K,
                      double* c, std::size_t ldc) {
  double acc[kMr][kNr] = {};
  for (std::size_t k = 0; k < K; ++k, ap += kMr, bp += kNr) {
    for (std::size_t r = 0; r < kMr; ++r) {
      const double a = ap[r];
      for (std::size_t j = 0; j < kNr; ++j) acc[r][j] += a * bp[j];
    }
  }
  bool finite = true;
  for (std::size_t r = 0; r < kMr; ++r) {
    for (std::size_t j = 0; j < kNr; ++j) {
      c[r * ldc + j] = acc[r][j];
      finite &= std::isfinite(acc[r][j]);
    }
  }
  return finite;
}

void axpy1_scalar(double* o, const double* b, double a, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) o[j] += a * b[j];
}

void add1_scalar(double* o, const double* b, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) o[j] += b[j];
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

void gatv2_backward_row_scalar(const double* l, const double* r,
                               const double* av, double ge, double slope,
                               std::size_t d, double* gl, double* gr,
                               double* ga) {
  for (std::size_t k = 0; k < d; ++k) {
    const double t = l[k] + r[k];
    const double dt = ge * av[k] * (t > 0 ? 1.0 : slope);
    gl[k] += dt;
    gr[k] += dt;
    const double act = t > 0 ? t : slope * t;
    ga[k] += act * ge;
  }
}

void adam_row_scalar(double* p, double* m, double* v, double* g,
                     std::size_t n, const AdamCoeffs& c) {
  for (std::size_t k = 0; k < n; ++k) {
    const double grad = g[k];
    m[k] = c.beta1 * m[k] + (1.0 - c.beta1) * grad;
    v[k] = c.beta2 * v[k] + (1.0 - c.beta2) * grad * grad;
    const double mhat = m[k] / c.bc1;
    const double vhat = v[k] / c.bc2;
    p[k] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
    g[k] = 0.0;
  }
}

}  // namespace

constinit const KernelFns detail::kScalarFns = {
    gemm_tile_scalar,     axpy1_scalar,
    add1_scalar,          bias_elu_row_scalar,
    gatv2_scores4_scalar, gatv2_backward_row_scalar,
    adam_row_scalar,
};

namespace {

struct Detected {
  Isa isa = Isa::Scalar;
  const KernelFns* fns = &detail::kScalarFns;
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
  return t_force_scalar ? detail::kScalarFns : *detect().fns;
}

const KernelFns& fns_for(Isa isa) {
  if (isa == Isa::Scalar) return detail::kScalarFns;
  if (const KernelFns* t = detail::simd_table_for(isa)) return *t;
  return detail::kScalarFns;
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
