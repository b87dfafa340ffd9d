// The SIMD kernel tables behind kernels::fns(). Compiled in every
// build without -mavx2: the x86 kernels carry
// __attribute__((target("avx2"))) so only these functions use VEX
// encodings, and the table is handed out only after
// __builtin_cpu_supports("avx2") says the running CPU has them.
//
// Bit-identity discipline (the contract tests/batched_gnn_test.cpp
// enforces): every kernel vectorizes ONLY across independent output
// elements — lanes are distinct j (axpy/bias_elu), distinct output
// columns (dot4), or distinct edges (gatv2_scores4) — and each lane
// performs exactly the scalar reference's operations in the same order,
// as separate multiply and add instructions. FMA is never used: it
// rounds once where mul+add round twice, which would change bits. CMake
// compiles this file with -ffp-contract=off so that no compiler, target
// attribute or future kernel can contract a mul+add pair into an FMA
// and silently break bit-identity. All memory accesses are unaligned
// (loadu/storeu): Matrix data lives in std::vector<double> storage with
// 16-byte, not 32-byte, alignment, and callers may hand arbitrarily
// offset row slices (docs/PERFORMANCE.md, "Alignment").
//
// NEON (aarch64): float64x2_t covers the axpy family and add1; dot4 /
// bias_elu_row / gatv2_scores4 fall back to scalar (gather-heavy lane
// packing does not pay at 2-wide).
#include "ml/kernels.hpp"

#include <cmath>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace mpidetect::ml::kernels::detail {

#if defined(__x86_64__) || defined(__i386__)

namespace {

__attribute__((target("avx2"))) void axpy8_avx2(double* o,
                                                const double* const* b,
                                                const double* a,
                                                std::size_t n) {
  const __m256d a0 = _mm256_set1_pd(a[0]), a1 = _mm256_set1_pd(a[1]);
  const __m256d a2 = _mm256_set1_pd(a[2]), a3 = _mm256_set1_pd(a[3]);
  const __m256d a4 = _mm256_set1_pd(a[4]), a5 = _mm256_set1_pd(a[5]);
  const __m256d a6 = _mm256_set1_pd(a[6]), a7 = _mm256_set1_pd(a[7]);
  const double *b0 = b[0], *b1 = b[1], *b2 = b[2], *b3 = b[3];
  const double *b4 = b[4], *b5 = b[5], *b6 = b[6], *b7 = b[7];
  std::size_t j = 0;
  // Two j-vectors in flight: each output element's 8-add chain is a
  // serial dependency (the k-ascending order is the bit-identity
  // contract), so the only instruction-level parallelism available is
  // ACROSS output elements — interleaving two independent chains keeps
  // the FP adder busy while the other chain's add is in latency.
  for (; j + 8 <= n; j += 8) {
    __m256d acc = _mm256_loadu_pd(o + j);
    __m256d acc2 = _mm256_loadu_pd(o + j + 4);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a0, _mm256_loadu_pd(b0 + j)));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(a0, _mm256_loadu_pd(b0 + j + 4)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a1, _mm256_loadu_pd(b1 + j)));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(a1, _mm256_loadu_pd(b1 + j + 4)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a2, _mm256_loadu_pd(b2 + j)));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(a2, _mm256_loadu_pd(b2 + j + 4)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a3, _mm256_loadu_pd(b3 + j)));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(a3, _mm256_loadu_pd(b3 + j + 4)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a4, _mm256_loadu_pd(b4 + j)));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(a4, _mm256_loadu_pd(b4 + j + 4)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a5, _mm256_loadu_pd(b5 + j)));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(a5, _mm256_loadu_pd(b5 + j + 4)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a6, _mm256_loadu_pd(b6 + j)));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(a6, _mm256_loadu_pd(b6 + j + 4)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a7, _mm256_loadu_pd(b7 + j)));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(a7, _mm256_loadu_pd(b7 + j + 4)));
    _mm256_storeu_pd(o + j, acc);
    _mm256_storeu_pd(o + j + 4, acc2);
  }
  for (; j + 4 <= n; j += 4) {
    __m256d acc = _mm256_loadu_pd(o + j);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a0, _mm256_loadu_pd(b0 + j)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a1, _mm256_loadu_pd(b1 + j)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a2, _mm256_loadu_pd(b2 + j)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a3, _mm256_loadu_pd(b3 + j)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a4, _mm256_loadu_pd(b4 + j)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a5, _mm256_loadu_pd(b5 + j)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a6, _mm256_loadu_pd(b6 + j)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a7, _mm256_loadu_pd(b7 + j)));
    _mm256_storeu_pd(o + j, acc);
  }
  for (; j < n; ++j) {
    double acc = o[j];
    acc += a[0] * b0[j];
    acc += a[1] * b1[j];
    acc += a[2] * b2[j];
    acc += a[3] * b3[j];
    acc += a[4] * b4[j];
    acc += a[5] * b5[j];
    acc += a[6] * b6[j];
    acc += a[7] * b7[j];
    o[j] = acc;
  }
}

__attribute__((target("avx2"))) void axpy4_avx2(double* o,
                                                const double* const* b,
                                                const double* a,
                                                std::size_t n) {
  const __m256d a0 = _mm256_set1_pd(a[0]), a1 = _mm256_set1_pd(a[1]);
  const __m256d a2 = _mm256_set1_pd(a[2]), a3 = _mm256_set1_pd(a[3]);
  const double *b0 = b[0], *b1 = b[1], *b2 = b[2], *b3 = b[3];
  std::size_t j = 0;
  // Same two-chain interleave as axpy8 (see the comment there).
  for (; j + 8 <= n; j += 8) {
    __m256d acc = _mm256_loadu_pd(o + j);
    __m256d acc2 = _mm256_loadu_pd(o + j + 4);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a0, _mm256_loadu_pd(b0 + j)));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(a0, _mm256_loadu_pd(b0 + j + 4)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a1, _mm256_loadu_pd(b1 + j)));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(a1, _mm256_loadu_pd(b1 + j + 4)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a2, _mm256_loadu_pd(b2 + j)));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(a2, _mm256_loadu_pd(b2 + j + 4)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a3, _mm256_loadu_pd(b3 + j)));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(a3, _mm256_loadu_pd(b3 + j + 4)));
    _mm256_storeu_pd(o + j, acc);
    _mm256_storeu_pd(o + j + 4, acc2);
  }
  for (; j + 4 <= n; j += 4) {
    __m256d acc = _mm256_loadu_pd(o + j);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a0, _mm256_loadu_pd(b0 + j)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a1, _mm256_loadu_pd(b1 + j)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a2, _mm256_loadu_pd(b2 + j)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a3, _mm256_loadu_pd(b3 + j)));
    _mm256_storeu_pd(o + j, acc);
  }
  for (; j < n; ++j) {
    double acc = o[j];
    acc += a[0] * b0[j];
    acc += a[1] * b1[j];
    acc += a[2] * b2[j];
    acc += a[3] * b3[j];
    o[j] = acc;
  }
}

__attribute__((target("avx2"))) void axpy4x2_avx2(double* o0, double* o1,
                                                  const double* const* b,
                                                  const double* a0,
                                                  const double* a1,
                                                  std::size_t n) {
  // Two output rows share each b load: per 8 outputs the kernel issues
  // 8 b loads + 4 row loads + 4 row stores for 16 mul+add pairs, vs
  // axpy8's 16 + 2 + 2 for 16 — ~20% fewer memory ops on a kernel
  // bound by them. The four accumulators are independent chains (ILP),
  // and each row's element still accumulates its own four terms
  // k-ascending, so the result is bit-equal to two axpy4 calls.
  const __m256d p0 = _mm256_set1_pd(a0[0]), p1 = _mm256_set1_pd(a0[1]);
  const __m256d p2 = _mm256_set1_pd(a0[2]), p3 = _mm256_set1_pd(a0[3]);
  const __m256d q0 = _mm256_set1_pd(a1[0]), q1 = _mm256_set1_pd(a1[1]);
  const __m256d q2 = _mm256_set1_pd(a1[2]), q3 = _mm256_set1_pd(a1[3]);
  const double *b0 = b[0], *b1 = b[1], *b2 = b[2], *b3 = b[3];
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256d r00 = _mm256_loadu_pd(o0 + j);
    __m256d r01 = _mm256_loadu_pd(o0 + j + 4);
    __m256d r10 = _mm256_loadu_pd(o1 + j);
    __m256d r11 = _mm256_loadu_pd(o1 + j + 4);
    __m256d v = _mm256_loadu_pd(b0 + j);
    __m256d v2 = _mm256_loadu_pd(b0 + j + 4);
    r00 = _mm256_add_pd(r00, _mm256_mul_pd(p0, v));
    r10 = _mm256_add_pd(r10, _mm256_mul_pd(q0, v));
    r01 = _mm256_add_pd(r01, _mm256_mul_pd(p0, v2));
    r11 = _mm256_add_pd(r11, _mm256_mul_pd(q0, v2));
    v = _mm256_loadu_pd(b1 + j);
    v2 = _mm256_loadu_pd(b1 + j + 4);
    r00 = _mm256_add_pd(r00, _mm256_mul_pd(p1, v));
    r10 = _mm256_add_pd(r10, _mm256_mul_pd(q1, v));
    r01 = _mm256_add_pd(r01, _mm256_mul_pd(p1, v2));
    r11 = _mm256_add_pd(r11, _mm256_mul_pd(q1, v2));
    v = _mm256_loadu_pd(b2 + j);
    v2 = _mm256_loadu_pd(b2 + j + 4);
    r00 = _mm256_add_pd(r00, _mm256_mul_pd(p2, v));
    r10 = _mm256_add_pd(r10, _mm256_mul_pd(q2, v));
    r01 = _mm256_add_pd(r01, _mm256_mul_pd(p2, v2));
    r11 = _mm256_add_pd(r11, _mm256_mul_pd(q2, v2));
    v = _mm256_loadu_pd(b3 + j);
    v2 = _mm256_loadu_pd(b3 + j + 4);
    r00 = _mm256_add_pd(r00, _mm256_mul_pd(p3, v));
    r10 = _mm256_add_pd(r10, _mm256_mul_pd(q3, v));
    r01 = _mm256_add_pd(r01, _mm256_mul_pd(p3, v2));
    r11 = _mm256_add_pd(r11, _mm256_mul_pd(q3, v2));
    _mm256_storeu_pd(o0 + j, r00);
    _mm256_storeu_pd(o0 + j + 4, r01);
    _mm256_storeu_pd(o1 + j, r10);
    _mm256_storeu_pd(o1 + j + 4, r11);
  }
  for (; j + 4 <= n; j += 4) {
    __m256d r0 = _mm256_loadu_pd(o0 + j);
    __m256d r1 = _mm256_loadu_pd(o1 + j);
    __m256d v = _mm256_loadu_pd(b0 + j);
    r0 = _mm256_add_pd(r0, _mm256_mul_pd(p0, v));
    r1 = _mm256_add_pd(r1, _mm256_mul_pd(q0, v));
    v = _mm256_loadu_pd(b1 + j);
    r0 = _mm256_add_pd(r0, _mm256_mul_pd(p1, v));
    r1 = _mm256_add_pd(r1, _mm256_mul_pd(q1, v));
    v = _mm256_loadu_pd(b2 + j);
    r0 = _mm256_add_pd(r0, _mm256_mul_pd(p2, v));
    r1 = _mm256_add_pd(r1, _mm256_mul_pd(q2, v));
    v = _mm256_loadu_pd(b3 + j);
    r0 = _mm256_add_pd(r0, _mm256_mul_pd(p3, v));
    r1 = _mm256_add_pd(r1, _mm256_mul_pd(q3, v));
    _mm256_storeu_pd(o0 + j, r0);
    _mm256_storeu_pd(o1 + j, r1);
  }
  for (; j < n; ++j) {
    double acc = o0[j];
    acc += a0[0] * b0[j];
    acc += a0[1] * b1[j];
    acc += a0[2] * b2[j];
    acc += a0[3] * b3[j];
    o0[j] = acc;
    acc = o1[j];
    acc += a1[0] * b0[j];
    acc += a1[1] * b1[j];
    acc += a1[2] * b2[j];
    acc += a1[3] * b3[j];
    o1[j] = acc;
  }
}

__attribute__((target("avx2"))) void axpy1_avx2(double* o, const double* b,
                                                double a, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d acc = _mm256_add_pd(
        _mm256_loadu_pd(o + j), _mm256_mul_pd(va, _mm256_loadu_pd(b + j)));
    _mm256_storeu_pd(o + j, acc);
  }
  for (; j < n; ++j) o[j] += a * b[j];
}

__attribute__((target("avx2"))) void add1_avx2(double* o, const double* b,
                                               std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(
        o + j, _mm256_add_pd(_mm256_loadu_pd(o + j), _mm256_loadu_pd(b + j)));
  }
  for (; j < n; ++j) o[j] += b[j];
}

__attribute__((target("avx2"))) void dot4_avx2(const double* a,
                                               const double* const* b,
                                               std::size_t K, double* out) {
  const double *b0 = b[0], *b1 = b[1], *b2 = b[2], *b3 = b[3];
  // Lanes are the four output columns; per k every lane gets its own
  // b-element and the shared a[k]. Accumulation per lane is k-ascending,
  // exactly the scalar chains s0..s3.
  __m256d s = _mm256_setzero_pd();
  for (std::size_t k = 0; k < K; ++k) {
    const __m256d vb = _mm256_set_pd(b3[k], b2[k], b1[k], b0[k]);
    s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_set1_pd(a[k]), vb));
  }
  _mm256_storeu_pd(out, s);
}

__attribute__((target("avx2"))) void bias_elu_row_avx2(double* dst,
                                                       const double* src,
                                                       const double* bias,
                                                       std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d t =
        _mm256_add_pd(_mm256_loadu_pd(src + j), _mm256_loadu_pd(bias + j));
    _mm256_storeu_pd(dst + j, t);
    // Negative (or zero/NaN) lanes take the scalar expm1 — the same
    // libm call the reference makes, so bits match there too.
    const int pos =
        _mm256_movemask_pd(_mm256_cmp_pd(t, zero, _CMP_GT_OQ));
    if (pos != 0xF) {
      for (int l = 0; l < 4; ++l) {
        if (((pos >> l) & 1) == 0) dst[j + l] = std::expm1(dst[j + l]);
      }
    }
  }
  for (; j < n; ++j) {
    const double t = src[j] + bias[j];
    dst[j] = t > 0 ? t : std::expm1(t);
  }
}

__attribute__((target("avx2"))) void gatv2_scores4_avx2(
    const double* const* l, const double* const* r, const double* av,
    double slope, std::size_t d, double* out) {
  const double *l0 = l[0], *l1 = l[1], *l2 = l[2], *l3 = l[3];
  const double *r0 = r[0], *r1 = r[1], *r2 = r[2], *r3 = r[3];
  const __m256d vslope = _mm256_set1_pd(slope);
  const __m256d zero = _mm256_setzero_pd();
  // Lanes are four edges; per k each lane computes the scalar path's
  // t, leaky-relu (exact: the taken branch is the same multiply) and
  // k-ascending accumulation.
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t k = 0; k < d; ++k) {
    const __m256d t =
        _mm256_add_pd(_mm256_set_pd(l3[k], l2[k], l1[k], l0[k]),
                      _mm256_set_pd(r3[k], r2[k], r1[k], r0[k]));
    const __m256d act = _mm256_blendv_pd(_mm256_mul_pd(vslope, t), t,
                                         _mm256_cmp_pd(t, zero, _CMP_GT_OQ));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(act, _mm256_set1_pd(av[k])));
  }
  _mm256_storeu_pd(out, acc);
}

constexpr KernelFns kAvx2Fns = {
    axpy8_avx2, axpy4_avx2,        axpy4x2_avx2,       axpy1_avx2,
    add1_avx2,  dot4_avx2,         bias_elu_row_avx2,  gatv2_scores4_avx2,
};

}  // namespace

const KernelFns* simd_table(Isa* isa) {
  if (!__builtin_cpu_supports("avx2")) return nullptr;
  *isa = Isa::Avx2;
  return &kAvx2Fns;
}

const KernelFns* simd_table_for(Isa isa) {
  if (isa == Isa::Avx2 && __builtin_cpu_supports("avx2")) return &kAvx2Fns;
  return nullptr;
}

#elif defined(__aarch64__)

namespace {

void axpy8_neon(double* o, const double* const* b, const double* a,
                std::size_t n) {
  const float64x2_t a0 = vdupq_n_f64(a[0]), a1 = vdupq_n_f64(a[1]);
  const float64x2_t a2 = vdupq_n_f64(a[2]), a3 = vdupq_n_f64(a[3]);
  const float64x2_t a4 = vdupq_n_f64(a[4]), a5 = vdupq_n_f64(a[5]);
  const float64x2_t a6 = vdupq_n_f64(a[6]), a7 = vdupq_n_f64(a[7]);
  const double *b0 = b[0], *b1 = b[1], *b2 = b[2], *b3 = b[3];
  const double *b4 = b[4], *b5 = b[5], *b6 = b[6], *b7 = b[7];
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    float64x2_t acc = vld1q_f64(o + j);
    acc = vaddq_f64(acc, vmulq_f64(a0, vld1q_f64(b0 + j)));
    acc = vaddq_f64(acc, vmulq_f64(a1, vld1q_f64(b1 + j)));
    acc = vaddq_f64(acc, vmulq_f64(a2, vld1q_f64(b2 + j)));
    acc = vaddq_f64(acc, vmulq_f64(a3, vld1q_f64(b3 + j)));
    acc = vaddq_f64(acc, vmulq_f64(a4, vld1q_f64(b4 + j)));
    acc = vaddq_f64(acc, vmulq_f64(a5, vld1q_f64(b5 + j)));
    acc = vaddq_f64(acc, vmulq_f64(a6, vld1q_f64(b6 + j)));
    acc = vaddq_f64(acc, vmulq_f64(a7, vld1q_f64(b7 + j)));
    vst1q_f64(o + j, acc);
  }
  for (; j < n; ++j) {
    double acc = o[j];
    acc += a[0] * b0[j];
    acc += a[1] * b1[j];
    acc += a[2] * b2[j];
    acc += a[3] * b3[j];
    acc += a[4] * b4[j];
    acc += a[5] * b5[j];
    acc += a[6] * b6[j];
    acc += a[7] * b7[j];
    o[j] = acc;
  }
}

void axpy4_neon(double* o, const double* const* b, const double* a,
                std::size_t n) {
  const float64x2_t a0 = vdupq_n_f64(a[0]), a1 = vdupq_n_f64(a[1]);
  const float64x2_t a2 = vdupq_n_f64(a[2]), a3 = vdupq_n_f64(a[3]);
  const double *b0 = b[0], *b1 = b[1], *b2 = b[2], *b3 = b[3];
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    float64x2_t acc = vld1q_f64(o + j);
    acc = vaddq_f64(acc, vmulq_f64(a0, vld1q_f64(b0 + j)));
    acc = vaddq_f64(acc, vmulq_f64(a1, vld1q_f64(b1 + j)));
    acc = vaddq_f64(acc, vmulq_f64(a2, vld1q_f64(b2 + j)));
    acc = vaddq_f64(acc, vmulq_f64(a3, vld1q_f64(b3 + j)));
    vst1q_f64(o + j, acc);
  }
  for (; j < n; ++j) {
    double acc = o[j];
    acc += a[0] * b0[j];
    acc += a[1] * b1[j];
    acc += a[2] * b2[j];
    acc += a[3] * b3[j];
    o[j] = acc;
  }
}

void axpy1_neon(double* o, const double* b, double a, std::size_t n) {
  const float64x2_t va = vdupq_n_f64(a);
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    vst1q_f64(o + j,
              vaddq_f64(vld1q_f64(o + j), vmulq_f64(va, vld1q_f64(b + j))));
  }
  for (; j < n; ++j) o[j] += a * b[j];
}

void add1_neon(double* o, const double* b, std::size_t n) {
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    vst1q_f64(o + j, vaddq_f64(vld1q_f64(o + j), vld1q_f64(b + j)));
  }
  for (; j < n; ++j) o[j] += b[j];
}

void dot4_scalar_ref(const double* a, const double* const* b, std::size_t K,
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

void bias_elu_row_scalar_ref(double* dst, const double* src,
                             const double* bias, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double t = src[j] + bias[j];
    dst[j] = t > 0 ? t : std::expm1(t);
  }
}

void gatv2_scores4_scalar_ref(const double* const* l, const double* const* r,
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

void axpy4x2_neon(double* o0, double* o1, const double* const* b,
                  const double* a0, const double* a1, std::size_t n) {
  axpy4_neon(o0, b, a0, n);
  axpy4_neon(o1, b, a1, n);
}

constexpr KernelFns kNeonFns = {
    axpy8_neon, axpy4_neon,              axpy4x2_neon,
    axpy1_neon, add1_neon,               dot4_scalar_ref,
    bias_elu_row_scalar_ref, gatv2_scores4_scalar_ref,
};

}  // namespace

const KernelFns* simd_table(Isa* isa) {
  // AdvSIMD is architecturally mandatory on aarch64.
  *isa = Isa::Neon;
  return &kNeonFns;
}

const KernelFns* simd_table_for(Isa isa) {
  return isa == Isa::Neon ? &kNeonFns : nullptr;
}

#else

const KernelFns* simd_table(Isa*) { return nullptr; }

const KernelFns* simd_table_for(Isa) { return nullptr; }

#endif

}  // namespace mpidetect::ml::kernels::detail
