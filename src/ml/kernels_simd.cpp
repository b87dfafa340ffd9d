// The SIMD kernel tables behind kernels::fns(). Compiled in every
// build without -mavx2: the x86 kernels carry
// __attribute__((target("avx2"))) so only these functions use VEX
// encodings, and the table is handed out only after
// __builtin_cpu_supports("avx2") says the running CPU has them.
//
// Bit-identity discipline (the contract tests/batched_gnn_test.cpp
// enforces): every kernel vectorizes ONLY across independent output
// elements — lanes are distinct output columns (gemm_tile, axpy1,
// bias_elu_row), distinct features (gatv2_backward_row), distinct edges
// (gatv2_scores4) or distinct parameters (adam_row) — and each lane
// performs exactly the scalar reference's operations in the same order,
// as separate multiply and add instructions. FMA is never used: it
// rounds once where mul+add round twice, which would change bits. The whole library is compiled with
// -ffp-contract=off (CMakeLists.txt), so no compiler, target attribute
// or future kernel can contract a mul+add pair into an FMA. All memory
// accesses are unaligned (loadu/storeu): Matrix data lives in
// std::vector<double> storage with 16-byte, not 32-byte, alignment, and
// callers may hand arbitrarily offset row slices (docs/PERFORMANCE.md,
// "Alignment").
//
// Every other target, aarch64 included, runs the scalar reference table.
#include "ml/kernels.hpp"

#include <cmath>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace mpidetect::ml::kernels::detail {

#if defined(__x86_64__) || defined(__i386__)

namespace {

__attribute__((target("avx2"))) bool gemm_tile_avx2(const double* ap,
                                                    const double* bp,
                                                    std::size_t K, double* c,
                                                    std::size_t ldc) {
  // The 4x8 tile lives in eight ymm accumulators: per k, two loads of
  // the B panel row feed four broadcast A coefficients. Every
  // accumulator lane is one output element's k-ascending chain from
  // 0.0, so the tile equals the scalar reference bit for bit; the eight
  // independent chains hide the adder's latency.
  static_assert(kMr == 4 && kNr == 8, "gemm_tile_avx2 is a 4x8 tile");
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  for (std::size_t k = 0; k < K; ++k, ap += kMr, bp += kNr) {
    const __m256d b0 = _mm256_loadu_pd(bp);
    const __m256d b1 = _mm256_loadu_pd(bp + 4);
    __m256d a = _mm256_broadcast_sd(ap);
    c00 = _mm256_add_pd(c00, _mm256_mul_pd(a, b0));
    c01 = _mm256_add_pd(c01, _mm256_mul_pd(a, b1));
    a = _mm256_broadcast_sd(ap + 1);
    c10 = _mm256_add_pd(c10, _mm256_mul_pd(a, b0));
    c11 = _mm256_add_pd(c11, _mm256_mul_pd(a, b1));
    a = _mm256_broadcast_sd(ap + 2);
    c20 = _mm256_add_pd(c20, _mm256_mul_pd(a, b0));
    c21 = _mm256_add_pd(c21, _mm256_mul_pd(a, b1));
    a = _mm256_broadcast_sd(ap + 3);
    c30 = _mm256_add_pd(c30, _mm256_mul_pd(a, b0));
    c31 = _mm256_add_pd(c31, _mm256_mul_pd(a, b1));
  }
  _mm256_storeu_pd(c, c00);
  _mm256_storeu_pd(c + 4, c01);
  _mm256_storeu_pd(c + ldc, c10);
  _mm256_storeu_pd(c + ldc + 4, c11);
  _mm256_storeu_pd(c + 2 * ldc, c20);
  _mm256_storeu_pd(c + 2 * ldc + 4, c21);
  _mm256_storeu_pd(c + 3 * ldc, c30);
  _mm256_storeu_pd(c + 3 * ldc + 4, c31);
  // x - x is +0.0 for every finite x and NaN otherwise.
  const __m256d r0 = _mm256_or_pd(_mm256_sub_pd(c00, c00),
                                  _mm256_sub_pd(c01, c01));
  const __m256d r1 = _mm256_or_pd(_mm256_sub_pd(c10, c10),
                                  _mm256_sub_pd(c11, c11));
  const __m256d r2 = _mm256_or_pd(_mm256_sub_pd(c20, c20),
                                  _mm256_sub_pd(c21, c21));
  const __m256d r3 = _mm256_or_pd(_mm256_sub_pd(c30, c30),
                                  _mm256_sub_pd(c31, c31));
  const __m256i bits = _mm256_castpd_si256(
      _mm256_or_pd(_mm256_or_pd(r0, r1), _mm256_or_pd(r2, r3)));
  return _mm256_testz_si256(bits, bits) != 0;
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

__attribute__((target("avx2"))) void gatv2_backward_row_avx2(
    const double* l, const double* r, const double* av, double ge,
    double slope, std::size_t d, double* gl, double* gr, double* ga) {
  // Lanes are four features k; each takes the scalar loop's operations
  // in its order, the LeakyReLU branches as blends on the same compare.
  const __m256d vge = _mm256_set1_pd(ge);
  const __m256d vslope = _mm256_set1_pd(slope);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    const __m256d t =
        _mm256_add_pd(_mm256_loadu_pd(l + k), _mm256_loadu_pd(r + k));
    const __m256d pos = _mm256_cmp_pd(t, zero, _CMP_GT_OQ);
    const __m256d dt =
        _mm256_mul_pd(_mm256_mul_pd(vge, _mm256_loadu_pd(av + k)),
                      _mm256_blendv_pd(vslope, one, pos));
    _mm256_storeu_pd(gl + k, _mm256_add_pd(_mm256_loadu_pd(gl + k), dt));
    _mm256_storeu_pd(gr + k, _mm256_add_pd(_mm256_loadu_pd(gr + k), dt));
    const __m256d act = _mm256_blendv_pd(_mm256_mul_pd(vslope, t), t, pos);
    _mm256_storeu_pd(ga + k, _mm256_add_pd(_mm256_loadu_pd(ga + k),
                                           _mm256_mul_pd(act, vge)));
  }
  kScalarFns.gatv2_backward_row(l + k, r + k, av + k, ge, slope, d - k,
                                gl + k, gr + k, ga + k);
}

__attribute__((target("avx2"))) void adam_row_avx2(double* p, double* m,
                                                   double* v, double* g,
                                                   std::size_t n,
                                                   const AdamCoeffs& c) {
  // Lanes are four parameters, each taking the scalar update's exact
  // operation sequence; vdivpd and vsqrtpd round correctly, like the
  // scalar division and std::sqrt.
  const __m256d b1 = _mm256_set1_pd(c.beta1), b2 = _mm256_set1_pd(c.beta2);
  const __m256d nb1 = _mm256_set1_pd(1.0 - c.beta1);
  const __m256d nb2 = _mm256_set1_pd(1.0 - c.beta2);
  const __m256d bc1 = _mm256_set1_pd(c.bc1), bc2 = _mm256_set1_pd(c.bc2);
  const __m256d lr = _mm256_set1_pd(c.lr), eps = _mm256_set1_pd(c.eps);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d grad = _mm256_loadu_pd(g + k);
    const __m256d mk = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + k)),
                                     _mm256_mul_pd(nb1, grad));
    const __m256d vk =
        _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + k)),
                      _mm256_mul_pd(_mm256_mul_pd(nb2, grad), grad));
    const __m256d mhat = _mm256_div_pd(mk, bc1);
    const __m256d vhat = _mm256_div_pd(vk, bc2);
    const __m256d step = _mm256_div_pd(
        _mm256_mul_pd(lr, mhat), _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm256_storeu_pd(m + k, mk);
    _mm256_storeu_pd(v + k, vk);
    _mm256_storeu_pd(p + k, _mm256_sub_pd(_mm256_loadu_pd(p + k), step));
    _mm256_storeu_pd(g + k, _mm256_setzero_pd());
  }
  kScalarFns.adam_row(p + k, m + k, v + k, g + k, n - k, c);
}

constexpr KernelFns kAvx2Fns = {
    gemm_tile_avx2,          axpy1_avx2,    add1_avx2,
    bias_elu_row_avx2,       gatv2_scores4_avx2,
    gatv2_backward_row_avx2, adam_row_avx2,
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

#else

const KernelFns* simd_table(Isa*) { return nullptr; }

const KernelFns* simd_table_for(Isa) { return nullptr; }

#endif

}  // namespace mpidetect::ml::kernels::detail
