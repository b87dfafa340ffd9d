// The SIMD kernel tables behind kernels::fns(). Compiled in every
// build without -mavx2 or -mavx512f: the x86 kernels carry
// __attribute__((target("avx2"))) or target("avx512f") so only these
// functions use VEX or EVEX encodings, and a table is handed out only
// after __builtin_cpu_supports says the running CPU has its
// instructions.
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
// std::vector<double> storage with 16-byte, not 32- or 64-byte,
// alignment, and callers may hand arbitrarily offset row slices
// (docs/PERFORMANCE.md, "Alignment").
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

/// One 8-wide half of the AVX2 tile: the kMr x 8 block at columns
/// [j0, j0 + 8) of the panel `bp` (row stride kNr) and of the output
/// rows `c`. Returns whether all 32 results are finite.
__attribute__((target("avx2"))) bool gemm_half_avx2(
    const double* const* a, std::size_t as, const double* bp, std::size_t K,
    double* const* c, std::size_t j0) {
  // The 4x8 block lives in eight ymm accumulators: per k, two loads of
  // the B panel row feed four broadcast A coefficients, one from each
  // row pointer. Every accumulator lane is one output element's
  // k-ascending chain from 0.0, so the block equals the scalar
  // reference bit for bit; the eight independent chains hide the
  // adder's latency.
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  const double *a0 = a[0], *a1 = a[1], *a2 = a[2], *a3 = a[3];
  bp += j0;
  for (std::size_t k = 0; k < K; ++k, bp += kNr) {
    const std::size_t ka = k * as;
    const __m256d b0 = _mm256_loadu_pd(bp);
    const __m256d b1 = _mm256_loadu_pd(bp + 4);
    __m256d av = _mm256_broadcast_sd(a0 + ka);
    c00 = _mm256_add_pd(c00, _mm256_mul_pd(av, b0));
    c01 = _mm256_add_pd(c01, _mm256_mul_pd(av, b1));
    av = _mm256_broadcast_sd(a1 + ka);
    c10 = _mm256_add_pd(c10, _mm256_mul_pd(av, b0));
    c11 = _mm256_add_pd(c11, _mm256_mul_pd(av, b1));
    av = _mm256_broadcast_sd(a2 + ka);
    c20 = _mm256_add_pd(c20, _mm256_mul_pd(av, b0));
    c21 = _mm256_add_pd(c21, _mm256_mul_pd(av, b1));
    av = _mm256_broadcast_sd(a3 + ka);
    c30 = _mm256_add_pd(c30, _mm256_mul_pd(av, b0));
    c31 = _mm256_add_pd(c31, _mm256_mul_pd(av, b1));
  }
  _mm256_storeu_pd(c[0] + j0, c00);
  _mm256_storeu_pd(c[0] + j0 + 4, c01);
  _mm256_storeu_pd(c[1] + j0, c10);
  _mm256_storeu_pd(c[1] + j0 + 4, c11);
  _mm256_storeu_pd(c[2] + j0, c20);
  _mm256_storeu_pd(c[2] + j0 + 4, c21);
  _mm256_storeu_pd(c[3] + j0, c30);
  _mm256_storeu_pd(c[3] + j0 + 4, c31);
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

__attribute__((target("avx2"))) bool gemm_tile_avx2(
    const double* const* a, std::size_t as, const double* bp, std::size_t K,
    double* const* c) {
  // Sixteen ymm accumulators would leave no register for B, so the 4x16
  // tile runs as two 4x8 halves, each streaming the A rows once.
  static_assert(kMr == 4 && kNr == 16, "gemm_tile_avx2 is a 4x16 tile");
  const bool lo = gemm_half_avx2(a, as, bp, K, c, 0);
  const bool hi = gemm_half_avx2(a, as, bp, K, c, 8);
  return lo && hi;
}

__attribute__((target("avx512f"))) bool gemm_tile_avx512(
    const double* const* a, std::size_t as, const double* bp, std::size_t K,
    double* const* c) {
  // The 4x16 tile in eight zmm accumulators, the AVX2 half's scheme at
  // twice the width: per k, two loads of the B panel row and four
  // broadcast A coefficients; separate multiply and add, each lane one
  // output element's k-ascending chain from 0.0.
  static_assert(kMr == 4 && kNr == 16, "gemm_tile_avx512 is a 4x16 tile");
  __m512d c00 = _mm512_setzero_pd(), c01 = _mm512_setzero_pd();
  __m512d c10 = _mm512_setzero_pd(), c11 = _mm512_setzero_pd();
  __m512d c20 = _mm512_setzero_pd(), c21 = _mm512_setzero_pd();
  __m512d c30 = _mm512_setzero_pd(), c31 = _mm512_setzero_pd();
  const double *a0 = a[0], *a1 = a[1], *a2 = a[2], *a3 = a[3];
  for (std::size_t k = 0; k < K; ++k, bp += kNr) {
    const std::size_t ka = k * as;
    const __m512d b0 = _mm512_loadu_pd(bp);
    const __m512d b1 = _mm512_loadu_pd(bp + 8);
    __m512d av = _mm512_set1_pd(a0[ka]);
    c00 = _mm512_add_pd(c00, _mm512_mul_pd(av, b0));
    c01 = _mm512_add_pd(c01, _mm512_mul_pd(av, b1));
    av = _mm512_set1_pd(a1[ka]);
    c10 = _mm512_add_pd(c10, _mm512_mul_pd(av, b0));
    c11 = _mm512_add_pd(c11, _mm512_mul_pd(av, b1));
    av = _mm512_set1_pd(a2[ka]);
    c20 = _mm512_add_pd(c20, _mm512_mul_pd(av, b0));
    c21 = _mm512_add_pd(c21, _mm512_mul_pd(av, b1));
    av = _mm512_set1_pd(a3[ka]);
    c30 = _mm512_add_pd(c30, _mm512_mul_pd(av, b0));
    c31 = _mm512_add_pd(c31, _mm512_mul_pd(av, b1));
  }
  _mm512_storeu_pd(c[0], c00);
  _mm512_storeu_pd(c[0] + 8, c01);
  _mm512_storeu_pd(c[1], c10);
  _mm512_storeu_pd(c[1] + 8, c11);
  _mm512_storeu_pd(c[2], c20);
  _mm512_storeu_pd(c[2] + 8, c21);
  _mm512_storeu_pd(c[3], c30);
  _mm512_storeu_pd(c[3] + 8, c31);
  // x - x is +0.0 for every finite x and NaN otherwise. The ORs run on
  // the integer view: AVX-512F has that form, the pd one needs DQ.
  const __m512d d[8] = {c00, c01, c10, c11, c20, c21, c30, c31};
  __m512i bits = _mm512_setzero_si512();
  for (__m512d x : d) {
    bits = _mm512_or_si512(bits, _mm512_castpd_si512(_mm512_sub_pd(x, x)));
  }
  return _mm512_test_epi64_mask(bits, bits) == 0;
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

// AVX2's table with the zmm tile: the row kernels stay 256-bit.
constexpr KernelFns kAvx512Fns = {
    gemm_tile_avx512,        axpy1_avx2,    add1_avx2,
    bias_elu_row_avx2,       gatv2_scores4_avx2,
    gatv2_backward_row_avx2, adam_row_avx2,
};

}  // namespace

const KernelFns* simd_table_for(Isa isa) {
  // The AVX-512 table runs AVX2 kernels too, so it needs both.
  const bool avx2 = __builtin_cpu_supports("avx2");
  if (isa == Isa::Avx2 && avx2) return &kAvx2Fns;
  if (isa == Isa::Avx512 && avx2 && __builtin_cpu_supports("avx512f")) {
    return &kAvx512Fns;
  }
  return nullptr;
}

#else

const KernelFns* simd_table_for(Isa) { return nullptr; }

#endif

}  // namespace mpidetect::ml::kernels::detail
