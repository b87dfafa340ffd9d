// Kernel execution policy for the dense-math substrate (ml/matrix.hpp)
// and the autograd gather/scatter ops: the matmul micro-kernel's tile
// shape, the baseline switch that routes Matrix::matmul through the
// seed's naive triple loop for before/after measurements
// (bench/perf_gnn), the runtime SIMD dispatch table (AVX2 inner kernels
// and an AVX-512 matmul tile, with a scalar fallback), and the per-op
// profiling counters surfaced by bench/perf_gnn and the daemon's STATS
// frame.
//
// Every kernel runs on the thread that calls it. Parallelism lives one
// level up — CV folds and cases on EvalEngine's pool, encoding on a
// one-shot parallel_for — so a kernel's result never depends on how
// many threads the process has. The SIMD kernels vectorize only across
// independent output elements (never across a reduction) and use
// separate multiply and add instructions (never FMA), so every dispatch
// target is bit-identical to the scalar reference on the fp path.
//
// Bit-identity at the kernel level is what makes fusion safe one level
// up: the fused GATv2 ops run in single-graph training only in the form
// whose per-element operations and gradient groupings equal the seed
// chain's (gatv2_scores / scatter_add_scaled over gathered (E,d)
// rows). The gathered variants regroup gradient sums and bias_elu
// derives the ELU derivative differently, so those stay off the
// paper-protocol training path (ml/gnn.cpp explains both).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace mpidetect::ml::kernels {

/// Register tile of the packed matmul micro-kernel (KernelFns::gemm_tile):
/// kMr output rows x kNr output columns accumulate in registers while
/// the reduction streams through kMr rows of A and a packed panel of B.
/// One tile shape for every dispatch target keeps one packing layout:
/// AVX-512 holds a tile row in two zmm registers, AVX2 sweeps the panel
/// as two 8-wide halves.
inline constexpr std::size_t kMr = 4;
inline constexpr std::size_t kNr = 16;

// ---- runtime SIMD dispatch --------------------------------------------------

/// The instruction-set target a kernel call runs on. Detected once per
/// process; Scalar is always available and is what every other target
/// is tested against for bit-identity.
enum class Isa : std::uint8_t { Scalar = 0, Avx2 = 1, Avx512 = 2 };

const char* isa_name(Isa isa);

/// Whether this build and the running CPU can run `isa` (Scalar always).
bool cpu_supports(Isa isa);

/// The CPU's best supported target, probed once (cached). The
/// MPIDETECT_FORCE_SCALAR=1 environment variable pins this to Scalar
/// for the whole process (the CI fallback job).
Isa detected_isa();

/// The target kernel calls on THIS thread dispatch to right now:
/// detected_isa() unless a ScopedIsa override is active.
Isa active_isa();

struct KernelFns;

/// Thread-local override of the dispatch target: while it lives, kernel
/// calls on the constructing thread run `isa`'s table. The perf
/// harness times the scalar baseline with it, and tests run one input
/// under every target inside one process. `isa` must be supported
/// (cpu_supports).
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa);
  ~ScopedIsa();
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  Isa prev_isa_;
  const KernelFns* prev_fns_;
};

/// The per-step scalars of one Adam update (ml/adam.hpp): bc1/bc2 are
/// the bias corrections 1 - beta^t.
struct AdamCoeffs {
  double lr, beta1, beta2, eps, bc1, bc2;
};

/// \brief The dispatched inner-kernel table. Every function preserves
/// the scalar reference's per-output-element operation order and uses
/// unaligned loads/stores — Matrix buffers are std::vector storage with
/// no 32- or 64-byte alignment guarantee (see docs/PERFORMANCE.md,
/// "Alignment").
///
/// gemm_tile: the matmul micro-kernel. `a` holds kMr row pointers read
/// at k-stride `as` (A[r][k] = a[r][k*as]): rows read in place from a
/// matrix have its own k-stride (1 for a row-major matrix, its column
/// count for the columns of a transposed one), and a gathered panel has
/// a[r] = panel + r and as = kMr. `bp` is a packed B panel
/// (bp[k*kNr + j] = B[k][j]). It writes c[r][j] = sum_k A[r][k]*B[k][j]
/// for the whole kMr x kNr tile through kMr output row pointers, each
/// element accumulated k-ascending from 0.0 with separate multiply and
/// add — matmul_naive's order, so bit-identical to it on finite inputs
/// — and returns whether every element of the tile is finite.
/// axpy1: o[j] += a*b[j] (the fused aggregation). add1: o[j] += b[j].
/// bias_elu_row: dst[j] = elu(src[j] + bias[j]) with the scalar
/// std::expm1 on negative lanes. gatv2_scores4: four edges' attention
/// scores, lanes independent, k-ascending.
/// gatv2_backward_row: one edge's share of the score backward over its
/// d features, gl[k] += dt and gr[k] += dt with dt = ge*av[k]*lrelu'(t),
/// ga[k] += lrelu(t)*ge for t = l[k] + r[k]; gl and gr may be the same
/// row (it then takes dt twice), otherwise gl, gr and ga must not
/// overlap. adam_row: one Adam update of n parameters from their
/// gradients, which it then zeroes; division and square root are
/// correctly rounded on every target, so lanes match the scalar loop
/// exactly.
struct KernelFns {
  bool (*gemm_tile)(const double* const* a, std::size_t as,
                    const double* bp, std::size_t K, double* const* c);
  void (*axpy1)(double* o, const double* b, double a, std::size_t n);
  void (*add1)(double* o, const double* b, std::size_t n);
  void (*bias_elu_row)(double* dst, const double* src, const double* bias,
                       std::size_t n);
  void (*gatv2_scores4)(const double* const* l, const double* const* r,
                        const double* av, double slope, std::size_t d,
                        double* out);
  void (*gatv2_backward_row)(const double* l, const double* r,
                             const double* av, double ge, double slope,
                             std::size_t d, double* gl, double* gr,
                             double* ga);
  void (*adam_row)(double* p, double* m, double* v, double* g,
                   std::size_t n, const AdamCoeffs& c);
};

/// The kernel table for active_isa() (honors ScopedIsa overrides).
const KernelFns& fns();

/// The table for a specific target, which must be supported
/// (cpu_supports); tests iterate targets explicitly with it.
const KernelFns& fns_for(Isa isa);

namespace detail {
/// The table for one SIMD target, or nullptr when this build/CPU cannot
/// run it (implemented in kernels_simd.cpp).
const KernelFns* simd_table_for(Isa isa);
/// The scalar reference table (implemented in kernels.cpp); SIMD tables
/// borrow its entries where a target has no kernel of its own.
extern const KernelFns kScalarFns;
}  // namespace detail

// ---- per-op profiling counters ----------------------------------------------

/// The profiled operation classes of the autograd tape.
/// Nested ops (matmul_tn packs through matmul; backward fused ops call
/// matmul) are attributed to the OUTERMOST op only.
enum class Op : std::uint8_t {
  Matmul = 0,
  MatmulNt,
  MatmulTn,
  BiasElu,
  Gatv2Scores,
  ScatterAddScaled,
  GatherRows,
  SegmentSoftmax,
};
inline constexpr std::size_t kNumOps = 8;

const char* op_name(Op op);

struct OpStats {
  std::uint64_t calls = 0;
  std::uint64_t flops = 0;  // multiply-add count x2 (0 for pure movement)
  std::uint64_t ns = 0;     // wall time inside the op, calling thread
};

/// Snapshot of the process-wide counters (relaxed atomics: cheap on the
/// hot path, eventually-consistent under concurrency — fine for
/// profiling).
std::array<OpStats, kNumOps> op_counters();

void reset_op_counters();

/// RAII op scope: counts one call + flops and accumulates wall ns at
/// destruction. Nested timers (an op implemented via another op) are
/// inert, so each kernel invocation is counted exactly once.
class OpTimer {
 public:
  OpTimer(Op op, std::uint64_t flops);
  ~OpTimer();
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  Op op_;
  std::uint64_t flops_;
  bool active_;
  std::chrono::steady_clock::time_point t0_;
};

/// \brief Whether Matrix::matmul routes through the seed's naive triple
/// loop (thread-local; default false).
///
/// The switch exists so the perf harness can time the pre-optimization
/// path in the same binary; it is not a correctness knob — naive and
/// packed products are bit-identical on every input.
bool naive_matmul();

/// Sets the calling thread's naive-matmul flag (see naive_matmul).
void set_naive_matmul(bool on);

/// RAII override of the calling thread's naive-matmul flag.
class ScopedNaiveMatmul {
 public:
  explicit ScopedNaiveMatmul(bool on);
  ~ScopedNaiveMatmul();
  ScopedNaiveMatmul(const ScopedNaiveMatmul&) = delete;
  ScopedNaiveMatmul& operator=(const ScopedNaiveMatmul&) = delete;

 private:
  bool prev_;
};

// ---- inert thread-budget names ----------------------------------------------
// Kernels have no thread budget; these exist only so perfbench/, which
// compiles against src/ and still names them, keeps building. Nothing
// else may use them.
inline unsigned kernel_threads() { return 1; }
inline unsigned effective_threads(unsigned) { return 1; }
struct ScopedKernelThreads {
  explicit ScopedKernelThreads(unsigned) {}
};

}  // namespace mpidetect::ml::kernels
