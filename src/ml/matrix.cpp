#include "ml/matrix.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "ml/kernels.hpp"

namespace mpidetect::ml {

Matrix Matrix::glorot(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  const double bound = std::sqrt(6.0 / static_cast<double>(r + c));
  for (double& x : m.data_) x = rng.uniform(-bound, bound);
  return m;
}

void Matrix::add_in_place(const Matrix& o) {
  MPIDETECT_EXPECTS(same_shape(o));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
}

void Matrix::axpy_in_place(double s, const Matrix& o) {
  MPIDETECT_EXPECTS(same_shape(o));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += s * o.data_[i];
}

Matrix Matrix::matmul_naive(const Matrix& o) const {
  MPIDETECT_EXPECTS(cols_ == o.rows_);
  Matrix out(rows_, o.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = at(i, k);
      if (a == 0.0) continue;
      const double* brow = o.row(k);
      double* orow = out.row(i);
      for (std::size_t j = 0; j < o.cols_; ++j) orow[j] += a * brow[j];
    }
  }
  return out;
}

namespace {

/// A read-only operand addressed through strides: element (i, k) is
/// p[i * rs + k * cs]. The transposed products read their operands in
/// place through swapped strides instead of materializing a transpose.
struct Strided {
  const double* p;
  std::size_t rs, cs;
};

/// Per-thread buffers, grown on demand and reused by every later
/// product on that thread: the packed panels and the kept k indices.
template <typename T, int Slot>
std::vector<T>& thread_buffer(std::size_t n) {
  thread_local std::vector<T> buf;
  if (buf.size() < n) buf.resize(n);
  return buf;
}

/// Zero exactly when every x[i * stride], i < n, is finite: x - x is
/// +0.0 for a finite x and NaN for an Inf or a NaN. A contiguous run
/// takes its own loop, which the compiler vectorizes.
std::uint64_t nonfinite_bits(const double* x, std::size_t n,
                             std::size_t stride) {
  const auto bits_of = [](double v) {
    const double z = v - v;
    std::uint64_t b;
    std::memcpy(&b, &z, sizeof b);
    return b;
  };
  std::uint64_t bits = 0;
  if (stride == 1) {
    for (std::size_t i = 0; i < n; ++i) bits |= bits_of(x[i]);
  } else {
    for (std::size_t i = 0; i < n; ++i) bits |= bits_of(x[i * stride]);
  }
  return bits;
}

/// The index of the first of x[0], x[stride], ..., x[(n - 1) * stride]
/// that is not +-0.0 (a NaN counts as nonzero), or n if there is none.
/// A contiguous run is tested eight at a time, OR-ing their bits with
/// the sign shifted out, so it takes one branch per eight values; the
/// scan still stops at the chunk holding the first nonzero.
std::size_t first_nonzero(const double* x, std::size_t n,
                          std::size_t stride) {
  std::size_t i = 0;
  if (stride == 1) {
    for (; i + 8 <= n; i += 8) {
      std::uint64_t bits = 0;
      for (std::size_t j = 0; j < 8; ++j) {
        std::uint64_t b;
        std::memcpy(&b, x + i + j, sizeof b);
        bits |= b << 1;
      }
      if (bits != 0) break;
    }
  }
  while (i < n && x[i * stride] == 0.0) ++i;
  return i;
}

/// matmul_naive's loop over strided operands: out (M x N) = A * B,
/// skipping zero A coefficients.
Matrix naive_matmul(std::size_t M, std::size_t N, std::size_t K, Strided a,
                    Strided b) {
  Matrix out(M, N);
  for (std::size_t i = 0; i < M; ++i) {
    double* o = out.row(i);
    for (std::size_t k = 0; k < K; ++k) {
      const double av = a.p[i * a.rs + k * a.cs];
      if (av == 0.0) continue;
      const double* s = b.p + k * b.rs;
      for (std::size_t j = 0; j < N; ++j) o[j] += av * s[j * b.cs];
    }
  }
  return out;
}

/// Copies n <= kNr doubles. A full row is a fixed-width loop, which
/// compiles to a few vector moves where std::copy calls memmove.
void copy_row(const double* s, double* d, std::size_t n) {
  if (n == kernels::kNr) {
    for (std::size_t j = 0; j < kernels::kNr; ++j) d[j] = s[j];
    return;
  }
  for (std::size_t j = 0; j < n; ++j) d[j] = s[j];
}

/// out (M x N) = A (M x K) * B (K x N) through the packed micro-kernel.
///
/// B is packed once into column panels of kNr; then rows of A are taken
/// kMr at a time and swept across every column panel, one kMr x kNr
/// register tile at a time. When every reduction step is kept, the tile
/// reads A's rows in place through A's own k-stride; a product that
/// left out a step gathers each row's kept coefficients into a panel
/// the tile reads at stride kMr. Every output element accumulates its
/// products k-ascending from 0.0 with separate multiply and add, like
/// matmul_naive. Two kinds of term are left out, and both are exact
/// zeros, which cannot change a finite sum that starts at +0.0:
/// reduction steps whose B row is all zero, and rows of A that are all
/// zero (their output row is written +0.0, as matmul_naive leaves it).
/// Backward gradients are mostly such rows — nodes a relation never
/// reaches — so this skips most of their work.
///
/// Inf and NaN break that argument in two places: an A coefficient met
/// only by a left-out zero B row (Inf * 0 is NaN in matmul_naive), and
/// a B value met by a zero A coefficient, which matmul_naive skips and
/// the tile multiplies. The first is checked directly; the second makes
/// its tile non-finite (once a sum is non-finite it stays so), which
/// gemm_tile reports. Either sends the product through matmul_naive's
/// own loop, so the result is bit-identical to matmul_naive on every
/// input and on every dispatch target.
Matrix packed_matmul(std::size_t M, std::size_t N, std::size_t K, Strided a,
                     Strided b) {
  using kernels::kMr;
  using kernels::kNr;
  std::vector<std::size_t>& ks = thread_buffer<std::size_t, 0>(K);
  std::size_t kc = 0;
  std::uint64_t dropped_bits = 0;  // A's coefficients at left-out steps
  for (std::size_t k = 0; k < K; ++k) {
    if (first_nonzero(b.p + k * b.rs, N, b.cs) < N) {
      ks[kc++] = k;
      continue;
    }
    dropped_bits |= nonfinite_bits(a.p + k * a.cs, M, a.rs);
  }
  if (dropped_bits != 0) return naive_matmul(M, N, K, a, b);
  if (M == 0 || N == 0 || kc == 0) return Matrix(M, N);

  const std::size_t col_panels = (N + kNr - 1) / kNr;
  std::vector<double>& bp = thread_buffer<double, 1>(col_panels * kc * kNr);
  for (std::size_t p = 0; p < col_panels; ++p) {
    const std::size_t j0 = p * kNr;
    const std::size_t nc = std::min(kNr, N - j0);
    double* d = bp.data() + p * kc * kNr;
    for (std::size_t kk = 0; kk < kc; ++kk, d += kNr) {
      const double* s = b.p + ks[kk] * b.rs + j0 * b.cs;
      if (b.cs == 1) {
        copy_row(s, d, nc);
      } else {
        for (std::size_t j = 0; j < nc; ++j) d[j] = s[j * b.cs];
      }
      for (std::size_t j = nc; j < kNr; ++j) d[j] = 0.0;
    }
  }

  const bool in_place = kc == K;
  const std::size_t as = in_place ? a.cs : kMr;
  double* ap = in_place ? nullptr : thread_buffer<double, 2>(kc * kMr).data();
  Matrix out = Matrix::uninit(M, N);
  const kernels::KernelFns& fns = kernels::fns();
  bool tiles_finite = true;
  const double* arows[kMr];
  std::size_t rows[kMr] = {};
  std::size_t mr = 0;  // rows taken into the current tile
  std::size_t zeros_from = 0;  // the first row after the last taken one
  const auto flush = [&] {
    if (!in_place) {  // gather the kept coefficients, step by step
      for (std::size_t kk = 0; kk < kc; ++kk) {
        const std::size_t off = ks[kk] * a.cs;
        for (std::size_t r = 0; r < mr; ++r) ap[kk * kMr + r] = arows[r][off];
      }
      for (std::size_t r = 0; r < mr; ++r) arows[r] = ap + r;
    }
    // A partial tile repeats its first row. The repeats' results are
    // never copied out, and they are finite exactly when that row's are.
    for (std::size_t r = mr; r < kMr; ++r) arows[r] = arows[0];
    // A full panel writes straight into the output rows. A partial one
    // writes into `tile`, and so do a partial tile's repeated rows.
    double tile[kMr * kNr];
    double* crows[kMr];
    for (std::size_t p = 0; p < col_panels; ++p) {
      const std::size_t j0 = p * kNr;
      const std::size_t nc = std::min(kNr, N - j0);
      for (std::size_t r = 0; r < kMr; ++r) {
        crows[r] =
            r < mr && nc == kNr ? out.row(rows[r]) + j0 : tile + r * kNr;
      }
      tiles_finite &=
          fns.gemm_tile(arows, as, bp.data() + p * kc * kNr, kc, crows);
      if (nc == kNr) continue;
      for (std::size_t r = 0; r < mr; ++r) {
        copy_row(tile + r * kNr, out.row(rows[r]) + j0, nc);
      }
    }
    mr = 0;
  };
  for (std::size_t i = 0; i < M; ++i) {
    const double* s = a.p + i * a.rs;
    std::size_t kk = 0;
    if (in_place) {
      kk = first_nonzero(s, kc, a.cs);
    } else {
      while (kk < kc && s[ks[kk] * a.cs] == 0.0) ++kk;
    }
    if (kk == kc) continue;  // no nonzero coefficient: the row is +0.0
    // Rows since the last taken one were all-zero: zero them in one go.
    std::fill(out.row(zeros_from), out.row(i), 0.0);
    zeros_from = i + 1;
    arows[mr] = s;
    rows[mr++] = i;
    if (mr == kMr) flush();
  }
  if (mr > 0) flush();
  std::fill(out.row(zeros_from), out.data().data() + M * N, 0.0);
  if (!tiles_finite) return naive_matmul(M, N, K, a, b);
  return out;
}

}  // namespace

Matrix Matrix::matmul(const Matrix& o) const {
  MPIDETECT_EXPECTS(cols_ == o.rows_);
  kernels::OpTimer timer(kernels::Op::Matmul,
                         2 * rows_ * cols_ * o.cols_);
  if (kernels::naive_matmul()) return matmul_naive(o);
  return packed_matmul(rows_, o.cols_, cols_, {data_.data(), cols_, 1},
                       {o.data_.data(), o.cols_, 1});
}

Matrix Matrix::matmul_nt(const Matrix& o) const {
  MPIDETECT_EXPECTS(cols_ == o.cols_);
  kernels::OpTimer timer(kernels::Op::MatmulNt,
                         2 * rows_ * cols_ * o.rows_);
  // Baseline mode reproduces the seed's backward exactly: materialized
  // transpose + naive kernel.
  if (kernels::naive_matmul()) return matmul_naive(o.transpose());
  return packed_matmul(rows_, o.rows_, cols_, {data_.data(), cols_, 1},
                       {o.data_.data(), 1, o.cols_});
}

Matrix Matrix::matmul_tn(const Matrix& o) const {
  MPIDETECT_EXPECTS(rows_ == o.rows_);
  kernels::OpTimer timer(kernels::Op::MatmulTn,
                         2 * rows_ * cols_ * o.cols_);
  if (kernels::naive_matmul()) return transpose().matmul_naive(o);
  return packed_matmul(cols_, o.cols_, rows_, {data_.data(), 1, cols_},
                       {o.data_.data(), o.cols_, 1});
}

Matrix Matrix::transpose() const {
  Matrix out = Matrix::uninit(cols_, rows_);
  // Tiled copy: a naive row sweep touches one destination cache line
  // per element; walking 16x16 blocks keeps both source and destination
  // lines hot. Pure data movement, so results are unchanged.
  constexpr std::size_t kTile = 16;
  for (std::size_t ii = 0; ii < rows_; ii += kTile) {
    const std::size_t iend = std::min(rows_, ii + kTile);
    for (std::size_t jj = 0; jj < cols_; jj += kTile) {
      const std::size_t jend = std::min(cols_, jj + kTile);
      for (std::size_t i = ii; i < iend; ++i) {
        const double* src = row(i);
        for (std::size_t j = jj; j < jend; ++j) {
          out.at(j, i) = src[j];
        }
      }
    }
  }
  return out;
}

}  // namespace mpidetect::ml
