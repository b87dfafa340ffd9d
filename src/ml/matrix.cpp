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

void Matrix::add_row_in_place(const Matrix& bias) {
  MPIDETECT_EXPECTS(bias.rows_ == 1 && bias.cols_ == cols_);
  const double* b = bias.data_.data();
  for (std::size_t i = 0; i < rows_; ++i) {
    double* r = row(i);
    for (std::size_t j = 0; j < cols_; ++j) r[j] += b[j];
  }
}

void Matrix::scale_rows_in_place(const Matrix& alpha) {
  MPIDETECT_EXPECTS(alpha.rows_ == rows_ && alpha.cols_ == 1);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double a = alpha.data_[i];
    double* r = row(i);
    for (std::size_t j = 0; j < cols_; ++j) r[j] *= a;
  }
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
/// +0.0 for a finite x and NaN for an Inf or a NaN.
std::uint64_t nonfinite_bits(const double* x, std::size_t n,
                             std::size_t stride) {
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double z = x[i * stride] - x[i * stride];
    std::uint64_t b;
    std::memcpy(&b, &z, sizeof b);
    bits |= b;
  }
  return bits;
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

/// out (M x N) = A (M x K) * B (K x N) through the packed micro-kernel.
///
/// B is packed once into column panels of kNr; then rows of A are
/// packed kMr at a time into a row panel and swept across every column
/// panel, one kMr x kNr register tile at a time. Every output element
/// accumulates its products k-ascending from 0.0 with separate multiply
/// and add, like matmul_naive. Two kinds of term are left out, and both
/// are exact zeros, which cannot change a finite sum that starts at
/// +0.0: reduction steps whose B row is all zero, and rows of A that
/// are all zero (their output row stays +0.0, as matmul_naive leaves
/// it). Backward gradients are mostly such rows — nodes a relation
/// never reaches — so this skips most of their work.
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
  Matrix out(M, N);
  std::vector<std::size_t>& ks = thread_buffer<std::size_t, 0>(K);
  std::size_t kc = 0;
  std::uint64_t dropped_bits = 0;  // A's coefficients at left-out steps
  for (std::size_t k = 0; k < K; ++k) {
    const double* s = b.p + k * b.rs;
    std::size_t j = 0;
    while (j < N && s[j * b.cs] == 0.0) ++j;
    if (j < N) {
      ks[kc++] = k;
      continue;
    }
    dropped_bits |= nonfinite_bits(a.p + k * a.cs, M, a.rs);
  }
  if (dropped_bits != 0) return naive_matmul(M, N, K, a, b);
  if (M == 0 || N == 0 || kc == 0) return out;

  const std::size_t col_panels = (N + kNr - 1) / kNr;
  std::vector<double>& bp = thread_buffer<double, 1>(col_panels * kc * kNr);
  for (std::size_t p = 0; p < col_panels; ++p) {
    const std::size_t j0 = p * kNr;
    const std::size_t nc = std::min(kNr, N - j0);
    double* d = bp.data() + p * kc * kNr;
    for (std::size_t kk = 0; kk < kc; ++kk, d += kNr) {
      const double* s = b.p + ks[kk] * b.rs + j0 * b.cs;
      if (b.cs == 1) {
        std::copy(s, s + nc, d);
      } else {
        for (std::size_t j = 0; j < nc; ++j) d[j] = s[j * b.cs];
      }
      std::fill(d + nc, d + kNr, 0.0);
    }
  }

  const kernels::KernelFns& fns = kernels::fns();
  bool tiles_finite = true;
  double* ap = thread_buffer<double, 2>(kc * kMr).data();
  std::size_t rows[kMr] = {};
  std::size_t mr = 0;  // rows packed into the current panel
  const auto flush = [&] {
    for (std::size_t kk = 0; kk < kc; ++kk) {
      std::fill(ap + kk * kMr + mr, ap + (kk + 1) * kMr, 0.0);
    }
    const bool dense = mr == kMr && rows[kMr - 1] == rows[0] + kMr - 1;
    double tile[kMr * kNr];
    for (std::size_t p = 0; p < col_panels; ++p) {
      const std::size_t j0 = p * kNr;
      const std::size_t nc = std::min(kNr, N - j0);
      const double* panel = bp.data() + p * kc * kNr;
      if (dense && nc == kNr) {
        tiles_finite &= fns.gemm_tile(ap, panel, kc, out.row(rows[0]) + j0, N);
        continue;
      }
      tiles_finite &= fns.gemm_tile(ap, panel, kc, tile, kNr);
      for (std::size_t r = 0; r < mr; ++r) {
        std::copy(tile + r * kNr, tile + r * kNr + nc, out.row(rows[r]) + j0);
      }
    }
    mr = 0;
  };
  for (std::size_t i = 0; i < M; ++i) {
    const double* s = a.p + i * a.rs;
    double* d = ap + mr;
    bool nonzero = false;
    if (kc == K && a.cs == 1) {  // every k kept, row contiguous
      for (std::size_t k = 0; k < K; ++k) {
        d[k * kMr] = s[k];
        nonzero |= s[k] != 0.0;
      }
    } else {
      for (std::size_t kk = 0; kk < kc; ++kk) {
        const double v = s[ks[kk] * a.cs];
        d[kk * kMr] = v;
        nonzero |= v != 0.0;
      }
    }
    if (!nonzero) continue;  // the next row reuses the slot
    rows[mr++] = i;
    if (mr == kMr) flush();
  }
  if (mr > 0) flush();
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
  Matrix out(cols_, rows_);
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
