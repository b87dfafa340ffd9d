// Minimal dense row-major matrix — the numeric substrate of the GNN.
// Double precision throughout so finite-difference gradient checks in
// the test suite are meaningful.
//
// matmul, matmul_nt and matmul_tn run one packed, register-tiled
// micro-kernel (KernelFns::gemm_tile, ml/kernels.hpp): B is packed into
// kNr-column panels, the tile reads kMr rows of A in place (gathered
// into a panel only when the product leaves out a reduction step), and
// each kMr x kNr output tile accumulates in registers. The transposed
// variants only swap the strides the operands are read through, so no
// transposed temporary is ever materialized. Each output element
// accumulates k-ascending from 0.0 with separate multiply and add,
// exactly like the reference
// triple loop (matmul_naive, kept for tests and the perf-bench
// baseline), so the kernel is bit-identical to it on finite inputs on
// every dispatch target; a product that meets an Inf or a NaN is redone
// with matmul_naive's own loop, so non-finite values propagate exactly
// as there. That is what lets the paper protocol's
// training trajectory survive kernel changes unchanged.
//
// The autograd ops built on top keep the same rule one level up: a
// fused op may replace a chain of ops in single-graph training only if
// every value and every gradient sum is formed by the same operations
// in the same order (see ml/gnn.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace mpidetect::ml {

/// std::allocator that default-initialises: a vector sized through it
/// leaves its doubles unwritten where std::vector would zero them.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

class Matrix {
 public:
  using Storage = std::vector<double, DefaultInitAllocator<double>>;

  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix zeros(std::size_t r, std::size_t c) { return Matrix(r, c); }

  /// A matrix whose elements are left unwritten, for outputs the caller
  /// fills completely; reading an element before writing it is a bug.
  static Matrix uninit(std::size_t r, std::size_t c) {
    Matrix m;
    m.rows_ = r;
    m.cols_ = c;
    m.data_.resize(r * c);
    return m;
  }

  /// Glorot/Xavier-uniform initialisation (PyTorch Geometric's default
  /// for GATv2 weights).
  static Matrix glorot(std::size_t r, std::size_t c, Rng& rng);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool same_shape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  double& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  Storage& data() { return data_; }
  const Storage& data() const { return data_; }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  /// this += other (same shape).
  void add_in_place(const Matrix& o);
  /// this += s * other (fused scale-and-accumulate; same shape).
  void axpy_in_place(double s, const Matrix& o);

  /// \brief this (m x k) times `o` (k x n) -> (m x n).
  ///
  /// The packed micro-kernel, run on the calling thread. Terms that
  /// are exact zeros (all-zero rows of either operand, as backward
  /// gradients carry for nodes a relation never reaches) are skipped,
  /// which cannot change a finite sum starting at +0.0; a product that
  /// meets an Inf or a NaN is redone with matmul_naive's loop.
  /// Bit-identical to matmul_naive on every input.
  Matrix matmul(const Matrix& o) const;

  /// Reference triple-loop kernel (the seed implementation): the
  /// ground truth matmul is tested against, and the baseline the perf
  /// harness times (kernels::ScopedNaiveMatmul routes matmul here).
  Matrix matmul_naive(const Matrix& o) const;

  /// this (m x k) times `o`^T (n x k) -> (m x n), reading `o` through
  /// swapped strides. Bit-identical to matmul_naive(o.transpose()).
  Matrix matmul_nt(const Matrix& o) const;

  /// this^T (k x m) times `o` (m x n) -> (k x n), reading this through
  /// swapped strides. Bit-identical to transpose().matmul_naive(o).
  Matrix matmul_tn(const Matrix& o) const;

  Matrix transpose() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Storage data_;
};

}  // namespace mpidetect::ml
