#include "ml/autograd.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_set>

#include "ml/kernels.hpp"

namespace mpidetect::ml {

Matrix& VarNode::ensure_grad() {
  if (grad.rows() != value.rows() || grad.cols() != value.cols()) {
    grad = Matrix(value.rows(), value.cols());
  }
  return grad;
}

Var make_param(Matrix value) {
  auto v = std::make_shared<VarNode>(std::move(value));
  v->requires_grad = true;
  return v;
}

Var make_input(Matrix value) {
  return std::make_shared<VarNode>(std::move(value));
}

namespace {

thread_local bool t_grad_enabled = true;

/// A result node inherits requires_grad from any parent that has it;
/// under NoGradGuard the tape is not recorded at all.
Var make_result(Matrix value, std::vector<Var> parents,
                std::function<void(VarNode&)> backward_fn) {
  auto v = std::make_shared<VarNode>(std::move(value));
  if (!t_grad_enabled) return v;
  for (const Var& p : parents) v->requires_grad |= p->requires_grad;
  if (v->requires_grad) {
    v->parents = std::move(parents);
    v->backward_fn = std::move(backward_fn);
  }
  return v;
}

void topo_visit(VarNode* node, std::unordered_set<VarNode*>& seen,
                std::vector<VarNode*>& order) {
  if (!node->requires_grad) return;
  if (!seen.insert(node).second) return;
  for (const Var& p : node->parents) topo_visit(p.get(), seen, order);
  order.push_back(node);
}

/// Accumulates a freshly computed contribution into `node`'s gradient.
/// The first contribution adopts the buffer by move — most tape nodes
/// have exactly one consumer, making their whole accumulation free —
/// and later ones add element-wise. 0 + x equals x (up to the sign of
/// zero), so gradient magnitudes are unchanged. Baseline mode
/// (kernels::naive_matmul) keeps the seed's zero-then-add form so the
/// perf harness times the true pre-optimization path.
void accumulate_grad(VarNode& node, Matrix&& m) {
  if (!kernels::naive_matmul() && node.grad.size() == 0 &&
      node.value.same_shape(m)) {
    node.grad = std::move(m);
  } else {
    node.ensure_grad().add_in_place(m);
  }
}

/// Copy-accumulate variant for contributions the op does not own
/// (typically the node's own output gradient, shared across parents).
void accumulate_grad(VarNode& node, const Matrix& m) {
  if (!kernels::naive_matmul() && node.grad.size() == 0 &&
      node.value.same_shape(m)) {
    node.grad = m;
  } else {
    node.ensure_grad().add_in_place(m);
  }
}

/// Passes `self`'s gradient on unchanged to each of `to` that needs
/// one: a copy to all but the last, which takes the buffer itself. No
/// op reads a node's gradient once that node's backward has run.
void hand_down_grad(VarNode& self, std::span<const Var> to) {
  std::size_t last = to.size();
  while (last > 0 && !to[last - 1]->requires_grad) --last;
  for (std::size_t t = 0; t + 1 < last; ++t) {
    if (to[t]->requires_grad) accumulate_grad(*to[t], self.grad);
  }
  if (last == 0) return;
  accumulate_grad(*to[last - 1], std::move(self.grad));
  self.zero_grad();
}

/// node.grad[i] += term(i) for every element, allocating the gradient
/// on first use. A fresh buffer is not zero-filled first: it gets
/// 0.0 + term(i), the bits += gives on a zeroed buffer.
template <typename F>
void accumulate_each(VarNode& node, F term) {
  const std::size_t n = node.value.size();
  if (!node.grad.same_shape(node.value)) {
    node.grad = Matrix::uninit(node.value.rows(), node.value.cols());
    double* g = node.grad.data().data();
    for (std::size_t i = 0; i < n; ++i) g[i] = 0.0 + term(i);
    return;
  }
  double* g = node.grad.data().data();
  for (std::size_t i = 0; i < n; ++i) g[i] += term(i);
}

/// out[i] = f(a[i]) in one pass over a fresh matrix: the elementwise
/// ops never copy their input only to overwrite the copy.
template <typename F>
Matrix map(const Matrix& a, F f) {
  Matrix out = Matrix::uninit(a.rows(), a.cols());
  const double* src = a.data().data();
  double* dst = out.data().data();
  for (std::size_t i = 0; i < a.size(); ++i) dst[i] = f(src[i]);
  return out;
}

/// A per-thread index buffer of at least n entries, grown on demand and
/// reused by the next call. Growing it leaves the new entries unwritten,
/// so only the entries a caller writes take memory.
std::size_t* index_buffer(std::size_t n) {
  thread_local std::vector<std::size_t, DefaultInitAllocator<std::size_t>>
      buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

/// x > 0 ? a : b, picked by a mask on the bits instead of a branch.
double select_positive(double x, double a, double b) {
  const std::uint64_t keep = -static_cast<std::uint64_t>(x > 0);
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(a) & keep) |
                               (std::bit_cast<std::uint64_t>(b) & ~keep));
}

/// out[i] = a[i] + b[i] (same shapes).
void sum_into(Matrix& out, const Matrix& a, const Matrix& b) {
  const double* pa = a.data().data();
  const double* pb = b.data().data();
  double* dst = out.data().data();
  for (std::size_t i = 0; i < out.size(); ++i) dst[i] = pa[i] + pb[i];
}

/// dst[idx[e], :] += src[e, :], entries in order (rows of dst may
/// repeat in idx).
void scatter_add_into(Matrix& dst, const Matrix& src,
                      const std::vector<std::uint32_t>& idx) {
  const std::size_t cols = dst.cols();
  const kernels::KernelFns& fns = kernels::fns();
  for (std::size_t e = 0; e < idx.size(); ++e) {
    fns.add1(dst.row(idx[e]), src.row(e), cols);
  }
}

/// dst[e, :] += src[idx[e], :].
void gather_add_into(Matrix& dst, const Matrix& src,
                     const std::vector<std::uint32_t>& idx) {
  const std::size_t cols = dst.cols();
  const kernels::KernelFns& fns = kernels::fns();
  for (std::size_t e = 0; e < idx.size(); ++e) {
    fns.add1(dst.row(e), src.row(idx[e]), cols);
  }
}

}  // namespace

bool grad_enabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : prev_(t_grad_enabled) { t_grad_enabled = false; }

NoGradGuard::~NoGradGuard() { t_grad_enabled = prev_; }

void backward(const Var& root) {
  MPIDETECT_EXPECTS(root->value.rows() == 1 && root->value.cols() == 1);
  std::unordered_set<VarNode*> seen;
  std::vector<VarNode*> order;
  topo_visit(root.get(), seen, order);
  root->ensure_grad().at(0, 0) = 1.0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backward_fn) (*it)->backward_fn(**it);
  }
}

Var matmul(const Var& a, const Var& b) {
  Matrix out = a->value.matmul(b->value);
  return make_result(std::move(out), {a, b}, [a, b](VarNode& self) {
    if (a->requires_grad) {
      accumulate_grad(*a, self.grad.matmul_nt(b->value));
    }
    if (b->requires_grad) {
      accumulate_grad(*b, a->value.matmul_tn(self.grad));
    }
  });
}

Var transpose(const Var& a) {
  return make_result(a->value.transpose(), {a}, [a](VarNode& self) {
    if (a->requires_grad) {
      accumulate_grad(*a, self.grad.transpose());
    }
  });
}

Var add(const Var& a, const Var& b) {
  MPIDETECT_EXPECTS(a->value.same_shape(b->value));
  Matrix out = Matrix::uninit(a->value.rows(), a->value.cols());
  sum_into(out, a->value, b->value);
  return make_result(std::move(out), {a, b}, [](VarNode& self) {
    hand_down_grad(self, self.parents);
  });
}

Var add_row_broadcast(const Var& a, const Var& bias) {
  MPIDETECT_EXPECTS(bias->value.rows() == 1);
  MPIDETECT_EXPECTS(bias->value.cols() == a->value.cols());
  const std::size_t cols = a->value.cols();
  const double* b = bias->value.row(0);
  Matrix out = Matrix::uninit(a->value.rows(), cols);
  for (std::size_t i = 0; i < out.rows(); ++i) {
    const double* src = a->value.row(i);
    double* dst = out.row(i);
    for (std::size_t j = 0; j < cols; ++j) dst[j] = src[j] + b[j];
  }
  return make_result(std::move(out), {a, bias}, [a, bias](VarNode& self) {
    if (bias->requires_grad) {
      Matrix& g = bias->ensure_grad();
      double* grow = g.row(0);
      for (std::size_t i = 0; i < self.grad.rows(); ++i) {
        const double* src = self.grad.row(i);
        for (std::size_t j = 0; j < self.grad.cols(); ++j) grow[j] += src[j];
      }
    }
    hand_down_grad(self, {&a, 1});
  });
}

Var add_n(std::vector<Var> terms) {
  MPIDETECT_EXPECTS(!terms.empty());
  if (terms.size() == 1) return terms[0];
  for (const Var& t : terms) {
    MPIDETECT_EXPECTS(t->value.same_shape(terms[0]->value));
  }
  Matrix out = Matrix::uninit(terms[0]->value.rows(), terms[0]->value.cols());
  sum_into(out, terms[0]->value, terms[1]->value);
  for (std::size_t t = 2; t < terms.size(); ++t) {
    out.add_in_place(terms[t]->value);
  }
  return make_result(std::move(out), std::move(terms), [](VarNode& self) {
    hand_down_grad(self, self.parents);
  });
}

Var scale(const Var& a, double s) {
  Matrix out = map(a->value, [s](double x) { return x * s; });
  return make_result(std::move(out), {a}, [a, s](VarNode& self) {
    if (a->requires_grad) a->ensure_grad().axpy_in_place(s, self.grad);
  });
}

Var leaky_relu(const Var& a, double slope) {
  Matrix out =
      map(a->value, [slope](double x) { return x > 0 ? x : slope * x; });
  return make_result(std::move(out), {a}, [a, slope](VarNode& self) {
    if (!a->requires_grad) return;
    const double* x = a->value.data().data();
    const double* gy = self.grad.data().data();
    accumulate_each(*a, [&](std::size_t i) {
      return gy[i] * (x[i] > 0 ? 1.0 : slope);
    });
  });
}

// ELU takes no branch on a sign. A first pass over every element does
// the x > 0 side's work, as a copy forward and as a bit-mask select
// backward, and appends each index with !(x > 0) (the exp side, NaN
// included) to a list: every index is written, and the count moves
// past it only on that side. A second pass makes the libm call for the
// listed elements alone. Each element still takes exactly the
// operations of x > 0 ? x : expm1(x) forward and of
// g + gy * (x > 0 ? 1.0 : exp(x)) backward.
Var elu(const Var& a) {
  const std::size_t n = a->value.size();
  const double* x = a->value.data().data();
  Matrix out = Matrix::uninit(a->value.rows(), a->value.cols());
  double* y = out.data().data();
  std::size_t* neg = index_buffer(n);
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = x[i];
    neg[m] = i;
    m += !(x[i] > 0);
  }
  for (std::size_t j = 0; j < m; ++j) y[neg[j]] = std::expm1(x[neg[j]]);
  return make_result(std::move(out), {a}, [a](VarNode& self) {
    if (!a->requires_grad) return;
    const std::size_t n = a->value.size();
    const double* x = a->value.data().data();
    const double* gy = self.grad.data().data();
    // A fresh gradient is not zero-filled: the first pass reads its old
    // value as 0.0, so it gets 0.0 + term, the bits += gives on zeros.
    const bool fresh = !a->grad.same_shape(a->value);
    if (fresh) a->grad = Matrix::uninit(a->value.rows(), a->value.cols());
    double* g = a->grad.data().data();
    std::size_t* neg = index_buffer(n);
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double gi = fresh ? 0.0 : g[i];
      g[i] = select_positive(x[i], gi + gy[i] * 1.0, gi);
      neg[m] = i;
      m += !(x[i] > 0);
    }
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t i = neg[j];
      g[i] += gy[i] * std::exp(x[i]);
    }
  });
}

Var relu(const Var& a) { return leaky_relu(a, 0.0); }

Var bias_elu(const Var& a, const Var& bias) {
  MPIDETECT_EXPECTS(!grad_enabled());
  MPIDETECT_EXPECTS(bias->value.rows() == 1);
  MPIDETECT_EXPECTS(bias->value.cols() == a->value.cols());
  const std::size_t rows = a->value.rows();
  const std::size_t cols = a->value.cols();
  const double* b = bias->value.row(0);
  Matrix out(rows, cols);
  kernels::OpTimer timer(kernels::Op::BiasElu, 2 * rows * cols);
  const kernels::KernelFns& fns = kernels::fns();
  for (std::size_t i = 0; i < rows; ++i) {
    fns.bias_elu_row(out.row(i), a->value.row(i), b, cols);
  }
  return make_input(std::move(out));
}

Var gather_rows(const Var& a, std::vector<std::uint32_t> idx) {
  const std::size_t cols = a->value.cols();
  for (const std::uint32_t i : idx) MPIDETECT_EXPECTS(i < a->value.rows());
  Matrix out = Matrix::uninit(idx.size(), cols);
  kernels::OpTimer timer(kernels::Op::GatherRows, 0);
  for (std::size_t e = 0; e < idx.size(); ++e) {
    const double* src = a->value.row(idx[e]);
    std::copy(src, src + cols, out.row(e));
  }
  return make_result(
      std::move(out), {a}, [a, idx = std::move(idx)](VarNode& self) {
        if (!a->requires_grad) return;
        scatter_add_into(a->ensure_grad(), self.grad, idx);
      });
}

Var matmul_rows(const Var& a, const Var& b, std::vector<std::uint32_t> idx) {
  MPIDETECT_EXPECTS(a->value.cols() == b->value.rows());
  const std::size_t n = a->value.rows();
  const std::size_t cols = b->value.cols();
  // slot[i] = the row of the compact product holding (a b)[i].
  std::vector<std::uint32_t> slot(n, UINT32_MAX);
  std::vector<std::uint32_t> rows;
  for (const std::uint32_t i : idx) {
    MPIDETECT_EXPECTS(i < n);
    if (slot[i] == UINT32_MAX) {
      slot[i] = static_cast<std::uint32_t>(rows.size());
      rows.push_back(i);
    }
  }
  Matrix a_rows = Matrix::uninit(rows.size(), a->value.cols());
  for (std::size_t u = 0; u < rows.size(); ++u) {
    const double* src = a->value.row(rows[u]);
    std::copy(src, src + a->value.cols(), a_rows.row(u));
  }
  const Matrix product = a_rows.matmul(b->value);
  Matrix out = Matrix::uninit(idx.size(), cols);
  {
    kernels::OpTimer timer(kernels::Op::GatherRows, 0);
    for (std::size_t e = 0; e < idx.size(); ++e) {
      const double* src = product.row(slot[idx[e]]);
      std::copy(src, src + cols, out.row(e));
    }
  }
  return make_result(
      std::move(out), {a, b}, [a, b, idx = std::move(idx)](VarNode& self) {
        Matrix g(a->value.rows(), b->value.cols());
        scatter_add_into(g, self.grad, idx);
        if (a->requires_grad) accumulate_grad(*a, g.matmul_nt(b->value));
        if (b->requires_grad) accumulate_grad(*b, a->value.matmul_tn(g));
      });
}

Var scatter_add_rows(const Var& a, std::vector<std::uint32_t> idx,
                     std::size_t n_rows) {
  MPIDETECT_EXPECTS(idx.size() == a->value.rows());
  for (const std::uint32_t i : idx) MPIDETECT_EXPECTS(i < n_rows);
  Matrix out(n_rows, a->value.cols());
  scatter_add_into(out, a->value, idx);
  return make_result(
      std::move(out), {a}, [a, idx = std::move(idx)](VarNode& self) {
        if (!a->requires_grad) return;
        gather_add_into(a->ensure_grad(), self.grad, idx);
      });
}

Var segment_softmax(const Var& scores, std::vector<std::uint32_t> seg,
                    std::size_t n_segments) {
  MPIDETECT_EXPECTS(scores->value.cols() == 1);
  MPIDETECT_EXPECTS(seg.size() == scores->value.rows());
  const std::size_t n = seg.size();
  kernels::OpTimer timer(kernels::Op::SegmentSoftmax, 3 * n);
  // Numerically stable per-segment softmax.
  std::vector<double> seg_max(n_segments,
                              -std::numeric_limits<double>::infinity());
  for (std::size_t e = 0; e < n; ++e) {
    seg_max[seg[e]] = std::max(seg_max[seg[e]], scores->value.at(e, 0));
  }
  Matrix out = Matrix::uninit(n, 1);
  std::vector<double> seg_sum(n_segments, 0.0);
  for (std::size_t e = 0; e < n; ++e) {
    out.at(e, 0) = std::exp(scores->value.at(e, 0) - seg_max[seg[e]]);
    seg_sum[seg[e]] += out.at(e, 0);
  }
  for (std::size_t e = 0; e < n; ++e) out.at(e, 0) /= seg_sum[seg[e]];
  return make_result(
      std::move(out), {scores},
      [scores, seg = std::move(seg), n_segments](VarNode& self) {
        if (!scores->requires_grad) return;
        // ds_e = y_e * (g_e - sum_{e' in seg(e)} g_e' y_e')
        std::vector<double> seg_dot(n_segments, 0.0);
        const std::size_t n = seg.size();
        for (std::size_t e = 0; e < n; ++e) {
          seg_dot[seg[e]] += self.grad.at(e, 0) * self.value.at(e, 0);
        }
        Matrix& g = scores->ensure_grad();
        for (std::size_t e = 0; e < n; ++e) {
          g.at(e, 0) += self.value.at(e, 0) *
                        (self.grad.at(e, 0) - seg_dot[seg[e]]);
        }
      });
}

Var mul_rowwise(const Var& alpha, const Var& h) {
  MPIDETECT_EXPECTS(alpha->value.cols() == 1);
  MPIDETECT_EXPECTS(alpha->value.rows() == h->value.rows());
  const std::size_t cols = h->value.cols();
  Matrix out = Matrix::uninit(h->value.rows(), cols);
  for (std::size_t e = 0; e < out.rows(); ++e) {
    const double a = alpha->value.at(e, 0);
    const double* src = h->value.row(e);
    double* dst = out.row(e);
    for (std::size_t j = 0; j < cols; ++j) dst[j] = src[j] * a;
  }
  return make_result(std::move(out), {alpha, h}, [alpha, h](VarNode& self) {
    const std::size_t rows = self.value.rows();
    const std::size_t cols = self.value.cols();
    if (alpha->requires_grad) {
      Matrix& g = alpha->ensure_grad();
      for (std::size_t e = 0; e < rows; ++e) {
        double dot = 0.0;
        const double* gr = self.grad.row(e);
        const double* hr = h->value.row(e);
        for (std::size_t j = 0; j < cols; ++j) dot += gr[j] * hr[j];
        g.at(e, 0) += dot;
      }
    }
    if (h->requires_grad) {
      Matrix& g = h->ensure_grad();
      for (std::size_t e = 0; e < rows; ++e) {
        const double a = alpha->value.at(e, 0);
        const double* gr = self.grad.row(e);
        double* dst = g.row(e);
        for (std::size_t j = 0; j < cols; ++j) dst[j] += a * gr[j];
      }
    }
  });
}

namespace {

/// Row-index policies for the fused GATv2 ops: the plain variants read
/// entry e of an (E,d) operand, the gathered variants read through an
/// edge-index vector. One shared forward per op keeps the math in
/// exactly one place; only the plain (training) variants have a
/// backward.
struct DirectIx {
  std::size_t operator()(std::size_t e) const { return e; }
};
struct GatherIx {
  const std::uint32_t* idx;
  std::size_t operator()(std::size_t e) const { return idx[e]; }
};

template <typename LeftIx, typename RightIx>
Matrix gatv2_scores_value(const Var& hl, LeftIx li, const Var& hr, RightIx ri,
                          const Var& attn, double negative_slope,
                          std::size_t e_rows) {
  const std::size_t d = hl->value.cols();
  const double* av = attn->value.data().data();
  Matrix out = Matrix::uninit(e_rows, 1);
  kernels::OpTimer timer(kernels::Op::Gatv2Scores, 4 * e_rows * d);
  const kernels::KernelFns& fns = kernels::fns();
  std::size_t e = 0;
  // Four edges per pass: each SIMD lane is one edge's k-ascending
  // score accumulation (bit-identical to the per-edge loop below).
  for (; e + 4 <= e_rows; e += 4) {
    const double* l[4] = {hl->value.row(li(e)), hl->value.row(li(e + 1)),
                          hl->value.row(li(e + 2)), hl->value.row(li(e + 3))};
    const double* r[4] = {hr->value.row(ri(e)), hr->value.row(ri(e + 1)),
                          hr->value.row(ri(e + 2)), hr->value.row(ri(e + 3))};
    fns.gatv2_scores4(l, r, av, negative_slope, d, &out.at(e, 0));
  }
  for (; e < e_rows; ++e) {
    const double* l = hl->value.row(li(e));
    const double* r = hr->value.row(ri(e));
    double acc = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      const double t = l[k] + r[k];
      const double act = t > 0 ? t : negative_slope * t;
      acc += act * av[k];
    }
    out.at(e, 0) = acc;
  }
  return out;
}

template <typename SrcIx>
Matrix scatter_add_scaled_value(const Var& alpha, const Var& h, SrcIx si,
                                const std::vector<std::uint32_t>& dst,
                                std::size_t n_rows) {
  const std::size_t cols = h->value.cols();
  Matrix out(n_rows, cols);
  kernels::OpTimer timer(kernels::Op::ScatterAddScaled,
                         2 * dst.size() * cols);
  const kernels::KernelFns& fns = kernels::fns();
  for (std::size_t e = 0; e < dst.size(); ++e) {
    fns.axpy1(out.row(dst[e]), h->value.row(si(e)), alpha->value.at(e, 0),
              cols);
  }
  return out;
}

}  // namespace

Var gatv2_scores(const Var& hl, const Var& hr, const Var& attn,
                 double negative_slope) {
  MPIDETECT_EXPECTS(hl->value.same_shape(hr->value));
  MPIDETECT_EXPECTS(attn->value.rows() == hl->value.cols());
  MPIDETECT_EXPECTS(attn->value.cols() == 1);
  const std::size_t e_rows = hl->value.rows();
  Matrix out = gatv2_scores_value(hl, DirectIx{}, hr, DirectIx{}, attn,
                                  negative_slope, e_rows);
  return make_result(
      std::move(out), {hl, hr, attn},
      [hl, hr, attn, negative_slope, e_rows](VarNode& self) {
        const std::size_t d = hl->value.cols();
        const double* av = attn->value.data().data();
        // One dispatched row kernel per edge. A gradient nobody needs
        // goes to a scratch row that is never read.
        std::vector<double> scratch_lr, scratch_a;
        if (!hl->requires_grad || !hr->requires_grad) {
          scratch_lr.assign(d, 0.0);
        }
        if (!attn->requires_grad) scratch_a.assign(d, 0.0);
        Matrix* gl = hl->requires_grad ? &hl->ensure_grad() : nullptr;
        Matrix* gr = hr->requires_grad ? &hr->ensure_grad() : nullptr;
        double* ga = attn->requires_grad ? attn->ensure_grad().data().data()
                                         : scratch_a.data();
        const kernels::KernelFns& fns = kernels::fns();
        for (std::size_t e = 0; e < e_rows; ++e) {
          fns.gatv2_backward_row(
              hl->value.row(e), hr->value.row(e), av, self.grad.at(e, 0),
              negative_slope, d, gl != nullptr ? gl->row(e) : scratch_lr.data(),
              gr != nullptr ? gr->row(e) : scratch_lr.data(), ga);
        }
      });
}

Var scatter_add_scaled(const Var& alpha, const Var& h,
                       std::vector<std::uint32_t> idx, std::size_t n_rows) {
  MPIDETECT_EXPECTS(alpha->value.cols() == 1);
  MPIDETECT_EXPECTS(alpha->value.rows() == h->value.rows());
  MPIDETECT_EXPECTS(idx.size() == h->value.rows());
  for (const std::uint32_t i : idx) MPIDETECT_EXPECTS(i < n_rows);
  Matrix out = scatter_add_scaled_value(alpha, h, DirectIx{}, idx, n_rows);
  return make_result(
      std::move(out), {alpha, h},
      [alpha, h, idx = std::move(idx)](VarNode& self) {
        const std::size_t cols = h->value.cols();
        Matrix* ga = alpha->requires_grad ? &alpha->ensure_grad() : nullptr;
        Matrix* gh = h->requires_grad ? &h->ensure_grad() : nullptr;
        const kernels::KernelFns& fns = kernels::fns();
        for (std::size_t e = 0; e < idx.size(); ++e) {
          const double* gout = self.grad.row(idx[e]);
          if (ga != nullptr) {
            const double* s = h->value.row(e);
            double dot = 0.0;
            for (std::size_t j = 0; j < cols; ++j) dot += gout[j] * s[j];
            ga->at(e, 0) += dot;
          }
          if (gh != nullptr) {
            fns.axpy1(gh->row(e), gout, alpha->value.at(e, 0), cols);
          }
        }
      });
}

Var gatv2_scores_gathered(const Var& hl, std::vector<std::uint32_t> dst,
                          const Var& hr, std::vector<std::uint32_t> src,
                          const Var& attn, double negative_slope) {
  MPIDETECT_EXPECTS(!grad_enabled());
  MPIDETECT_EXPECTS(hl->value.cols() == hr->value.cols());
  MPIDETECT_EXPECTS(dst.size() == src.size());
  MPIDETECT_EXPECTS(attn->value.rows() == hl->value.cols());
  MPIDETECT_EXPECTS(attn->value.cols() == 1);
  for (const std::uint32_t i : dst) MPIDETECT_EXPECTS(i < hl->value.rows());
  for (const std::uint32_t i : src) MPIDETECT_EXPECTS(i < hr->value.rows());
  return make_input(gatv2_scores_value(hl, GatherIx{dst.data()}, hr,
                                       GatherIx{src.data()}, attn,
                                       negative_slope, dst.size()));
}

Var scatter_add_scaled_gathered(const Var& alpha, const Var& h,
                                std::vector<std::uint32_t> src,
                                std::vector<std::uint32_t> dst,
                                std::size_t n_rows) {
  MPIDETECT_EXPECTS(!grad_enabled());
  MPIDETECT_EXPECTS(alpha->value.cols() == 1);
  MPIDETECT_EXPECTS(alpha->value.rows() == src.size());
  MPIDETECT_EXPECTS(src.size() == dst.size());
  for (const std::uint32_t i : src) MPIDETECT_EXPECTS(i < h->value.rows());
  for (const std::uint32_t i : dst) MPIDETECT_EXPECTS(i < n_rows);
  return make_input(
      scatter_add_scaled_value(alpha, h, GatherIx{src.data()}, dst, n_rows));
}

Var max_pool_rows(const Var& a) {
  MPIDETECT_EXPECTS(a->value.rows() >= 1);
  const std::size_t cols = a->value.cols();
  Matrix out(1, cols);
  auto argmax = std::make_shared<std::vector<std::size_t>>(cols, 0);
  for (std::size_t j = 0; j < cols; ++j) {
    double best = a->value.at(0, j);
    for (std::size_t i = 1; i < a->value.rows(); ++i) {
      if (a->value.at(i, j) > best) {
        best = a->value.at(i, j);
        (*argmax)[j] = i;
      }
    }
    out.at(0, j) = best;
  }
  return make_result(std::move(out), {a}, [a, argmax](VarNode& self) {
    if (!a->requires_grad) return;
    Matrix& g = a->ensure_grad();
    for (std::size_t j = 0; j < g.cols(); ++j) {
      g.at((*argmax)[j], j) += self.grad.at(0, j);
    }
  });
}

Var segment_max_pool_rows(const Var& a, std::vector<std::uint32_t> seg,
                          std::size_t n_segments) {
  MPIDETECT_EXPECTS(!grad_enabled());
  MPIDETECT_EXPECTS(seg.size() == a->value.rows());
  MPIDETECT_EXPECTS(n_segments >= 1);
  const std::size_t cols = a->value.cols();
  Matrix out(n_segments, cols);
  // A segment's first row seeds its maximum; strict > afterwards, like
  // max_pool_rows.
  std::vector<bool> seen(n_segments, false);
  for (std::size_t e = 0; e < seg.size(); ++e) {
    const std::uint32_t s = seg[e];
    MPIDETECT_EXPECTS(s < n_segments);
    const double* src = a->value.row(e);
    double* dst = out.row(s);
    if (!seen[s]) {
      seen[s] = true;
      std::copy(src, src + cols, dst);
      continue;
    }
    for (std::size_t j = 0; j < cols; ++j) {
      if (src[j] > dst[j]) dst[j] = src[j];
    }
  }
  for (std::size_t s = 0; s < n_segments; ++s) {
    MPIDETECT_EXPECTS(seen[s]);  // every segment needs at least one row
  }
  return make_input(std::move(out));
}

std::vector<double> softmax_row(const Matrix& logits) {
  MPIDETECT_EXPECTS(logits.rows() == 1);
  std::vector<double> p(logits.cols());
  double mx = logits.at(0, 0);
  for (std::size_t j = 1; j < logits.cols(); ++j) {
    mx = std::max(mx, logits.at(0, j));
  }
  double sum = 0.0;
  for (std::size_t j = 0; j < logits.cols(); ++j) {
    p[j] = std::exp(logits.at(0, j) - mx);
    sum += p[j];
  }
  for (double& x : p) x /= sum;
  return p;
}

std::vector<std::vector<double>> softmax_rows(const Matrix& logits) {
  std::vector<std::vector<double>> out;
  out.reserve(logits.rows());
  const std::size_t cols = logits.cols();
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const double* row = logits.row(i);
    std::vector<double> p(cols);
    double mx = row[0];
    for (std::size_t j = 1; j < cols; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (std::size_t j = 0; j < cols; ++j) {
      p[j] = std::exp(row[j] - mx);
      sum += p[j];
    }
    for (double& x : p) x /= sum;
    out.push_back(std::move(p));
  }
  return out;
}

Var cross_entropy(const Var& logits, std::size_t label) {
  MPIDETECT_EXPECTS(logits->value.rows() == 1);
  MPIDETECT_EXPECTS(label < logits->value.cols());
  const std::vector<double> p = softmax_row(logits->value);
  Matrix out(1, 1);
  out.at(0, 0) = -std::log(std::max(p[label], 1e-300));
  return make_result(std::move(out), {logits}, [logits, p,
                                                label](VarNode& self) {
    if (!logits->requires_grad) return;
    Matrix& g = logits->ensure_grad();
    const double d = self.grad.at(0, 0);
    for (std::size_t j = 0; j < p.size(); ++j) {
      g.at(0, j) += d * (p[j] - (j == label ? 1.0 : 0.0));
    }
  });
}

}  // namespace mpidetect::ml
