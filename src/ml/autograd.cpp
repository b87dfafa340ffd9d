#include "ml/autograd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

/// dst[idx[e], :] += src[e, :]. Rows of dst may repeat in idx, so the
/// parallel split is over column ranges: each worker owns a disjoint
/// column slice and walks all entries in order — race-free and
/// bit-identical to the serial loop.
void scatter_add_into(Matrix& dst, const Matrix& src,
                      const std::vector<std::uint32_t>& idx) {
  const std::size_t cols = dst.cols();
  const bool parallel = idx.size() * cols >= kernels::kParallelMinElems;
  const kernels::KernelFns& fns = kernels::fns();
  kernels::parallel_ranges(cols, parallel, [&](std::size_t c0,
                                               std::size_t c1) {
    for (std::size_t e = 0; e < idx.size(); ++e) {
      double* d = dst.row(idx[e]);
      const double* s = src.row(e);
      fns.add1(d + c0, s + c0, c1 - c0);
    }
  });
}

/// dst[e, :] += src[idx[e], :]. Output rows are distinct, so the
/// parallel split is over entry ranges.
void gather_add_into(Matrix& dst, const Matrix& src,
                     const std::vector<std::uint32_t>& idx) {
  const std::size_t cols = dst.cols();
  const bool parallel = idx.size() * cols >= kernels::kParallelMinElems;
  const kernels::KernelFns& fns = kernels::fns();
  kernels::parallel_ranges(idx.size(), parallel, [&](std::size_t e0,
                                                     std::size_t e1) {
    for (std::size_t e = e0; e < e1; ++e) {
      fns.add1(dst.row(e), src.row(idx[e]), cols);
    }
  });
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
  Matrix out = a->value;
  out.add_in_place(b->value);
  return make_result(std::move(out), {a, b}, [a, b](VarNode& self) {
    if (a->requires_grad) accumulate_grad(*a, self.grad);
    if (b->requires_grad) accumulate_grad(*b, self.grad);
  });
}

Var add_row_broadcast(const Var& a, const Var& bias) {
  MPIDETECT_EXPECTS(bias->value.rows() == 1);
  MPIDETECT_EXPECTS(bias->value.cols() == a->value.cols());
  Matrix out = a->value;
  out.add_row_in_place(bias->value);
  return make_result(std::move(out), {a, bias}, [a, bias](VarNode& self) {
    if (a->requires_grad) accumulate_grad(*a, self.grad);
    if (bias->requires_grad) {
      Matrix& g = bias->ensure_grad();
      double* grow = g.row(0);
      for (std::size_t i = 0; i < self.grad.rows(); ++i) {
        const double* src = self.grad.row(i);
        for (std::size_t j = 0; j < self.grad.cols(); ++j) grow[j] += src[j];
      }
    }
  });
}

Var add_n(std::vector<Var> terms) {
  MPIDETECT_EXPECTS(!terms.empty());
  if (terms.size() == 1) return terms[0];
  Matrix out = terms[0]->value;
  for (std::size_t t = 1; t < terms.size(); ++t) {
    MPIDETECT_EXPECTS(out.same_shape(terms[t]->value));
    out.add_in_place(terms[t]->value);
  }
  std::vector<Var> parents = terms;
  return make_result(
      std::move(out), std::move(parents),
      [terms = std::move(terms)](VarNode& self) {
        for (const Var& t : terms) {
          if (t->requires_grad) accumulate_grad(*t, self.grad);
        }
      });
}

Var scale(const Var& a, double s) {
  Matrix out = a->value;
  for (double& x : out.data()) x *= s;
  return make_result(std::move(out), {a}, [a, s](VarNode& self) {
    if (a->requires_grad) a->ensure_grad().axpy_in_place(s, self.grad);
  });
}

Var leaky_relu(const Var& a, double slope) {
  Matrix out = a->value;
  for (double& x : out.data()) x = x > 0 ? x : slope * x;
  return make_result(std::move(out), {a}, [a, slope](VarNode& self) {
    if (!a->requires_grad) return;
    Matrix& g = a->ensure_grad();
    for (std::size_t i = 0; i < g.size(); ++i) {
      g.data()[i] +=
          self.grad.data()[i] * (a->value.data()[i] > 0 ? 1.0 : slope);
    }
  });
}

Var elu(const Var& a) {
  Matrix out = a->value;
  for (double& x : out.data()) x = x > 0 ? x : std::expm1(x);
  return make_result(std::move(out), {a}, [a](VarNode& self) {
    if (!a->requires_grad) return;
    Matrix& g = a->ensure_grad();
    for (std::size_t i = 0; i < g.size(); ++i) {
      const double x = a->value.data()[i];
      g.data()[i] += self.grad.data()[i] * (x > 0 ? 1.0 : std::exp(x));
    }
  });
}

Var relu(const Var& a) { return leaky_relu(a, 0.0); }

Var bias_elu(const Var& a, const Var& bias) {
  MPIDETECT_EXPECTS(bias->value.rows() == 1);
  MPIDETECT_EXPECTS(bias->value.cols() == a->value.cols());
  const std::size_t rows = a->value.rows();
  const std::size_t cols = a->value.cols();
  const double* b = bias->value.row(0);
  Matrix out(rows, cols);
  {
    kernels::OpTimer timer(kernels::Op::BiasElu, 2 * rows * cols);
    const kernels::KernelFns& fns = kernels::fns();
    for (std::size_t i = 0; i < rows; ++i) {
      fns.bias_elu_row(out.row(i), a->value.row(i), b, cols);
    }
  }
  return make_result(
      std::move(out), {a, bias}, [a, bias](VarNode& self) {
        const std::size_t rows = a->value.rows();
        const std::size_t cols = a->value.cols();
        Matrix* ga = a->requires_grad ? &a->ensure_grad() : nullptr;
        Matrix* gb = bias->requires_grad ? &bias->ensure_grad() : nullptr;
        double* gbrow = gb != nullptr ? gb->row(0) : nullptr;
        for (std::size_t i = 0; i < rows; ++i) {
          // elu'(t) = exp(t) = expm1(t) + 1 on the negative branch, and
          // the forward already stored expm1(t) as the output — reusing
          // it avoids one exp per element (within 1 ulp of exp(t)).
          const double* outrow = self.value.row(i);
          const double* grow = self.grad.row(i);
          double* garow = ga != nullptr ? ga->row(i) : nullptr;
          for (std::size_t j = 0; j < cols; ++j) {
            const double o = outrow[j];
            const double d = grow[j] * (o > 0 ? 1.0 : o + 1.0);
            if (garow != nullptr) garow[j] += d;
            if (gbrow != nullptr) gbrow[j] += d;
          }
        }
      });
}

Var gather_rows(const Var& a, std::vector<std::uint32_t> idx) {
  const std::size_t cols = a->value.cols();
  for (const std::uint32_t i : idx) MPIDETECT_EXPECTS(i < a->value.rows());
  Matrix out(idx.size(), cols);
  kernels::OpTimer timer(kernels::Op::GatherRows, 0);
  const bool parallel = idx.size() * cols >= kernels::kParallelMinElems;
  kernels::parallel_ranges(idx.size(), parallel, [&](std::size_t e0,
                                                     std::size_t e1) {
    for (std::size_t e = e0; e < e1; ++e) {
      const double* src = a->value.row(idx[e]);
      std::copy(src, src + cols, out.row(e));
    }
  });
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
  Matrix a_rows(rows.size(), a->value.cols());
  for (std::size_t u = 0; u < rows.size(); ++u) {
    const double* src = a->value.row(rows[u]);
    std::copy(src, src + a->value.cols(), a_rows.row(u));
  }
  const Matrix product = a_rows.matmul(b->value);
  Matrix out(idx.size(), cols);
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
  Matrix out(n, 1);
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
  Matrix out = h->value;
  out.scale_rows_in_place(alpha->value);
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
/// edge-index vector. One shared implementation per op keeps the
/// forward/backward math in exactly one place.
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
  Matrix out(e_rows, 1);
  kernels::OpTimer timer(kernels::Op::Gatv2Scores, 4 * e_rows * d);
  const bool parallel = e_rows * d >= kernels::kParallelMinElems;
  const kernels::KernelFns& fns = kernels::fns();
  kernels::parallel_ranges(e_rows, parallel, [&](std::size_t e0,
                                                 std::size_t e1) {
    std::size_t e = e0;
    // Four edges per pass: each SIMD lane is one edge's k-ascending
    // score accumulation (bit-identical to the per-edge loop below).
    for (; e + 4 <= e1; e += 4) {
      const double* l[4] = {hl->value.row(li(e)), hl->value.row(li(e + 1)),
                            hl->value.row(li(e + 2)),
                            hl->value.row(li(e + 3))};
      const double* r[4] = {hr->value.row(ri(e)), hr->value.row(ri(e + 1)),
                            hr->value.row(ri(e + 2)),
                            hr->value.row(ri(e + 3))};
      fns.gatv2_scores4(l, r, av, negative_slope, d, &out.at(e, 0));
    }
    for (; e < e1; ++e) {
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
  });
  return out;
}

template <typename LeftIx, typename RightIx>
void gatv2_scores_backward(VarNode& self, const Var& hl, LeftIx li,
                           const Var& hr, RightIx ri, const Var& attn,
                           double negative_slope, std::size_t e_rows) {
  const std::size_t d = hl->value.cols();
  const double* av = attn->value.data().data();
  // One dispatched row kernel per edge. A gradient nobody needs goes to
  // a scratch row that is never read.
  std::vector<double> scratch_lr, scratch_a;
  if (!hl->requires_grad || !hr->requires_grad) scratch_lr.assign(d, 0.0);
  if (!attn->requires_grad) scratch_a.assign(d, 0.0);
  Matrix* gl = hl->requires_grad ? &hl->ensure_grad() : nullptr;
  Matrix* gr = hr->requires_grad ? &hr->ensure_grad() : nullptr;
  double* ga = attn->requires_grad ? attn->ensure_grad().data().data()
                                   : scratch_a.data();
  const kernels::KernelFns& fns = kernels::fns();
  for (std::size_t e = 0; e < e_rows; ++e) {
    fns.gatv2_backward_row(
        hl->value.row(li(e)), hr->value.row(ri(e)), av, self.grad.at(e, 0),
        negative_slope, d, gl != nullptr ? gl->row(li(e)) : scratch_lr.data(),
        gr != nullptr ? gr->row(ri(e)) : scratch_lr.data(), ga);
  }
}

template <typename SrcIx>
Matrix scatter_add_scaled_value(const Var& alpha, const Var& h, SrcIx si,
                                const std::vector<std::uint32_t>& dst,
                                std::size_t n_rows) {
  const std::size_t cols = h->value.cols();
  Matrix out(n_rows, cols);
  kernels::OpTimer timer(kernels::Op::ScatterAddScaled,
                         2 * dst.size() * cols);
  const bool parallel = dst.size() * cols >= kernels::kParallelMinElems;
  const kernels::KernelFns& fns = kernels::fns();
  kernels::parallel_ranges(cols, parallel, [&](std::size_t c0,
                                               std::size_t c1) {
    for (std::size_t e = 0; e < dst.size(); ++e) {
      const double a = alpha->value.at(e, 0);
      const double* s = h->value.row(si(e));
      double* o = out.row(dst[e]);
      fns.axpy1(o + c0, s + c0, a, c1 - c0);
    }
  });
  return out;
}

template <typename SrcIx>
void scatter_add_scaled_backward(VarNode& self, const Var& alpha, const Var& h,
                                 SrcIx si,
                                 const std::vector<std::uint32_t>& dst) {
  const std::size_t cols = h->value.cols();
  Matrix* ga = alpha->requires_grad ? &alpha->ensure_grad() : nullptr;
  Matrix* gh = h->requires_grad ? &h->ensure_grad() : nullptr;
  const kernels::KernelFns& fns = kernels::fns();
  for (std::size_t e = 0; e < dst.size(); ++e) {
    const double* gout = self.grad.row(dst[e]);
    if (ga != nullptr) {
      const double* s = h->value.row(si(e));
      double dot = 0.0;
      for (std::size_t j = 0; j < cols; ++j) dot += gout[j] * s[j];
      ga->at(e, 0) += dot;
    }
    if (gh != nullptr) {
      fns.axpy1(gh->row(si(e)), gout, alpha->value.at(e, 0), cols);
    }
  }
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
        gatv2_scores_backward(self, hl, DirectIx{}, hr, DirectIx{}, attn,
                              negative_slope, e_rows);
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
        scatter_add_scaled_backward(self, alpha, h, DirectIx{}, idx);
      });
}

Var gatv2_scores_gathered(const Var& hl, std::vector<std::uint32_t> dst,
                          const Var& hr, std::vector<std::uint32_t> src,
                          const Var& attn, double negative_slope) {
  MPIDETECT_EXPECTS(hl->value.cols() == hr->value.cols());
  MPIDETECT_EXPECTS(dst.size() == src.size());
  MPIDETECT_EXPECTS(attn->value.rows() == hl->value.cols());
  MPIDETECT_EXPECTS(attn->value.cols() == 1);
  for (const std::uint32_t i : dst) MPIDETECT_EXPECTS(i < hl->value.rows());
  for (const std::uint32_t i : src) MPIDETECT_EXPECTS(i < hr->value.rows());
  const std::size_t e_rows = dst.size();
  Matrix out = gatv2_scores_value(hl, GatherIx{dst.data()}, hr,
                                  GatherIx{src.data()}, attn, negative_slope,
                                  e_rows);
  return make_result(
      std::move(out), {hl, hr, attn},
      [hl, hr, attn, negative_slope, dst = std::move(dst),
       src = std::move(src)](VarNode& self) {
        gatv2_scores_backward(self, hl, GatherIx{dst.data()}, hr,
                              GatherIx{src.data()}, attn, negative_slope,
                              dst.size());
      });
}

Var scatter_add_scaled_gathered(const Var& alpha, const Var& h,
                                std::vector<std::uint32_t> src,
                                std::vector<std::uint32_t> dst,
                                std::size_t n_rows) {
  MPIDETECT_EXPECTS(alpha->value.cols() == 1);
  MPIDETECT_EXPECTS(alpha->value.rows() == src.size());
  MPIDETECT_EXPECTS(src.size() == dst.size());
  for (const std::uint32_t i : src) MPIDETECT_EXPECTS(i < h->value.rows());
  for (const std::uint32_t i : dst) MPIDETECT_EXPECTS(i < n_rows);
  Matrix out =
      scatter_add_scaled_value(alpha, h, GatherIx{src.data()}, dst, n_rows);
  return make_result(
      std::move(out), {alpha, h},
      [alpha, h, src = std::move(src), dst = std::move(dst)](VarNode& self) {
        scatter_add_scaled_backward(self, alpha, h, GatherIx{src.data()}, dst);
      });
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
  MPIDETECT_EXPECTS(seg.size() == a->value.rows());
  MPIDETECT_EXPECTS(n_segments >= 1);
  const std::size_t cols = a->value.cols();
  Matrix out(n_segments, cols);
  // argmax[s * cols + j] = the first row of segment s that attains the
  // column maximum (strict >, matching max_pool_rows tie-breaking).
  auto argmax = std::make_shared<std::vector<std::uint32_t>>(
      n_segments * cols, std::uint32_t{0});
  std::vector<bool> seen(n_segments, false);
  for (std::size_t e = 0; e < seg.size(); ++e) {
    const std::uint32_t s = seg[e];
    MPIDETECT_EXPECTS(s < n_segments);
    const double* src = a->value.row(e);
    double* dst = out.row(s);
    std::uint32_t* am = argmax->data() + s * cols;
    if (!seen[s]) {
      seen[s] = true;
      std::copy(src, src + cols, dst);
      std::fill(am, am + cols, static_cast<std::uint32_t>(e));
      continue;
    }
    for (std::size_t j = 0; j < cols; ++j) {
      if (src[j] > dst[j]) {
        dst[j] = src[j];
        am[j] = static_cast<std::uint32_t>(e);
      }
    }
  }
  for (std::size_t s = 0; s < n_segments; ++s) {
    MPIDETECT_EXPECTS(seen[s]);  // every segment needs at least one row
  }
  return make_result(
      std::move(out), {a}, [a, argmax, n_segments](VarNode& self) {
        if (!a->requires_grad) return;
        Matrix& g = a->ensure_grad();
        const std::size_t cols = g.cols();
        for (std::size_t s = 0; s < n_segments; ++s) {
          const std::uint32_t* am = argmax->data() + s * cols;
          const double* grow = self.grad.row(s);
          for (std::size_t j = 0; j < cols; ++j) {
            g.row(am[j])[j] += grow[j];
          }
        }
      });
}

Var segment_mean_pool_rows(const Var& a, std::vector<std::uint32_t> seg,
                           std::size_t n_segments) {
  MPIDETECT_EXPECTS(seg.size() == a->value.rows());
  MPIDETECT_EXPECTS(n_segments >= 1);
  const std::size_t cols = a->value.cols();
  Matrix out(n_segments, cols);
  auto counts = std::make_shared<std::vector<double>>(n_segments, 0.0);
  for (std::size_t e = 0; e < seg.size(); ++e) {
    const std::uint32_t s = seg[e];
    MPIDETECT_EXPECTS(s < n_segments);
    ++(*counts)[s];
    const double* src = a->value.row(e);
    double* dst = out.row(s);
    for (std::size_t j = 0; j < cols; ++j) dst[j] += src[j];
  }
  for (std::size_t s = 0; s < n_segments; ++s) {
    MPIDETECT_EXPECTS((*counts)[s] > 0);  // no empty segments
    double* dst = out.row(s);
    for (std::size_t j = 0; j < cols; ++j) dst[j] /= (*counts)[s];
  }
  return make_result(
      std::move(out), {a},
      [a, counts, seg = std::move(seg)](VarNode& self) {
        if (!a->requires_grad) return;
        Matrix& g = a->ensure_grad();
        const std::size_t cols = g.cols();
        for (std::size_t e = 0; e < seg.size(); ++e) {
          const double inv = 1.0 / (*counts)[seg[e]];
          const double* grow = self.grad.row(seg[e]);
          double* dst = g.row(e);
          for (std::size_t j = 0; j < cols; ++j) dst[j] += inv * grow[j];
        }
      });
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

Var cross_entropy_rows(const Var& logits, std::vector<std::size_t> labels) {
  const std::size_t b = logits->value.rows();
  MPIDETECT_EXPECTS(b >= 1);
  MPIDETECT_EXPECTS(labels.size() == b);
  for (const std::size_t l : labels) {
    MPIDETECT_EXPECTS(l < logits->value.cols());
  }
  const auto probs =
      std::make_shared<std::vector<std::vector<double>>>(
          softmax_rows(logits->value));
  Matrix out(1, 1);
  double loss = 0.0;
  for (std::size_t i = 0; i < b; ++i) {
    loss += -std::log(std::max((*probs)[i][labels[i]], 1e-300));
  }
  out.at(0, 0) = loss / static_cast<double>(b);
  return make_result(
      std::move(out), {logits},
      [logits, probs, labels = std::move(labels)](VarNode& self) {
        if (!logits->requires_grad) return;
        Matrix& g = logits->ensure_grad();
        const double d =
            self.grad.at(0, 0) / static_cast<double>(labels.size());
        for (std::size_t i = 0; i < labels.size(); ++i) {
          const std::vector<double>& p = (*probs)[i];
          double* grow = g.row(i);
          for (std::size_t j = 0; j < p.size(); ++j) {
            grow[j] += d * (p[j] - (j == labels[i] ? 1.0 : 0.0));
          }
        }
      });
}

}  // namespace mpidetect::ml
