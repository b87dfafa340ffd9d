// Reverse-mode automatic differentiation over dense matrices with the
// gather/scatter/segment operations graph neural networks need. The op
// set is exactly what the GATv2 pipeline uses. Training records a tape
// over one graph per step; every op on that path has its backward
// validated by finite differences in tests/autograd_test.cpp and
// tests/batched_gnn_test.cpp.
//
// Inference runs under a NoGradGuard: ops compute the same values but
// skip tape construction (no parents, no backward closures), which is
// what GnnModel's predict paths use. A few fused ops serve only those
// paths (the gathered GATv2 ops, bias_elu, segment pooling); they have
// no backward at all and reject a call in grad mode with a
// ContractViolation, so a gradient is never silently dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ml/matrix.hpp"

namespace mpidetect::ml {

struct VarNode;
using Var = std::shared_ptr<VarNode>;

/// A node of the dynamically built computation graph.
struct VarNode {
  Matrix value;
  Matrix grad;                     // same shape as value, lazily allocated
  bool requires_grad = false;
  std::vector<Var> parents;        // kept alive for the backward pass
  std::function<void(VarNode&)> backward_fn;  // accumulates into parents

  explicit VarNode(Matrix v) : value(std::move(v)) {}

  /// The gradient buffer, allocated (zeroed, same shape as value) on
  /// first use.
  Matrix& ensure_grad();
  void zero_grad() { grad = Matrix(); }
};

/// Leaf with gradients (a trainable parameter).
Var make_param(Matrix value);
/// Leaf without gradients (an input).
Var make_input(Matrix value);

/// \brief Whether ops currently record the tape (thread-local; default
/// true). Under `false`, every op behaves as if its inputs did not
/// require gradients: same values, no parents, no backward closures.
bool grad_enabled();

/// RAII scope that disables tape recording on the calling thread — the
/// inference mode of the GNN's predict paths.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

/// Runs reverse-mode accumulation from a scalar (1x1) root.
void backward(const Var& root);

// --- ops -------------------------------------------------------------------

/// Matrix product. Backward uses the fused transposed kernels
/// (Matrix::matmul_nt / matmul_tn), so no transpose is materialized.
Var matmul(const Var& a, const Var& b);
Var transpose(const Var& a);
Var add(const Var& a, const Var& b);                 // same shape
Var add_row_broadcast(const Var& a, const Var& bias); // (N,d)+(1,d)
Var scale(const Var& a, double s);
/// Left-to-right sum of same-shaped terms: (((t0+t1)+t2)+...).
/// Bit-identical to the equivalent add() chain while materializing one
/// result instead of k-1 intermediates. Needs at least one term.
Var add_n(std::vector<Var> terms);
Var leaky_relu(const Var& a, double negative_slope = 0.2);
Var elu(const Var& a);
Var relu(const Var& a);

/// out[e] = a[idx[e]]  (rows).
Var gather_rows(const Var& a, std::vector<std::uint32_t> idx);

/// \brief gather_rows(matmul(a, b), idx) as one op: out[e] = (a b)[idx[e]].
///
/// Only the product rows idx reads are computed (each is the same
/// k-ascending dot products, so values are bit-identical). The backward
/// is the two-op chain's, step for step: the (E,d) gradient is scattered
/// into an (N,d) buffer in edge order, then the matmul backward runs on
/// it, so gradients are bit-identical too. GATv2 reads few of a
/// relation's node transforms, so this skips most of the forward work.
Var matmul_rows(const Var& a, const Var& b, std::vector<std::uint32_t> idx);
/// out[idx[e]] += a[e], entries in order; result has n_rows rows.
Var scatter_add_rows(const Var& a, std::vector<std::uint32_t> idx,
                     std::size_t n_rows);
/// Softmax over the entries of each segment: scores is (E,1), seg[e]
/// names the segment of entry e (e.g. the edge's target node).
Var segment_softmax(const Var& scores, std::vector<std::uint32_t> seg,
                    std::size_t n_segments);
/// Row-wise scaling: out[e] = alpha[e,0] * h[e,:].
Var mul_rowwise(const Var& alpha, const Var& h);

/// \brief Fused GATv2 edge scoring:
/// out[e] = sum_k leaky_relu(hl[e,k] + hr[e,k]) * attn[k]  -> (E,1).
///
/// One pass instead of the add -> leaky_relu -> matmul chain: the two
/// (E,d) intermediates are never materialized (the backward recomputes
/// the cheap pre-activation on the fly). Per-element operations and
/// their order are exactly the unfused chain's, so scores — and
/// gradients — are bit-identical to it.
Var gatv2_scores(const Var& hl, const Var& hr, const Var& attn,
                 double negative_slope = 0.2);

/// \brief Fused row-broadcast bias + ELU: out[i,j] = elu(a[i,j] +
/// bias[0,j]). One pass instead of the add_row_broadcast -> elu chain;
/// per-element operations match the unfused chain, so values are
/// bit-identical. Inference only: requires !grad_enabled().
Var bias_elu(const Var& a, const Var& bias);

/// \brief Fused attention-weighted message aggregation:
/// out[idx[e], :] += alpha[e,0] * h[e, :]; result has n_rows rows.
///
/// One pass instead of mul_rowwise -> scatter_add_rows: the scaled
/// (E,d) message matrix is never materialized. Bit-identical to the
/// unfused chain.
Var scatter_add_scaled(const Var& alpha, const Var& h,
                       std::vector<std::uint32_t> idx, std::size_t n_rows);

/// \brief Fully-gathered GATv2 edge scoring:
/// out[e] = sum_k leaky_relu(hl[dst[e],k] + hr[src[e],k]) * attn[k].
///
/// Like gatv2_scores but reading the node-level transforms through the
/// edge indices on the fly, so the (E,d) gathered copies are never
/// materialized either. Bit-identical to
/// gatv2_scores(gather_rows(hl, dst), gather_rows(hr, src), attn).
/// Inference only: requires !grad_enabled().
Var gatv2_scores_gathered(const Var& hl, std::vector<std::uint32_t> dst,
                          const Var& hr, std::vector<std::uint32_t> src,
                          const Var& attn, double negative_slope = 0.2);

/// \brief Fully-gathered attention-weighted aggregation:
/// out[dst[e], :] += alpha[e,0] * h[src[e], :]; result has n_rows rows.
///
/// Like scatter_add_scaled but reading the source rows through the edge
/// indices, so the gathered (E,d) copy of h is never materialized.
/// Bit-identical to scatter_add_scaled(alpha, gather_rows(h, src), dst,
/// n_rows). Inference only: requires !grad_enabled().
Var scatter_add_scaled_gathered(const Var& alpha, const Var& h,
                                std::vector<std::uint32_t> src,
                                std::vector<std::uint32_t> dst,
                                std::size_t n_rows);
/// Column-wise max over rows -> (1,d); the GNN's adaptive max pooling.
Var max_pool_rows(const Var& a);

/// \brief Per-segment column-wise max: out[s,j] = max over rows e with
/// seg[e] == s of a[e,j] -> (n_segments, d).
///
/// The batched form of max_pool_rows: with seg[e] the graph id of node
/// e, one call pools every graph of a disjoint-union batch. Every
/// segment must own at least one row. For n_segments == 1 the result
/// equals max_pool_rows exactly. Inference only: requires
/// !grad_enabled().
Var segment_max_pool_rows(const Var& a, std::vector<std::uint32_t> seg,
                          std::size_t n_segments);

/// Cross-entropy of a (1,C) logits row against an integer label; (1,1).
Var cross_entropy(const Var& logits, std::size_t label);

/// Softmax probabilities of a (1,C) logits row (inference only).
std::vector<double> softmax_row(const Matrix& logits);

/// Row-wise softmax probabilities of (B,C) logits (inference only);
/// row b of the result is softmax_row of logits row b.
std::vector<std::vector<double>> softmax_rows(const Matrix& logits);

}  // namespace mpidetect::ml
