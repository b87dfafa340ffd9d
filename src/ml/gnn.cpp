// GnnModel: forward passes, training steps and inference.
//
// Single-graph training (batch_size 1, the paper protocol) must
// reproduce the seed pipeline's parameters bit for bit, so it uses a
// fused op only where every value and every gradient sum comes from the
// same operations in the same order as the seed chain:
//  - gatv2_scores and scatter_add_scaled on the gathered (E,d) copies
//    hl_t / hr_s (the DirectIx form in ml/autograd.cpp). Forward, they
//    apply the add -> LeakyReLU -> matmul and mul_rowwise ->
//    scatter_add_rows chains' per-element operations in the chains'
//    order. Backward, each edge's score and message gradients land in
//    that edge's own (E,d) gradient row, as in the seed; gather_rows'
//    backward then scatters those rows into the node gradients in edge
//    order, unchanged.
//  - matmul_rows for the seed's gather_rows(matmul(x, W), idx): it
//    computes only the product rows some edge reads (most nodes have no
//    edge of a given relation) and runs the chain's backward unchanged.
//    Every path transforms its sparse relations this way.
//  - add_n, which sums the terms left to right like the seed's add
//    chain.
// Two fused forms stay on the batched and inference paths only:
//  - the gathered variants (GatherIx) add each op's edge gradients
//    straight into the node rows, one op after the other, where the
//    seed first sums an edge's score and message gradients in its
//    (E,d) row and then scatters — a different grouping of the same
//    terms;
//  - bias_elu, whose backward takes elu'(t) from the stored output as
//    expm1(t) + 1 where the seed computes exp(t); the two can differ in
//    the last bit.
#include "ml/gnn.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "support/check.hpp"

namespace mpidetect::ml {

GnnModel::GnnModel(const GnnConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed), optimizer_({}, cfg.lr) {
  MPIDETECT_EXPECTS(!cfg.layers.empty());
  MPIDETECT_EXPECTS(cfg.classes >= 2);

  embedding_ = make_param(Matrix::glorot(cfg.vocab, cfg.embed_dim, rng_));
  params_.push_back(embedding_);

  std::size_t d_in = cfg.embed_dim;
  for (const std::size_t d_out : cfg.layers) {
    Layer layer;
    for (std::size_t r = 0; r < programl::kNumEdgeTypes; ++r) {
      RelationWeights w;
      w.w_left = make_param(Matrix::glorot(d_in, d_out, rng_));
      w.w_right = make_param(Matrix::glorot(d_in, d_out, rng_));
      w.attn = make_param(Matrix::glorot(d_out, 1, rng_));
      params_.push_back(w.w_left);
      params_.push_back(w.w_right);
      params_.push_back(w.attn);
      layer.rel.push_back(std::move(w));
    }
    layer.w_self = make_param(Matrix::glorot(d_in, d_out, rng_));
    layer.bias = make_param(Matrix(1, d_out));
    params_.push_back(layer.w_self);
    params_.push_back(layer.bias);
    layers_.push_back(std::move(layer));
    d_in = d_out;
  }

  fc1_w_ = make_param(Matrix::glorot(d_in, cfg.fc_hidden, rng_));
  fc1_b_ = make_param(Matrix(1, cfg.fc_hidden));
  fc2_w_ = make_param(Matrix::glorot(cfg.fc_hidden, cfg.classes, rng_));
  fc2_b_ = make_param(Matrix(1, cfg.classes));
  params_.push_back(fc1_w_);
  params_.push_back(fc1_b_);
  params_.push_back(fc2_w_);
  params_.push_back(fc2_b_);

  optimizer_ = Adam(params_, cfg.lr);
  init_rng_ = rng_;
}

std::size_t GnnModel::parameter_count() const {
  std::size_t n = 0;
  for (const Var& p : params_) n += p->value.size();
  return n;
}

std::vector<const Matrix*> GnnModel::parameters() const {
  std::vector<const Matrix*> out;
  out.reserve(params_.size());
  for (const Var& p : params_) out.push_back(&p->value);
  return out;
}

void GnnModel::set_parameters(std::vector<Matrix> values) {
  MPIDETECT_EXPECTS(values.size() == params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    MPIDETECT_EXPECTS(params_[i]->value.same_shape(values[i]));
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    params_[i]->value = std::move(values[i]);
    params_[i]->zero_grad();
  }
  // Training history must not leak into the next fit(): fresh Adam
  // moments and step count, and the shuffle stream a freshly built
  // model starts from.
  optimizer_ = Adam(params_, cfg_.lr);
  rng_ = init_rng_;
}

Var GnnModel::forward_impl(
    std::span<const std::uint32_t> tokens,
    const std::array<std::vector<programl::Edge>,
                     programl::kNumEdgeTypes>& all_edges,
    const std::vector<std::uint32_t>* segments, std::size_t n_segments) {
  MPIDETECT_EXPECTS(!tokens.empty());
  const std::size_t n = tokens.size();

  // The batched engine and all inference may regroup gradient sums;
  // single-graph training (the paper protocol) may not.
  const bool fast_path = !grad_enabled() || segments != nullptr;

  // Token embedding lookup.
  Var x = gather_rows(embedding_, {tokens.begin(), tokens.end()});

  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    // Self path (plays the role of GATv2's self loops), then one GATv2
    // message-passing pass per relation; add_n sums the terms left to
    // right, bit-identical to the seed's add chain (HeteroConv).
    std::vector<Var> terms{matmul(x, layer.w_self)};
    for (std::size_t r = 0; r < programl::kNumEdgeTypes; ++r) {
      const auto& edges = all_edges[r];
      if (edges.empty()) continue;
      std::vector<std::uint32_t> src(edges.size());
      std::vector<std::uint32_t> dst(edges.size());
      for (std::size_t e = 0; e < edges.size(); ++e) {
        src[e] = edges[e].src;
        dst[e] = edges[e].dst;
      }
      const RelationWeights& w = layer.rel[r];
      // Every path scores and aggregates with the fused GATv2 ops, so
      // no (E,d) pre-activation or message matrix is materialized.
      if (fast_path && 2 * edges.size() >= n) {
        // The batched engine and all inference read the node transforms
        // through the edge indices, so not even the gathered (E,d)
        // copies exist.
        Var h_left = matmul(x, w.w_left);    // (N, d_out)
        Var h_right = matmul(x, w.w_right);  // (N, d_out)
        Var scores = gatv2_scores_gathered(h_left, dst, h_right, src,
                                           w.attn);  // (E, 1)
        Var alpha = segment_softmax(scores, dst, n);
        terms.push_back(
            scatter_add_scaled_gathered(alpha, h_right, src, dst, n));
        continue;
      }
      // (E, d_out): W_l h_t and W_r h_s per edge. The seed's
      // transform-then-gather, computing only the node rows the edges
      // read (sparse relations such as call edges touch few nodes).
      Var hl_t = matmul_rows(x, w.w_left, dst);
      Var hr_s = matmul_rows(x, w.w_right, src);
      // GATv2 scoring: a^T LeakyReLU(W_l h_t + W_r h_s)
      Var scores = gatv2_scores(hl_t, hr_s, w.attn);  // (E, 1)
      Var alpha = segment_softmax(scores, dst, n);
      terms.push_back(scatter_add_scaled(alpha, hr_s, dst, n));
    }
    // bias_elu's backward derives elu' from the stored output as
    // expm1(t) + 1, which can differ from the seed's exp(t) in the last
    // bit, so single-graph training keeps the unfused bias + ELU.
    Var sum = add_n(std::move(terms));
    x = fast_path ? bias_elu(sum, layer.bias)
                  : elu(add_row_broadcast(sum, layer.bias));
  }

  // Adaptive max pooling: one read-out row per graph. The segment form
  // over one segment equals max_pool_rows; the dedicated op is kept on
  // the single-graph path so that path stays exactly the seed pipeline.
  Var pooled = segments == nullptr
                   ? max_pool_rows(x)
                   : segment_max_pool_rows(x, *segments, n_segments);
  Var hidden = relu(add_row_broadcast(matmul(pooled, fc1_w_), fc1_b_));
  return add_row_broadcast(matmul(hidden, fc2_w_), fc2_b_);
}

Var GnnModel::forward(const programl::ProgramGraph& g) {
  std::vector<std::uint32_t> tokens(g.num_nodes());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    tokens[i] = g.nodes[i].token;
  }
  return forward_impl(tokens, g.edges, nullptr, 1);
}

Var GnnModel::forward(const programl::GraphBatch& batch) {
  MPIDETECT_EXPECTS(batch.size >= 1);
  MPIDETECT_EXPECTS(batch.segments.size() == batch.num_nodes());
  return forward_impl(batch.tokens, batch.edges, &batch.segments, batch.size);
}

double GnnModel::train_step(const programl::ProgramGraph& g,
                            std::size_t label) {
  Var loss = cross_entropy(forward(g), label);
  backward(loss);
  const double value = loss->value.at(0, 0);
  optimizer_.step();
  return value;
}

double GnnModel::train_step(const programl::GraphBatch& batch,
                            std::span<const std::size_t> labels) {
  MPIDETECT_EXPECTS(labels.size() == batch.size);
  Var loss = cross_entropy_rows(forward(batch),
                                {labels.begin(), labels.end()});
  backward(loss);
  const double value = loss->value.at(0, 0);
  optimizer_.step();
  return value;
}

void ResidentGraphSource::fetch(
    std::span<const std::size_t> idx,
    std::vector<const programl::ProgramGraph*>& out) {
  out.clear();
  for (const std::size_t p : idx) out.push_back(&graphs_[rows_[p]]);
}

void GnnModel::fit(std::span<const programl::ProgramGraph> graphs,
                   std::span<const std::size_t> labels) {
  std::vector<std::size_t> rows(graphs.size());
  std::iota(rows.begin(), rows.end(), 0);
  ResidentGraphSource src(graphs, rows);
  fit(src, labels);
}

void GnnModel::fit(GraphSource& src, std::span<const std::size_t> labels) {
  MPIDETECT_EXPECTS(src.size() == labels.size());
  std::vector<std::size_t> order(src.size());
  std::iota(order.begin(), order.end(), 0);
  const std::size_t batch = std::max<std::size_t>(1, cfg_.batch_size);
  std::vector<const programl::ProgramGraph*> members;
  std::vector<std::size_t> member_labels;
  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    rng_.shuffle(order);
    for (std::size_t b = 0; b < order.size(); b += batch) {
      const auto step =
          std::span<const std::size_t>(order).subspan(
              b, std::min(batch, order.size() - b));
      src.fetch(step, members);
      MPIDETECT_EXPECTS(members.size() == step.size());
      member_labels.clear();
      for (const std::size_t i : step) member_labels.push_back(labels[i]);
      // batch_size 1 is the paper's protocol: one step per graph, on the
      // single-graph path.
      const double loss =
          batch == 1
              ? train_step(*members[0], member_labels[0])
              : train_step(programl::make_batch(
                               std::span<const programl::ProgramGraph* const>(
                                   members)),
                           member_labels);
      if (!std::isfinite(loss)) {
        throw ContractViolation(
            "GnnModel::fit: non-finite loss " + std::to_string(loss) +
            " at epoch " + std::to_string(epoch) + ", step " +
            std::to_string(b / batch) + " (training diverged)");
      }
    }
  }
}

std::size_t GnnModel::predict(const programl::ProgramGraph& g) {
  const auto p = predict_proba(g);
  return static_cast<std::size_t>(
      std::max_element(p.begin(), p.end()) - p.begin());
}

std::vector<double> GnnModel::predict_proba(const programl::ProgramGraph& g) {
  NoGradGuard inference;
  Var logits = forward(g);
  return softmax_row(logits->value);
}

std::vector<std::vector<double>> GnnModel::predict_proba(
    std::span<const programl::ProgramGraph> graphs) {
  NoGradGuard inference;
  std::vector<std::vector<double>> out;
  out.reserve(graphs.size());
  const std::size_t chunk = std::max<std::size_t>(1, cfg_.infer_batch);
  for (std::size_t b = 0; b < graphs.size(); b += chunk) {
    const std::size_t end = std::min(graphs.size(), b + chunk);
    const programl::GraphBatch gb =
        programl::make_batch(graphs.subspan(b, end - b));
    Var logits = forward(gb);
    for (auto& p : softmax_rows(logits->value)) out.push_back(std::move(p));
  }
  return out;
}

std::vector<std::size_t> GnnModel::predict(
    std::span<const programl::ProgramGraph> graphs) {
  std::vector<std::size_t> out;
  out.reserve(graphs.size());
  for (const auto& p : predict_proba(graphs)) {
    out.push_back(static_cast<std::size_t>(
        std::max_element(p.begin(), p.end()) - p.begin()));
  }
  return out;
}

}  // namespace mpidetect::ml
