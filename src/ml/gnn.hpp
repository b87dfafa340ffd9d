// The paper's GNN pipeline (§IV-B): ProGraML graphs -> three GATv2
// layers of sizes 128/64/32 wrapped in a HeteroConv (one GATv2 per edge
// relation, outputs summed) -> adaptive max pooling over nodes -> two
// fully connected layers -> class logits. Trained with cross-entropy
// and Adam (lr 4e-4) for 10 epochs.
//
// Hetero treatment: node types share one feature space (the type is part
// of the token embedding) while each of the three edge relations gets
// its own GATv2 weights — the relation-specific convolution HeteroConv
// provides. A relation-independent self transform plays the role of
// PyG's add_self_loops (nodes with no in-edges keep a signal path).
//
// Batched compute: every entry point also comes in a mini-batch form
// over programl::GraphBatch (a disjoint union of graphs with per-graph
// segment ids). Because batch members are disconnected, message passing
// over the union computes exactly the per-graph passes, and the
// segment-aware pooling keeps per-graph read-outs apart — batched
// inference produces the same logits as graph-at-a-time inference (see
// tests/batched_gnn_test.cpp), it just amortizes the per-op cost over
// the whole batch.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/adam.hpp"
#include "ml/autograd.hpp"
#include "programl/graph.hpp"

namespace mpidetect::ml {

struct GnnConfig {
  std::size_t vocab = programl::kVocabSize;
  std::size_t embed_dim = 32;                 // token embedding width
  std::vector<std::size_t> layers = {128, 64, 32};  // paper's GATv2 sizes
  std::size_t fc_hidden = 32;
  std::size_t classes = 2;
  double lr = 4e-4;     // paper
  int epochs = 10;      // paper
  std::uint64_t seed = 7;
  /// Training mini-batch: graphs packed per optimisation step. 1 is the
  /// paper's per-graph protocol (and bit-identical to the pre-batching
  /// implementation); larger values take one Adam step per batch on the
  /// mean cross-entropy — fewer, larger steps over the same epochs.
  std::size_t batch_size = 1;
  /// Inference micro-batch for the span entry points (predict /
  /// predict_proba over many graphs). A pure throughput knob: logits do
  /// not depend on it (bench/perf_gnn sweeps it; small batches keep the
  /// per-op working set cache-resident).
  std::size_t infer_batch = 8;
};

/// Random-access provider of training graphs for GnnModel::fit: the
/// model asks for exactly the graphs of the next optimisation step. A
/// resident source hands out pointers into graphs it already holds; one
/// backed by an on-disk corpus (core::GnnDetector::fit_stream)
/// re-derives the step's graphs into its own buffer, so it holds at
/// most one mini-batch. fetch(i) must always yield the same graph;
/// calls come from one thread.
class GraphSource {
 public:
  virtual ~GraphSource() = default;

  virtual std::size_t size() const = 0;

  /// Replaces `out` with the graphs at positions `idx` (same order).
  /// The pointers stay valid until the next fetch.
  virtual void fetch(std::span<const std::size_t> idx,
                     std::vector<const programl::ProgramGraph*>& out) = 0;
};

/// Resident graphs, handed out without copies: position p of the source
/// is graphs[rows[p]]. Both spans must outlive the source.
class ResidentGraphSource final : public GraphSource {
 public:
  ResidentGraphSource(std::span<const programl::ProgramGraph> graphs,
                      std::span<const std::size_t> rows)
      : graphs_(graphs), rows_(rows) {}

  std::size_t size() const override { return rows_.size(); }
  void fetch(std::span<const std::size_t> idx,
             std::vector<const programl::ProgramGraph*>& out) override;

 private:
  std::span<const programl::ProgramGraph> graphs_;
  std::span<const std::size_t> rows_;
};

class GnnModel final {
 public:
  explicit GnnModel(const GnnConfig& cfg);

  /// Logits (1 x classes) with gradient tracking.
  Var forward(const programl::ProgramGraph& g);

  /// Logits (B x classes) for a graph mini-batch, row b for member b.
  Var forward(const programl::GraphBatch& batch);

  /// One optimisation step on a single graph; returns the loss.
  double train_step(const programl::ProgramGraph& g, std::size_t label);

  /// One optimisation step on a mini-batch (labels parallel to the
  /// batch members); returns the mean cross-entropy loss.
  double train_step(const programl::GraphBatch& batch,
                    std::span<const std::size_t> labels);

  /// Full training run: `epochs` shuffled passes over the source,
  /// cfg.batch_size graphs per optimisation step (labels parallel to
  /// the source). Parameters depend only on the graphs the source
  /// yields, never on where they live.
  /// \throws ContractViolation naming the epoch and step when a step's
  ///         loss is not finite (the run diverged).
  void fit(GraphSource& src, std::span<const std::size_t> labels);

  /// fit() over resident graphs.
  void fit(std::span<const programl::ProgramGraph> graphs,
           std::span<const std::size_t> labels);

  std::size_t predict(const programl::ProgramGraph& g);
  std::vector<double> predict_proba(const programl::ProgramGraph& g);

  /// Batched inference over many graphs (chunked by cfg.infer_batch,
  /// tape-free): element i is softmax probabilities for graphs[i].
  /// Same values as calling predict_proba per graph.
  std::vector<std::vector<double>> predict_proba(
      std::span<const programl::ProgramGraph> graphs);

  /// Batched argmax predictions (see the batched predict_proba).
  std::vector<std::size_t> predict(
      std::span<const programl::ProgramGraph> graphs);

  const GnnConfig& config() const { return cfg_; }
  std::size_t parameter_count() const;

  /// The trainable tensors in their fixed construction order (token
  /// embedding, then per layer the three relations' W_l/W_r/attention
  /// plus self/bias, then the two FC layers) — the payload of the model
  /// serialization format (io/model_io.hpp).
  std::vector<const Matrix*> parameters() const;

  /// Overwrites every parameter from `values` (same order and shapes as
  /// parameters(); checked), consuming them, and resets the training
  /// state: Adam restarts from fresh moments and step count, and the
  /// epoch shuffle from the stream a newly constructed model starts
  /// with. A model given `values` then behaves exactly like a fresh
  /// model given `values`, whatever it was trained on before.
  void set_parameters(std::vector<Matrix> values);

 private:
  struct RelationWeights {
    Var w_left;   // target-side transform
    Var w_right;  // source-side transform (message content)
    Var attn;     // attention vector (d_out x 1)
  };
  struct Layer {
    std::vector<RelationWeights> rel;  // one per edge type
    Var w_self;
    Var bias;
  };

  /// Message passing over merged node tokens + edge lists, then
  /// per-segment max pooling and the FC head: logits
  /// (n_segments x classes). `segments` maps node -> output row;
  /// nullptr means one segment covering every node (the single-graph
  /// case, which keeps the seed's dedicated max_pool_rows read-out).
  Var forward_impl(
      std::span<const std::uint32_t> tokens,
      const std::array<std::vector<programl::Edge>,
                       programl::kNumEdgeTypes>& edges,
      const std::vector<std::uint32_t>* segments, std::size_t n_segments);

  GnnConfig cfg_;
  Rng rng_;       // parameter init, then the epoch shuffles
  Rng init_rng_;  // rng_ as construction left it (set_parameters)
  Var embedding_;  // vocab x embed_dim
  std::vector<Layer> layers_;
  Var fc1_w_, fc1_b_, fc2_w_, fc2_b_;
  std::vector<Var> params_;
  Adam optimizer_;
};

}  // namespace mpidetect::ml
