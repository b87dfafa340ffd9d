#include "io/model_io.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace mpidetect::io {

namespace {

constexpr std::uint32_t kTreeVersion = 1;
constexpr std::uint32_t kIrdtVersion = 1;
constexpr std::uint32_t kGnnVersion = 1;
constexpr std::uint32_t kVocabVersion = 1;

/// Entities whose seed vectors are stored alongside the vocabulary seed
/// and re-verified at load: if the generator ever drifts, old files are
/// rejected instead of silently embedding differently.
constexpr const char* kVocabProbes[] = {"opcode:add", "callee:MPI_Send",
                                        "type:i32"};
constexpr std::size_t kVocabProbeDims = 8;  // leading dims stored per probe

}  // namespace

void save_decision_tree(Writer& w, const ml::DecisionTree& tree) {
  MPIDETECT_EXPECTS(tree.trained());
  write_section(w, "CART", kTreeVersion);
  const ml::DecisionTreeConfig& cfg = tree.config();
  w.u64(cfg.max_depth);
  w.u64(cfg.min_samples_split);
  w.u8(cfg.feature_subset.has_value() ? 1 : 0);
  if (cfg.feature_subset.has_value()) w.index_vec(*cfg.feature_subset);
  w.u64(tree.num_classes());
  w.u64(tree.num_features());
  const auto& nodes = tree.nodes();
  w.u64(nodes.size());
  for (const auto& n : nodes) {
    w.u8(n.leaf ? 1 : 0);
    w.u64(n.label);
    w.u64(n.feature);
    w.f64(n.threshold);
    w.i64(n.left);
    w.i64(n.right);
    w.u64(n.depth);
  }
}

ml::DecisionTree load_decision_tree(Reader& r) {
  read_section(r, "CART", 1, kTreeVersion, "decision-tree model");
  ml::DecisionTreeConfig cfg;
  cfg.max_depth = r.count(Reader::kMaxElements);
  cfg.min_samples_split = r.count(Reader::kMaxElements);
  if (r.u8() != 0) cfg.feature_subset = r.index_vec();
  const std::size_t n_classes = r.count(1u << 20);
  const std::size_t n_features = r.count(1u << 24);
  const std::size_t n_nodes = r.count(Reader::kMaxElements);
  std::vector<ml::DecisionTree::Node> nodes(n_nodes);
  for (auto& n : nodes) {
    n.leaf = r.u8() != 0;
    n.label = r.count(Reader::kMaxElements);
    n.feature = r.count(Reader::kMaxElements);
    n.threshold = r.f64();
    n.left = static_cast<std::int32_t>(r.i64());
    n.right = static_cast<std::int32_t>(r.i64());
    n.depth = r.count(Reader::kMaxElements);
  }
  try {
    return ml::DecisionTree::from_nodes(std::move(cfg), std::move(nodes),
                                        n_classes, n_features);
  } catch (const ContractViolation& e) {
    r.fail(std::string("malformed decision tree: ") + e.what());
  }
}

void save_trained_ir2vec(Writer& w, const core::TrainedIr2vec& model) {
  write_section(w, "IRDT", kIrdtVersion);
  w.index_vec(model.selected_features);
  save_decision_tree(w, model.tree);
}

core::TrainedIr2vec load_trained_ir2vec(Reader& r) {
  read_section(r, "IRDT", 1, kIrdtVersion, "IR2vec+DT model");
  core::TrainedIr2vec model;
  model.selected_features = r.index_vec();
  model.tree = load_decision_tree(r);
  return model;
}

void save_gnn_model(Writer& w, const ml::GnnModel& model) {
  write_section(w, "GNNW", kGnnVersion);
  const ml::GnnConfig& cfg = model.config();
  w.u64(cfg.vocab);
  w.u64(cfg.embed_dim);
  w.index_vec(cfg.layers);
  w.u64(cfg.fc_hidden);
  w.u64(cfg.classes);
  w.f64(cfg.lr);
  w.i64(cfg.epochs);
  w.u64(cfg.seed);
  const auto params = model.parameters();
  w.u64(params.size());
  for (const ml::Matrix* m : params) {
    w.u64(m->rows());
    w.u64(m->cols());
    w.f64_vec(m->data());
  }
}

std::unique_ptr<ml::GnnModel> load_gnn_model(Reader& r) {
  read_section(r, "GNNW", 1, kGnnVersion, "GNN model");
  ml::GnnConfig cfg;
  cfg.vocab = r.count(1u << 24);
  cfg.embed_dim = r.count(1u << 16);
  cfg.layers = r.index_vec(64);
  cfg.fc_hidden = r.count(1u << 16);
  cfg.classes = r.count(1u << 16);
  cfg.lr = r.f64();
  cfg.epochs = static_cast<int>(r.i64());
  cfg.seed = r.u64();
  if (cfg.layers.empty() || cfg.classes < 2) {
    r.fail("malformed GNN config (no layers or < 2 classes)");
  }

  auto model = std::make_unique<ml::GnnModel>(cfg);
  const auto params = model->parameters();
  const std::size_t n = r.count(1u << 16);
  if (n != params.size()) {
    r.fail("GNN parameter count mismatch: file has " + std::to_string(n) +
           " tensors, the stored config builds " +
           std::to_string(params.size()));
  }
  std::vector<ml::Matrix> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t rows = r.count(1u << 24);
    const std::size_t cols = r.count(1u << 24);
    if (rows != params[i]->rows() || cols != params[i]->cols()) {
      r.fail("GNN tensor " + std::to_string(i) + " shape mismatch: file has " +
             std::to_string(rows) + "x" + std::to_string(cols) +
             ", the stored config expects " + std::to_string(params[i]->rows()) +
             "x" + std::to_string(params[i]->cols()));
    }
    ml::Matrix m(rows, cols);
    m.data() = r.f64_vec();
    if (m.data().size() != rows * cols) {
      r.fail("GNN tensor " + std::to_string(i) + " element count mismatch");
    }
    // A NaN or infinite weight makes every verdict meaningless; refuse
    // the model here rather than serve confident answers from it.
    if (!std::all_of(m.data().begin(), m.data().end(),
                     [](double x) { return std::isfinite(x); })) {
      r.fail("GNN tensor " + std::to_string(i) + " holds a non-finite weight");
    }
    values.push_back(std::move(m));
  }
  model->set_parameters(std::move(values));
  return model;
}

void save_vocabulary(Writer& w, const ir2vec::Vocabulary& vocab) {
  write_section(w, "VOCB", kVocabVersion);
  w.u64(vocab.seed());
  w.u64(ir2vec::kDim);
  w.u64(std::size(kVocabProbes));
  for (const char* name : kVocabProbes) {
    w.str(name);
    const auto& v = vocab.entity(name);
    w.f64_vec(std::span(v.data(), kVocabProbeDims));
  }
}

ir2vec::Vocabulary load_vocabulary(Reader& r) {
  read_section(r, "VOCB", 1, kVocabVersion, "IR2vec vocabulary");
  const std::uint64_t seed = r.u64();
  const std::size_t dim = r.count(1u << 20);
  if (dim != ir2vec::kDim) {
    r.fail("vocabulary dimension mismatch: file has " + std::to_string(dim) +
           ", this build uses " + std::to_string(ir2vec::kDim));
  }
  ir2vec::Vocabulary vocab(seed);
  const std::size_t n_probes = r.count(1u << 10);
  for (std::size_t i = 0; i < n_probes; ++i) {
    const std::string name = r.str();
    const auto stored = r.f64_vec(1u << 10);
    const auto& regenerated = vocab.entity(name);
    for (std::size_t d = 0; d < stored.size(); ++d) {
      if (d >= regenerated.size() || stored[d] != regenerated[d]) {
        r.fail("vocabulary probe '" + name +
               "' does not reproduce: the embedding generator changed "
               "since this file was written; re-train the model");
      }
    }
  }
  return vocab;
}

}  // namespace mpidetect::io
