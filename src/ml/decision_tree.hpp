// CART decision tree with Gini impurity and best-first splits, matching
// scikit-learn 1.0's DecisionTreeClassifier defaults the paper uses:
// unlimited depth, min_samples_split=2, grown to purity. Supports
// restricting splits to a feature subset (the GA selection of §IV-A).
//
// fit() presorts (SLIQ-style). It sorts each candidate feature's samples
// by value once per fit (a stable radix sort on order-preserving 64-bit
// keys) and keeps the sorted sample ids and each sample's dense value
// rank (equal values share a rank) as flat uint32_t arrays. Every node
// owns a [lo, hi) range of each feature's order; a split stably
// partitions those ranges for its two children, so a node's scan walks
// ranges that are already sorted. The trees are bit-identical to
// sorting every feature at every node:
//   - a boundary is a rank change, which is exactly a value change;
//   - the threshold is the same midpoint (v_k + v_{k+1}) / 2 of the two
//     neighbouring values (a -0.0/+0.0 tie cannot change it, since the
//     other value is non-zero);
//   - the Gini sums run in class order and only skip classes absent from
//     the node, whose (0/n)^2 = +0.0 leaves a sum unchanged;
//   - features, boundaries and nodes are visited in the same order under
//     the same strict `score + 1e-12 < best` test (a feature repeated in
//     feature_subset could never win again, so it is scanned once);
//   - samples go left by `x <= threshold`, as in predict().
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace mpidetect::ml {

struct DecisionTreeConfig {
  std::size_t max_depth = 0;          // 0 = unlimited (sklearn default)
  std::size_t min_samples_split = 2;  // sklearn default
  /// When set, only these feature indices are candidates for splits.
  std::optional<std::vector<std::size_t>> feature_subset;
};

class DecisionTree final {
 public:
  /// Flattened tree node. Public because it is the unit of the model
  /// serialization format (io/model_io.hpp): nodes() / from_nodes()
  /// round-trip a trained tree exactly.
  struct Node {
    bool leaf = true;
    std::size_t label = 0;      // majority class at this node
    std::size_t feature = 0;    // split feature (internal nodes)
    double threshold = 0.0;     // go left when x[feature] <= threshold
    std::int32_t left = -1, right = -1;
    std::size_t depth = 0;
  };

  explicit DecisionTree(DecisionTreeConfig cfg = {}) : cfg_(std::move(cfg)) {}

  /// X: one row per sample; y: class labels (0-based, small ints).
  void fit(const std::vector<std::vector<double>>& X,
           const std::vector<std::size_t>& y);
  /// Trains on the samples X[rows[i]] labelled y[i], reading the rows in
  /// place. Every row of X named in `rows` must have the same width.
  /// Throws ContractViolation naming the row and feature of a NaN or Inf
  /// in a candidate feature: the presort needs a strict weak order.
  void fit(const std::vector<std::vector<double>>& X,
           std::span<const std::size_t> rows, std::span<const std::size_t> y);

  /// Throws ContractViolation unless the tree is trained and
  /// row.size() == num_features().
  std::size_t predict(std::span<const double> row) const;
  std::vector<std::size_t> predict(
      const std::vector<std::vector<double>>& X) const;

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const;
  bool trained() const { return !nodes_.empty(); }

  /// The flattened tree (children always follow their parent), the
  /// number of classes and the training-time feature-row width —
  /// everything a deserializer needs.
  const std::vector<Node>& nodes() const { return nodes_; }
  const DecisionTreeConfig& config() const { return cfg_; }
  std::size_t num_classes() const { return n_classes_; }
  std::size_t num_features() const { return n_features_; }

  /// Rebuilds a trained tree from a flattened node list (the inverse of
  /// nodes()). Validates the structure — labels < n_classes, split
  /// features < n_features, children in range and strictly after their
  /// parent (acyclic) — and throws ContractViolation on malformed
  /// input, so a corrupt model file can never produce a tree whose
  /// predict() loops or reads past the end of a feature row.
  static DecisionTree from_nodes(DecisionTreeConfig cfg,
                                 std::vector<Node> nodes,
                                 std::size_t n_classes,
                                 std::size_t n_features);

 private:
  DecisionTreeConfig cfg_;
  std::vector<Node> nodes_;
  std::size_t n_classes_ = 0;
  std::size_t n_features_ = 0;
};

/// Gini impurity of a label multiset given class counts.
double gini(std::span<const std::size_t> class_counts, std::size_t total);

}  // namespace mpidetect::ml
