#include "ml/decision_tree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "support/check.hpp"

namespace mpidetect::ml {

double gini(std::span<const std::size_t> class_counts, std::size_t total) {
  if (total == 0) return 0.0;
  double sum_sq = 0.0;
  for (const std::size_t c : class_counts) {
    const double p = static_cast<double>(c) / static_cast<double>(total);
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

namespace {

using Node = DecisionTree::Node;

/// Order-preserving unsigned key of a finite double: keys compare as the
/// values do, and -0.0 shares +0.0's key (v + 0.0 is +0.0 for both).
std::uint64_t sort_key(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v + 0.0);
  return bits >> 63 ? ~bits : bits | (std::uint64_t{1} << 63);
}

struct Keyed {
  std::uint64_t key;
  std::uint32_t id;
};

/// Stable LSD radix sort by key, one byte per pass; a pass whose byte is
/// the same in every key moves nothing and is skipped.
void radix_sort(std::vector<Keyed>& a, std::vector<Keyed>& scratch) {
  std::array<std::array<std::uint32_t, 256>, 8> hist{};
  for (const Keyed& e : a) {
    for (std::size_t d = 0; d < 8; ++d) ++hist[d][(e.key >> (8 * d)) & 255];
  }
  for (std::size_t d = 0; d < 8; ++d) {
    std::array<std::uint32_t, 256>& h = hist[d];
    if (h[(a.front().key >> (8 * d)) & 255] == a.size()) continue;
    std::uint32_t offset = 0;
    for (std::uint32_t& c : h) offset += std::exchange(c, offset);
    for (const Keyed& e : a) scratch[h[(e.key >> (8 * d)) & 255]++] = e;
    a.swap(scratch);
  }
}

/// One fit's presorted state and the recursive best-first grower. Samples
/// are local ids 0..n-1 (sample i is row X[rows[i]], label y[i]). Slot s
/// holds candidate feature features_[s]: ids_[s*n, (s+1)*n) are the ids
/// sorted by that feature's value, and ranks_[s*n + id] is the dense rank
/// of sample id's value (equal values, -0.0 and +0.0 included, share a
/// rank). A node owns the same [lo, hi) range of every slot; its split
/// stably partitions each range, so both children's ranges stay sorted.
class PresortedCart {
 public:
  PresortedCart(const DecisionTreeConfig& cfg,
                const std::vector<std::vector<double>>& X,
                std::span<const std::size_t> rows,
                std::span<const std::size_t> y, std::size_t n_classes,
                std::size_t n_features)
      : cfg_(cfg), X_(X), rows_(rows), n_(rows.size()),
        n_classes_(n_classes), label_(rows.size()),
        left_counts_(n_classes) {
    for (std::size_t i = 0; i < n_; ++i) {
      label_[i] = static_cast<std::uint32_t>(y[i]);
    }
    // Distinct in-range candidates in first-occurrence order: a repeated
    // feature rescans the same boundaries, and none of them can beat the
    // best score by the 1e-12 margin a second time.
    std::vector<bool> seen(n_features, false);
    const auto add = [&](std::size_t f) {
      if (f < n_features && !seen[f]) {
        seen[f] = true;
        features_.push_back(f);
      }
    };
    if (cfg_.feature_subset.has_value()) {
      for (const std::size_t f : *cfg_.feature_subset) add(f);
    } else {
      for (std::size_t f = 0; f < n_features; ++f) add(f);
    }
    presort();
  }

  std::vector<Node> grow() {
    build(0, static_cast<std::uint32_t>(n_), 0);
    return std::move(nodes_);
  }

 private:
  double value(std::uint32_t id, std::size_t f) const {
    return X_[rows_[id]][f];
  }

  void presort() {
    // Slot 0 doubles as the node's sample list, so it exists (unsorted)
    // even when no feature is a candidate.
    ids_.resize(std::max<std::size_t>(features_.size(), 1) * n_);
    ranks_.resize(features_.size() * n_);
    std::iota(ids_.begin(), ids_.begin() + static_cast<std::ptrdiff_t>(n_),
              0u);
    std::vector<Keyed> col(n_), scratch(n_);
    for (std::size_t s = 0; s < features_.size(); ++s) {
      const std::size_t f = features_[s];
      for (std::uint32_t i = 0; i < n_; ++i) {
        const double v = value(i, f);
        if (!std::isfinite(v)) {
          throw ContractViolation(
              "DecisionTree::fit: non-finite value in row " +
              std::to_string(rows_[i]) + ", feature " + std::to_string(f));
        }
        col[i] = {sort_key(v), i};
      }
      radix_sort(col, scratch);
      std::uint32_t* ids = &ids_[s * n_];
      std::uint32_t* ranks = &ranks_[s * n_];
      std::uint32_t rank = 0;
      for (std::size_t k = 0; k < n_; ++k) {
        if (k > 0 && col[k].key != col[k - 1].key) ++rank;
        ids[k] = col[k].id;
        ranks[col[k].id] = rank;
      }
    }
    goes_left_.resize(n_);
    spill_.resize(n_);
  }

  std::size_t build(std::uint32_t lo, std::uint32_t hi, std::size_t depth) {
    const std::size_t me = nodes_.size();
    nodes_.push_back(Node{});
    nodes_[me].depth = depth;
    const std::size_t n = hi - lo;

    std::vector<std::size_t> counts(n_classes_, 0);
    for (std::uint32_t k = lo; k < hi; ++k) ++counts[label_[ids_[k]]];
    nodes_[me].label = static_cast<std::size_t>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());

    const double impurity = gini(counts, n);
    const bool depth_ok = cfg_.max_depth == 0 || depth < cfg_.max_depth;
    if (impurity <= 0.0 || n < cfg_.min_samples_split || !depth_ok) {
      return me;
    }

    // A class absent from the node adds (0/n)^2 = +0.0 to each side's sum
    // of squares, which leaves the sum unchanged, so only present classes
    // are summed, in class order.
    std::vector<std::uint32_t> present;
    for (std::size_t c = 0; c < n_classes_; ++c) {
      if (counts[c] != 0) present.push_back(static_cast<std::uint32_t>(c));
    }

    // Best split by weighted Gini, scanning each slot's sorted range.
    double best_score = impurity;
    std::size_t best_slot = 0;
    std::size_t best_k = 0;
    bool found = false;
    for (std::size_t s = 0; s < features_.size(); ++s) {
      const std::uint32_t* ids = &ids_[s * n_ + lo];
      const std::uint32_t* ranks = &ranks_[s * n_];
      for (const std::uint32_t c : present) left_counts_[c] = 0;
      std::size_t n_left = 0;
      for (std::size_t k = 0; k + 1 < n; ++k) {
        ++left_counts_[label_[ids[k]]];
        ++n_left;
        if (ranks[ids[k]] == ranks[ids[k + 1]]) continue;  // no boundary
        const std::size_t n_right = n - n_left;
        double right_sq = 0.0;
        for (const std::uint32_t c : present) {
          const double p = static_cast<double>(counts[c] - left_counts_[c]) /
                           static_cast<double>(n_right);
          right_sq += p * p;
        }
        const double right_gini = 1.0 - right_sq;
        double left_sq = 0.0;
        for (const std::uint32_t c : present) {
          const double p = static_cast<double>(left_counts_[c]) /
                           static_cast<double>(n_left);
          left_sq += p * p;
        }
        const double left_gini = 1.0 - left_sq;
        const double score = (static_cast<double>(n_left) * left_gini +
                              static_cast<double>(n_right) * right_gini) /
                             static_cast<double>(n);
        if (score + 1e-12 < best_score) {
          best_score = score;
          best_slot = s;
          best_k = k;
          found = true;
        }
      }
    }
    if (!found) return me;

    const std::size_t feature = features_[best_slot];
    const std::uint32_t* best_ids = &ids_[best_slot * n_ + lo];
    const double threshold = (value(best_ids[best_k], feature) +
                              value(best_ids[best_k + 1], feature)) /
                             2.0;
    // The split is what predict() will do with the threshold, which can
    // differ from the scanned boundary when the midpoint rounds onto a
    // neighbour value.
    std::size_t n_left = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const bool left = value(best_ids[k], feature) <= threshold;
      goes_left_[best_ids[k]] = left;
      n_left += left;
    }
    if (n_left == 0 || n_left == n) return me;

    for (std::size_t s = 0; s < features_.size(); ++s) partition(s, lo, hi);
    nodes_[me].leaf = false;
    nodes_[me].feature = feature;
    nodes_[me].threshold = threshold;
    const std::uint32_t mid = lo + static_cast<std::uint32_t>(n_left);
    const std::size_t l = build(lo, mid, depth + 1);
    nodes_[me].left = static_cast<std::int32_t>(l);
    const std::size_t r = build(mid, hi, depth + 1);
    nodes_[me].right = static_cast<std::int32_t>(r);
    return me;
  }

  /// Stable partition of slot s's [lo, hi) by goes_left_: left ids first.
  void partition(std::size_t s, std::uint32_t lo, std::uint32_t hi) {
    std::uint32_t* ids = &ids_[s * n_];
    std::uint32_t out = lo;
    std::size_t spilled = 0;
    for (std::uint32_t k = lo; k < hi; ++k) {
      const std::uint32_t id = ids[k];
      if (goes_left_[id]) {
        ids[out++] = id;
      } else {
        spill_[spilled++] = id;
      }
    }
    std::copy_n(spill_.begin(), spilled, ids + out);
  }

  const DecisionTreeConfig& cfg_;
  const std::vector<std::vector<double>>& X_;
  std::span<const std::size_t> rows_;
  std::size_t n_;
  std::size_t n_classes_;
  std::vector<std::uint32_t> label_;
  std::vector<std::size_t> features_;
  std::vector<std::uint32_t> ids_;
  std::vector<std::uint32_t> ranks_;
  std::vector<unsigned char> goes_left_;
  std::vector<std::uint32_t> spill_;
  std::vector<std::size_t> left_counts_;
  std::vector<Node> nodes_;
};

std::vector<std::size_t> identity_rows(std::size_t n) {
  std::vector<std::size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

}  // namespace

void DecisionTree::fit(const std::vector<std::vector<double>>& X,
                       const std::vector<std::size_t>& y) {
  fit(X, identity_rows(X.size()), y);
}

void DecisionTree::fit(const std::vector<std::vector<double>>& X,
                       std::span<const std::size_t> rows,
                       std::span<const std::size_t> y) {
  MPIDETECT_EXPECTS(!rows.empty() && rows.size() == y.size());
  MPIDETECT_EXPECTS(rows.size() < std::numeric_limits<std::uint32_t>::max());
  MPIDETECT_EXPECTS(rows.front() < X.size());
  const std::size_t n_features = X[rows.front()].size();
  for (const std::size_t r : rows) {
    MPIDETECT_EXPECTS(r < X.size() && X[r].size() == n_features);
  }
  const std::size_t n_classes = *std::max_element(y.begin(), y.end()) + 1;
  MPIDETECT_EXPECTS(n_classes <= std::numeric_limits<std::uint32_t>::max());
  nodes_ = PresortedCart(cfg_, X, rows, y, n_classes, n_features).grow();
  n_classes_ = n_classes;
  n_features_ = n_features;
}

std::size_t DecisionTree::predict(std::span<const double> row) const {
  MPIDETECT_EXPECTS(trained());
  if (row.size() != n_features_) {
    throw ContractViolation("DecisionTree::predict: row has " +
                            std::to_string(row.size()) +
                            " features, the tree was trained on " +
                            std::to_string(n_features_));
  }
  std::size_t cur = 0;
  while (!nodes_[cur].leaf) {
    const Node& n = nodes_[cur];
    cur = static_cast<std::size_t>(
        row[n.feature] <= n.threshold ? n.left : n.right);
  }
  return nodes_[cur].label;
}

std::vector<std::size_t> DecisionTree::predict(
    const std::vector<std::vector<double>>& X) const {
  std::vector<std::size_t> out;
  out.reserve(X.size());
  for (const auto& row : X) out.push_back(predict(row));
  return out;
}

std::size_t DecisionTree::depth() const {
  std::size_t d = 0;
  for (const Node& n : nodes_) d = std::max(d, n.depth);
  return d;
}

DecisionTree DecisionTree::from_nodes(DecisionTreeConfig cfg,
                                      std::vector<Node> nodes,
                                      std::size_t n_classes,
                                      std::size_t n_features) {
  MPIDETECT_EXPECTS(!nodes.empty());
  MPIDETECT_EXPECTS(n_classes >= 1);
  MPIDETECT_EXPECTS(n_features >= 1);
  const std::int32_t n = static_cast<std::int32_t>(nodes.size());
  for (std::int32_t i = 0; i < n; ++i) {
    const Node& node = nodes[static_cast<std::size_t>(i)];
    MPIDETECT_CHECK(node.label < n_classes);
    if (!node.leaf) {
      // Split feature inside the training row width: predict() never
      // reads past the end of a feature row.
      MPIDETECT_CHECK(node.feature < n_features);
      // Children strictly after their parent: predict() is guaranteed to
      // terminate, whatever bytes the node list came from.
      MPIDETECT_CHECK(node.left > i && node.left < n);
      MPIDETECT_CHECK(node.right > i && node.right < n);
    }
  }
  DecisionTree tree(std::move(cfg));
  tree.nodes_ = std::move(nodes);
  tree.n_classes_ = n_classes;
  tree.n_features_ = n_features;
  return tree;
}

}  // namespace mpidetect::ml
