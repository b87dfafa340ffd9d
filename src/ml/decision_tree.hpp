// CART decision tree with Gini impurity and best-first splits, matching
// scikit-learn 1.0's DecisionTreeClassifier defaults the paper uses:
// unlimited depth, min_samples_split=2, grown to purity. Supports
// restricting splits to a feature subset (the GA selection of §IV-A).
//
// Fits filter a presorted table (SLIQ's attribute lists, Mehta, Agrawal
// & Rissanen, EDBT 1996). A SortedColumns table holds, per feature, the
// rows of one feature matrix in stable value order, each marked when its
// value differs from the one before, as flat uint32_t arrays. It is
// sorted once per matrix and shared: every k-fold fold and every GA
// fitness fit over the matrix keeps its own rows of each candidate
// feature's order in one linear pass, with no sort of its own. Every
// node owns a [lo, hi) range of each feature's filtered order; a split
// stably partitions those ranges for its two children, carrying the
// marks along, so a node's scan walks ranges that are already sorted.
// The trees are bit-identical to sorting every feature at every node:
//   - a boundary is a marked entry, which is exactly a value change (a
//     fit's entry is marked when any table entry since its previous
//     entry was);
//   - the order among equal values is irrelevant: boundaries fall between
//     groups of equal values, and the threshold is the same midpoint
//     (v_k + v_{k+1}) / 2 of the two neighbouring values (a -0.0/+0.0 tie
//     cannot change it, since the other value is non-zero);
//   - the Gini sums run in class order and only skip classes absent from
//     the node, whose (0/n)^2 = +0.0 leaves a sum unchanged; a node with
//     two present classes counts one and derives the other as
//     n_left - l, the same integer, and screens each boundary with a
//     one-division form of the score that errs by far less than the
//     1e-12 margin, computing the exact score where it may win;
//   - features, boundaries and nodes are visited in the same order under
//     the same strict `score + 1e-12 < best` test (a feature repeated in
//     feature_subset could never win again, so it is scanned once);
//   - samples go left by `x <= threshold`, as in predict().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
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

/// Every feature's rows of one feature matrix in stable value order, each
/// marked when its value differs from the one before (equal values, -0.0
/// and +0.0 included, form one group): the presort that DecisionTree fits
/// over the matrix share. The mark carries what a dense value rank would
/// (a rank is the count of marks up to the row) in the entry's top bit,
/// so the table costs 4 bytes per cell. The matrix must outlive the
/// table and stay unchanged.
///
/// Construction sorts nothing; the first build() does. Callers that
/// arrive while the table is incomplete claim columns from an atomic
/// cursor, sort them, and return when the last column is done, so
/// concurrent first fits share the work on their own threads and the
/// table does not depend on who arrived when. Non-finite values are
/// sorted too; a fit rejects one only where it would read it (a training
/// row of a candidate feature).
class SortedColumns {
 public:
  /// An order() entry is a table row (kRowMask bits), with kNewValue set
  /// when its value differs from the previous entry's (and on the first).
  static constexpr std::uint32_t kNewValue = std::uint32_t{1} << 31;
  static constexpr std::uint32_t kRowMask = kNewValue - 1;

  /// A table over every row of X: table row t is X row t.
  explicit SortedColumns(const std::vector<std::vector<double>>& X);
  /// A table over the rows X[cover[0]], X[cover[1]], ...: table row t is
  /// X row cover[t], and a row named twice is two table rows.
  SortedColumns(const std::vector<std::vector<double>>& X,
                std::vector<std::size_t> cover);
  SortedColumns(const SortedColumns&) = delete;
  SortedColumns& operator=(const SortedColumns&) = delete;
  ~SortedColumns();

  const std::vector<std::vector<double>>& matrix() const { return X_; }
  std::size_t rows() const { return rows_; }
  /// Feature count: the width of the first table row.
  std::size_t width() const { return width_; }
  std::size_t x_row(std::size_t t) const {
    return cover_.empty() ? t : cover_[t];
  }
  double value(std::size_t t, std::size_t f) const {
    return X_[x_row(t)][f];
  }

  /// Sorts every column unless that is done; thread-safe. Throws
  /// ContractViolation when the table's rows differ in width or number
  /// more than kRowMask.
  void build() const;
  bool built() const { return complete_.load(); }

  /// After build(), for f < width(): the entries of feature f in value
  /// order.
  std::span<const std::uint32_t> order(std::size_t f) const;
  /// After build(): whether feature f holds a NaN or an Inf in any row.
  bool has_nonfinite(std::size_t f) const { return nonfinite_[f] != 0; }

 private:
  const std::vector<std::vector<double>>& X_;
  std::vector<std::size_t> cover_;  // empty: table row t is X row t
  std::size_t rows_ = 0;
  std::size_t width_ = 0;

  // The lazily built table. mu_ guards the allocation and the wait for
  // the last column; columns are claimed through next_ and counted in
  // done_. cells_ holds every column's order (width x rows), in pages
  // mapped by the first build().
  mutable std::mutex mu_;
  mutable std::condition_variable done_cv_;
  mutable bool allocated_ = false;
  mutable std::atomic<std::size_t> next_{0};
  mutable std::atomic<std::size_t> done_{0};
  mutable std::atomic<bool> complete_{false};
  mutable std::uint32_t* cells_ = nullptr;
  mutable std::size_t cell_bytes_ = 0;
  mutable std::vector<unsigned char> nonfinite_;
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
  /// place; it sorts a table of its own over those rows. Every row of X
  /// named in `rows` must have the same width. Throws ContractViolation
  /// naming the row and feature of a NaN or Inf in a candidate feature:
  /// the presort needs a strict weak order.
  void fit(const std::vector<std::vector<double>>& X,
           std::span<const std::size_t> rows, std::span<const std::size_t> y);
  /// Trains on the table rows `rows` labelled y[i], filtering the shared
  /// table (building it first if no fit has). A table row named twice is
  /// two samples, which one table entry cannot hold, so such a fit sorts
  /// a table of its own over its rows. Throws as above, naming the X row.
  void fit(const SortedColumns& table, std::span<const std::size_t> rows,
           std::span<const std::size_t> y);

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

namespace detail {

/// The split score of the boundary after n_left of a node's n samples
/// when the node holds two classes, total0 of the lower and total1 of
/// the higher, l0 of the lower on the left: each side's Gini summed in
/// class order, weighted by its share. Bit for bit what a fit tests.
double two_class_score(std::size_t n, std::size_t n_left, std::size_t l0,
                       std::size_t total0, std::size_t total1);
/// The same score with one division instead of four, which a fit uses
/// to skip boundaries that cannot win: it stays within kScreenSlack of
/// two_class_score() (within 16 * 2^-53, in fact), far inside the
/// 1e-12 margin of the split test.
double two_class_screen(std::size_t n, std::size_t n_left, std::size_t l0,
                        std::size_t total0, std::size_t total1);
inline constexpr double kScreenSlack = 1e-13;

}  // namespace detail

}  // namespace mpidetect::ml
