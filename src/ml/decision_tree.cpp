#include "ml/decision_tree.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <new>
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

constexpr std::uint32_t kNewValue = SortedColumns::kNewValue;
constexpr std::uint32_t kRowMask = SortedColumns::kRowMask;

/// Sorts feature f of the table's rows into `order`, marking each entry
/// whose value differs from the one before, and reports whether any of
/// its values is NaN or Inf (sorted by its bits, apart from every finite
/// value).
bool sort_column(const SortedColumns& table, std::size_t f,
                 std::vector<Keyed>& col, std::vector<Keyed>& scratch,
                 std::uint32_t* order) {
  const std::size_t n = table.rows();
  bool nonfinite = false;
  for (std::uint32_t t = 0; t < n; ++t) {
    const double v = table.value(t, f);
    nonfinite |= !std::isfinite(v);
    col[t] = {sort_key(v), t};
  }
  radix_sort(col, scratch);
  for (std::size_t k = 0; k < n; ++k) {
    const bool fresh = k == 0 || col[k].key != col[k - 1].key;
    order[k] = col[k].id | (fresh ? kNewValue : 0);
  }
  return nonfinite;
}

constexpr std::uint32_t kAbsent = std::numeric_limits<std::uint32_t>::max();

/// The split score: each side's Gini weighted by its share of the node.
double weighted_gini(std::size_t n, std::size_t n_left, double left_gini,
                     double right_gini) {
  return (static_cast<double>(n_left) * left_gini +
          static_cast<double>(n - n_left) * right_gini) /
         static_cast<double>(n);
}

/// One fit's filtered state and the recursive best-first grower. Samples
/// are table rows; label_[t] is table row t's class, or kAbsent when the
/// fit leaves it out. Slot s holds candidate feature features_[s]:
/// ids_[s*n, (s+1)*n) are the fit's rows in that feature's value order,
/// kept from the table's order in one pass. Each entry is a table row
/// (kRowMask bits) and a kNewValue bit set when its value differs from
/// the entry before it in the same node, so a node's boundaries are its
/// entries with the bit, bar the first. A node owns the same [lo, hi)
/// range of every slot; its split stably partitions each range, so both
/// children's ranges stay sorted, and carries the bits along.
class PresortedCart {
 public:
  PresortedCart(const DecisionTreeConfig& cfg, const SortedColumns& table,
                std::span<const std::size_t> rows,
                std::vector<std::uint32_t> label, std::size_t n_classes)
      : cfg_(cfg), table_(table), n_(rows.size()), n_classes_(n_classes),
        label_(std::move(label)), left_counts_(n_classes) {
    // Distinct in-range candidates in first-occurrence order: a repeated
    // feature rescans the same boundaries, and none of them can beat the
    // best score by the 1e-12 margin a second time.
    const std::size_t n_features = table.width();
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
    reject_nonfinite(rows);
    filter(rows);
  }

  std::vector<Node> grow() {
    build(0, static_cast<std::uint32_t>(n_), 0);
    return std::move(nodes_);
  }

 private:
  /// The first NaN or Inf a sort of the candidates would meet, in slot
  /// order and then in the fit's row order.
  void reject_nonfinite(std::span<const std::size_t> rows) const {
    for (const std::size_t f : features_) {
      if (!table_.has_nonfinite(f)) continue;
      for (const std::size_t t : rows) {
        if (!std::isfinite(table_.value(t, f))) {
          throw ContractViolation(
              "DecisionTree::fit: non-finite value in row " +
              std::to_string(table_.x_row(t)) + ", feature " +
              std::to_string(f));
        }
      }
    }
  }

  /// Keeps the fit's rows of each candidate's table order. A kept row's
  /// value differs from the previous kept row's exactly when some table
  /// entry since that row marks a new value. A slot's pass writes every
  /// table row and advances only past kept ones, so it may write one
  /// element past its end: the next slot's first, which that slot's pass
  /// overwrites, or one element of slack after the last.
  void filter(std::span<const std::size_t> rows) {
    const std::size_t slots = std::max<std::size_t>(features_.size(), 1);
    ids_.resize(slots * n_ + 1);
    // Slot 0 doubles as the node's sample list, so it exists (in the
    // fit's row order) even when no feature is a candidate.
    if (features_.empty()) {
      for (std::size_t i = 0; i < n_; ++i) {
        ids_[i] = static_cast<std::uint32_t>(rows[i]);
      }
    }
    for (std::size_t s = 0; s < features_.size(); ++s) {
      std::uint32_t* out = &ids_[s * n_];
      std::size_t kept = 0;
      std::uint32_t fresh = 0;
      for (const std::uint32_t e : table_.order(features_[s])) {
        const std::uint32_t t = e & kRowMask;
        fresh |= e & kNewValue;
        out[kept] = t | fresh;
        const std::uint32_t keep = label_[t] != kAbsent;
        kept += keep;
        fresh &= keep - 1u;  // a kept row takes the mark
      }
      MPIDETECT_ENSURES(kept == n_);
    }
    goes_left_.resize(table_.rows());
    spill_.resize(n_);
    bound_at_.resize(n_);
    bound_l0_.resize(n_);
  }

  std::size_t build(std::uint32_t lo, std::uint32_t hi, std::size_t depth) {
    const std::size_t me = nodes_.size();
    nodes_.push_back(Node{});
    nodes_[me].depth = depth;
    const std::size_t n = hi - lo;

    std::vector<std::size_t> counts(n_classes_, 0);
    for (std::uint32_t k = lo; k < hi; ++k) {
      ++counts[label_[ids_[k] & kRowMask]];
    }
    nodes_[me].label = static_cast<std::size_t>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());

    const double impurity = gini(counts, n);
    const bool depth_ok = cfg_.max_depth == 0 || depth < cfg_.max_depth;
    if (impurity <= 0.0 || n < cfg_.min_samples_split || !depth_ok) {
      return me;
    }

    // A class absent from the node adds (0/n)^2 = +0.0 to each side's sum
    // of squares, which leaves the sum unchanged, so only present classes
    // are summed, in class order. A node with impurity has two or more.
    std::vector<std::uint32_t> present;
    for (std::size_t c = 0; c < n_classes_; ++c) {
      if (counts[c] != 0) present.push_back(static_cast<std::uint32_t>(c));
    }

    // Best split by weighted Gini, scanning each slot's sorted range.
    Best best{impurity};
    for (std::size_t s = 0; s < features_.size(); ++s) {
      const std::uint32_t* ids = &ids_[s * n_ + lo];
      if (present.size() == 2) {
        scan_two(s, ids, n, present[0], counts[present[0]],
                 counts[present[1]], best);
      } else {
        scan_many(s, ids, n, present, counts, best);
      }
    }
    if (!best.found) return me;

    const std::size_t feature = features_[best.slot];
    const std::uint32_t* best_ids = &ids_[best.slot * n_ + lo];
    const double threshold =
        (table_.value(best_ids[best.k] & kRowMask, feature) +
         table_.value(best_ids[best.k + 1] & kRowMask, feature)) /
        2.0;
    // The split is what predict() will do with the threshold, which can
    // differ from the scanned boundary when the midpoint rounds onto a
    // neighbour value.
    std::size_t n_left = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t id = best_ids[k] & kRowMask;
      const bool left = table_.value(id, feature) <= threshold;
      goes_left_[id] = left;
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

  struct Best {
    double score;
    std::size_t slot = 0;
    std::size_t k = 0;
    bool found = false;
  };

  /// A node with two present classes c0 < c1: count c0 on the left and
  /// derive c1 as n_left - l0. The first pass records every boundary
  /// with its left count, without a branch. The second screens the
  /// boundaries in order with one division each and weighs only those
  /// that may beat the best.
  void scan_two(std::size_t s, const std::uint32_t* ids, std::size_t n,
                std::uint32_t c0, std::size_t total0, std::size_t total1,
                Best& best) {
    std::uint32_t* at = bound_at_.data();
    std::uint32_t* left0 = bound_l0_.data();
    std::size_t nb = 0;
    std::uint32_t l0 = 0;
    for (std::uint32_t k = 0; k + 1 < n; ++k) {
      l0 += label_[ids[k] & kRowMask] == c0;
      at[nb] = k;
      left0[nb] = l0;
      nb += ids[k + 1] >> 31;  // kNewValue
    }
    for (std::size_t j = 0; j < nb; ++j) {
      const std::size_t n_left = at[j] + 1;
      const std::size_t l = left0[j];
      // A boundary whose screen sits above best - 1e-12 + kScreenSlack
      // has a score above best - 1e-12 and cannot pass the strict test.
      if (detail::two_class_screen(n, n_left, l, total0, total1) +
              (1e-12 - detail::kScreenSlack) >=
          best.score) {
        continue;
      }
      const double score =
          detail::two_class_score(n, n_left, l, total0, total1);
      if (score + 1e-12 < best.score) best = {score, s, at[j], true};
    }
  }

  /// Any number of present classes, each counted on the left.
  void scan_many(std::size_t s, const std::uint32_t* ids, std::size_t n,
                 const std::vector<std::uint32_t>& present,
                 const std::vector<std::size_t>& counts, Best& best) {
    for (const std::uint32_t c : present) left_counts_[c] = 0;
    for (std::size_t k = 0; k + 1 < n; ++k) {
      ++left_counts_[label_[ids[k] & kRowMask]];
      if ((ids[k + 1] & kNewValue) == 0) continue;  // no boundary
      const std::size_t n_left = k + 1;
      const std::size_t n_right = n - n_left;
      double right_sq = 0.0;
      for (const std::uint32_t c : present) {
        const double p = static_cast<double>(counts[c] - left_counts_[c]) /
                         static_cast<double>(n_right);
        right_sq += p * p;
      }
      double left_sq = 0.0;
      for (const std::uint32_t c : present) {
        const double p = static_cast<double>(left_counts_[c]) /
                         static_cast<double>(n_left);
        left_sq += p * p;
      }
      const double score =
          weighted_gini(n, n_left, 1.0 - left_sq, 1.0 - right_sq);
      if (score + 1e-12 < best.score) best = {score, s, k, true};
    }
  }

  /// Stable partition of slot s's [lo, hi) by goes_left_: left entries
  /// first. An entry's new-value mark in its child is the OR of the marks
  /// since the child's previous entry, as in filter(). Each entry is
  /// written to both sides and only its own side advances, so the loop
  /// has no branch on the side.
  void partition(std::size_t s, std::uint32_t lo, std::uint32_t hi) {
    std::uint32_t* ids = &ids_[s * n_];
    std::uint32_t* spill = spill_.data();
    std::uint32_t out = lo;
    std::size_t spilled = 0;
    std::uint32_t fresh_left = 0;
    std::uint32_t fresh_right = 0;
    for (std::uint32_t k = lo; k < hi; ++k) {
      const std::uint32_t id = ids[k] & kRowMask;
      const std::uint32_t mark = ids[k] & kNewValue;
      const std::uint32_t left = goes_left_[id];
      fresh_left |= mark;
      fresh_right |= mark;
      ids[out] = id | fresh_left;
      spill[spilled] = id | fresh_right;
      out += left;
      spilled += 1u - left;
      fresh_left &= left - 1u;
      fresh_right &= 0u - left;
    }
    std::copy_n(spill, spilled, ids + out);
  }

  const DecisionTreeConfig& cfg_;
  const SortedColumns& table_;
  std::size_t n_;
  std::size_t n_classes_;
  std::vector<std::uint32_t> label_;
  std::vector<std::size_t> features_;
  std::vector<std::uint32_t> ids_;
  std::vector<unsigned char> goes_left_;
  std::vector<std::uint32_t> spill_;
  std::vector<std::uint32_t> bound_at_;  // a two-class scan's boundaries
  std::vector<std::uint32_t> bound_l0_;
  std::vector<std::size_t> left_counts_;
  std::vector<Node> nodes_;
};

std::vector<std::size_t> identity_rows(std::size_t n) {
  std::vector<std::size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

}  // namespace

namespace detail {

double two_class_score(std::size_t n, std::size_t n_left, std::size_t l0,
                       std::size_t total0, std::size_t total1) {
  const std::size_t n_right = n - n_left;
  const std::size_t l1 = n_left - l0;
  const double r0 =
      static_cast<double>(total0 - l0) / static_cast<double>(n_right);
  const double r1 =
      static_cast<double>(total1 - l1) / static_cast<double>(n_right);
  double right_sq = 0.0;
  right_sq += r0 * r0;
  right_sq += r1 * r1;
  const double p0 = static_cast<double>(l0) / static_cast<double>(n_left);
  const double p1 = static_cast<double>(l1) / static_cast<double>(n_left);
  double left_sq = 0.0;
  left_sq += p0 * p0;
  left_sq += p1 * p1;
  return weighted_gini(n, n_left, 1.0 - left_sq, 1.0 - right_sq);
}

double two_class_screen(std::size_t n, std::size_t n_left, std::size_t l0,
                        std::size_t total0, std::size_t total1) {
  // The exact score is 1 - (a / n_left + b / n_right) / n, with a and b
  // the sums of squared class counts on each side; here with one
  // division. Every operand is non-negative until the final subtraction
  // from 1, so each of this and two_class_score() lies within 8
  // roundings of relative error 2^-53 of the exact value in [0, 1].
  const double dl = static_cast<double>(n_left);
  const double dr = static_cast<double>(n - n_left);
  const double l = static_cast<double>(l0);
  const double l1 = dl - l;
  const double r0 = static_cast<double>(total0) - l;
  const double r1 = static_cast<double>(total1) - l1;
  const double a = l * l + l1 * l1;
  const double b = r0 * r0 + r1 * r1;
  return 1.0 - (a * dr + b * dl) / (dl * dr * static_cast<double>(n));
}

}  // namespace detail

SortedColumns::SortedColumns(const std::vector<std::vector<double>>& X)
    : X_(X), rows_(X.size()), width_(X.empty() ? 0 : X.front().size()) {}

SortedColumns::SortedColumns(const std::vector<std::vector<double>>& X,
                             std::vector<std::size_t> cover)
    : X_(X), cover_(std::move(cover)), rows_(cover_.size()) {
  for (const std::size_t r : cover_) MPIDETECT_EXPECTS(r < X.size());
  // An empty cover would read as "every row of X" in x_row().
  MPIDETECT_EXPECTS(!cover_.empty());
  width_ = X[cover_.front()].size();
}

SortedColumns::~SortedColumns() {
  if (cells_ != nullptr) ::munmap(cells_, cell_bytes_);
}

void SortedColumns::build() const {
  if (built()) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!allocated_) {
      MPIDETECT_EXPECTS(rows_ <= kRowMask);
      for (std::size_t t = 0; t < rows_; ++t) {
        MPIDETECT_EXPECTS(X_[x_row(t)].size() == width_);
      }
      if (width_ == 0 || rows_ == 0) {
        allocated_ = true;
        complete_.store(true);
        return;
      }
      // Mapped, not malloc'd: whichever pool thread fits first allocates
      // the table, and a malloc'd table freed later stays as free space
      // in that thread's arena, so over a run every pool thread's arena
      // grew by a table (paper-eval peak RSS rose 13 MB on 4 threads with
      // a table twice this size). Unmapped pages go back to the system.
      cell_bytes_ = width_ * rows_ * sizeof(std::uint32_t);
      void* p = ::mmap(nullptr, cell_bytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      cells_ = static_cast<std::uint32_t*>(p);
      nonfinite_.assign(width_, 0);
      allocated_ = true;
    }
  }
  std::vector<Keyed> col(rows_), scratch(rows_);
  for (std::size_t f = next_.fetch_add(1); f < width_;
       f = next_.fetch_add(1)) {
    nonfinite_[f] = sort_column(*this, f, col, scratch, cells_ + f * rows_);
    if (done_.fetch_add(1) + 1 == width_) {
      const std::lock_guard<std::mutex> lock(mu_);
      complete_.store(true);
      done_cv_.notify_all();
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return built(); });
}

std::span<const std::uint32_t> SortedColumns::order(std::size_t f) const {
  MPIDETECT_EXPECTS(built() && f < width_);
  return {cells_ + f * rows_, rows_};
}

void DecisionTree::fit(const std::vector<std::vector<double>>& X,
                       const std::vector<std::size_t>& y) {
  fit(X, identity_rows(X.size()), y);
}

void DecisionTree::fit(const std::vector<std::vector<double>>& X,
                       std::span<const std::size_t> rows,
                       std::span<const std::size_t> y) {
  MPIDETECT_EXPECTS(!rows.empty() && rows.size() == y.size());
  const SortedColumns table(X, {rows.begin(), rows.end()});
  fit(table, identity_rows(rows.size()), y);
}

void DecisionTree::fit(const SortedColumns& table,
                       std::span<const std::size_t> rows,
                       std::span<const std::size_t> y) {
  MPIDETECT_EXPECTS(!rows.empty() && rows.size() == y.size());
  MPIDETECT_EXPECTS(rows.size() <= kRowMask);
  const std::size_t n_classes = *std::max_element(y.begin(), y.end()) + 1;
  MPIDETECT_EXPECTS(n_classes < kAbsent);
  std::vector<std::uint32_t> label(table.rows(), kAbsent);
  bool repeated = false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    MPIDETECT_EXPECTS(rows[i] < table.rows());
    repeated |= label[rows[i]] != kAbsent;
    label[rows[i]] = static_cast<std::uint32_t>(y[i]);
  }
  if (repeated) {
    std::vector<std::size_t> cover(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      cover[i] = table.x_row(rows[i]);
    }
    const SortedColumns own(table.matrix(), std::move(cover));
    fit(own, identity_rows(rows.size()), y);
    return;
  }
  table.build();
  nodes_ = PresortedCart(cfg_, table, rows, std::move(label), n_classes).grow();
  n_classes_ = n_classes;
  n_features_ = table.width();
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
