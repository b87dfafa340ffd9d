#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "core/features.hpp"
#include "datasets/mbi.hpp"
#include "datasets/spec.hpp"
#include "ml/adam.hpp"
#include "ml/decision_tree.hpp"
#include "ml/genetic.hpp"
#include "ml/gnn.hpp"
#include "ml/kernels.hpp"
#include "ml/kfold.hpp"
#include "ml/metrics.hpp"
#include "programl/graph.hpp"
#include "progmodel/lower.hpp"
#include "support/check.hpp"

namespace mpidetect::ml {
namespace {

// ------------------------------------------------------------ decision tree

TEST(DecisionTree, GiniValues) {
  const std::size_t pure[] = {4, 0};
  const std::size_t even[] = {2, 2};
  EXPECT_DOUBLE_EQ(gini(pure, 4), 0.0);
  EXPECT_DOUBLE_EQ(gini(even, 4), 0.5);
}

TEST(DecisionTree, LearnsAxisAlignedSplit) {
  std::vector<std::vector<double>> X;
  std::vector<std::size_t> y;
  for (int i = 0; i < 40; ++i) {
    X.push_back({static_cast<double>(i), 0.0});
    y.push_back(i < 20 ? 0 : 1);
  }
  DecisionTree dt;
  dt.fit(X, y);
  EXPECT_EQ(dt.predict(std::vector<double>{5.0, 0.0}), 0u);
  EXPECT_EQ(dt.predict(std::vector<double>{35.0, 0.0}), 1u);
  EXPECT_LE(dt.depth(), 2u);
}

TEST(DecisionTree, FitsTrainingSetPerfectlyAtFullDepth) {
  Rng rng(3);
  std::vector<std::vector<double>> X;
  std::vector<std::size_t> y;
  for (int i = 0; i < 100; ++i) {
    X.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    y.push_back(rng.index(3));
  }
  DecisionTree dt;
  dt.fit(X, y);
  const auto pred = dt.predict(X);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i) correct += (pred[i] == y[i]);
  // Random continuous features: full-depth CART memorizes the data.
  EXPECT_EQ(correct, y.size());
}

TEST(DecisionTree, MaxDepthLimitsTree) {
  Rng rng(4);
  std::vector<std::vector<double>> X;
  std::vector<std::size_t> y;
  for (int i = 0; i < 200; ++i) {
    X.push_back({rng.uniform()});
    y.push_back(rng.index(2));
  }
  DecisionTreeConfig cfg;
  cfg.max_depth = 3;
  DecisionTree dt(cfg);
  dt.fit(X, y);
  EXPECT_LE(dt.depth(), 3u);
}

TEST(DecisionTree, FeatureSubsetRestrictsSplits) {
  // Feature 0 perfectly separates; feature 1 is noise. Restricting to
  // feature 1 must hurt training accuracy.
  Rng rng(5);
  std::vector<std::vector<double>> X;
  std::vector<std::size_t> y;
  for (int i = 0; i < 100; ++i) {
    const std::size_t label = rng.index(2);
    X.push_back({static_cast<double>(label), 0.0});
    y.push_back(label);
  }
  DecisionTreeConfig cfg;
  cfg.feature_subset = std::vector<std::size_t>{1};
  DecisionTree dt(cfg);
  dt.fit(X, y);
  // Only constant feature available: tree is a single leaf.
  EXPECT_EQ(dt.node_count(), 1u);
}

TEST(DecisionTree, PredictBeforeFitThrows) {
  DecisionTree dt;
  EXPECT_THROW(dt.predict(std::vector<double>{1.0}), ContractViolation);
}

TEST(DecisionTree, PredictRejectsRowOfWrongWidth) {
  std::vector<std::vector<double>> X = {{0.0, 0.0}, {1.0, 0.0}};
  DecisionTree dt;
  dt.fit(X, {0, 1});
  EXPECT_NO_THROW(dt.predict(std::vector<double>{1.0, 0.0}));
  EXPECT_THROW(dt.predict(std::vector<double>{1.0}), ContractViolation);
  EXPECT_THROW(dt.predict(std::vector<double>{1.0, 0.0, 0.0}),
               ContractViolation);
}

TEST(DecisionTree, FitRejectsNonFiniteFeatures) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double v : bad) {
    std::vector<std::vector<double>> X(6, std::vector<double>(3, 0.5));
    for (std::size_t i = 0; i < X.size(); ++i) X[i][0] = double(i);
    X[4][2] = v;
    const std::vector<std::size_t> y = {0, 1, 0, 1, 0, 1};
    DecisionTree dt;
    try {
      dt.fit(X, y);
      ADD_FAILURE() << "fit accepted " << v;
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("row 4, feature 2"),
                std::string::npos)
          << e.what();
    }
    // Through row ids the message names the row of X.
    const std::size_t rows[] = {1, 4, 5};
    const std::size_t yr[] = {1, 0, 1};
    EXPECT_THROW(dt.fit(X, rows, yr), ContractViolation);
    EXPECT_FALSE(dt.trained());
  }
}

// The sort-per-node CART the presorted fit replaced, kept as the
// reference the presorted trees must equal node for node.
std::size_t reference_build(const DecisionTreeConfig& cfg,
                            const std::vector<std::vector<double>>& X,
                            const std::vector<std::size_t>& y,
                            std::size_t n_classes,
                            std::vector<std::size_t> indices,
                            std::size_t depth,
                            std::vector<DecisionTree::Node>& nodes) {
  const std::size_t me = nodes.size();
  nodes.push_back(DecisionTree::Node{});
  nodes[me].depth = depth;
  std::vector<std::size_t> counts(n_classes, 0);
  for (const std::size_t i : indices) ++counts[y[i]];
  nodes[me].label = static_cast<std::size_t>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  const double impurity = gini(counts, indices.size());
  if (impurity <= 0.0 || indices.size() < cfg.min_samples_split ||
      (cfg.max_depth != 0 && depth >= cfg.max_depth)) {
    return me;
  }
  std::vector<std::size_t> features(X.front().size());
  std::iota(features.begin(), features.end(), std::size_t{0});
  if (cfg.feature_subset.has_value()) features = *cfg.feature_subset;
  double best_score = impurity, best_threshold = 0.0;
  std::size_t best_feature = 0;
  bool found = false;
  std::vector<std::pair<double, std::size_t>> col(indices.size());
  std::vector<std::size_t> left(n_classes), right(n_classes);
  for (const std::size_t f : features) {
    if (f >= X.front().size()) continue;
    for (std::size_t k = 0; k < indices.size(); ++k) {
      col[k] = {X[indices[k]][f], y[indices[k]]};
    }
    std::sort(col.begin(), col.end());
    std::fill(left.begin(), left.end(), 0);
    const std::size_t n = col.size();
    for (std::size_t k = 0; k + 1 < n; ++k) {
      ++left[col[k].second];
      if (col[k].first == col[k + 1].first) continue;
      for (std::size_t c = 0; c < n_classes; ++c) {
        right[c] = counts[c] - left[c];
      }
      const double score = (double(k + 1) * gini(left, k + 1) +
                            double(n - k - 1) * gini(right, n - k - 1)) /
                           double(n);
      if (score + 1e-12 < best_score) {
        best_score = score;
        best_feature = f;
        best_threshold = (col[k].first + col[k + 1].first) / 2.0;
        found = true;
      }
    }
  }
  if (!found) return me;
  std::vector<std::size_t> left_idx, right_idx;
  for (const std::size_t i : indices) {
    (X[i][best_feature] <= best_threshold ? left_idx : right_idx).push_back(i);
  }
  if (left_idx.empty() || right_idx.empty()) return me;
  nodes[me].leaf = false;
  nodes[me].feature = best_feature;
  nodes[me].threshold = best_threshold;
  const std::size_t l =
      reference_build(cfg, X, y, n_classes, left_idx, depth + 1, nodes);
  nodes[me].left = static_cast<std::int32_t>(l);
  const std::size_t r =
      reference_build(cfg, X, y, n_classes, right_idx, depth + 1, nodes);
  nodes[me].right = static_cast<std::int32_t>(r);
  return me;
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void expect_same_nodes(const std::vector<DecisionTree::Node>& got,
                       const std::vector<DecisionTree::Node>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].leaf, want[i].leaf);
    EXPECT_EQ(got[i].label, want[i].label);
    EXPECT_EQ(got[i].feature, want[i].feature);
    EXPECT_EQ(bits(got[i].threshold), bits(want[i].threshold));
    EXPECT_EQ(got[i].left, want[i].left);
    EXPECT_EQ(got[i].right, want[i].right);
    EXPECT_EQ(got[i].depth, want[i].depth);
  }
}

/// The sort-per-node reference tree of the samples (X[i], y[i]).
std::vector<DecisionTree::Node> reference_tree(
    const DecisionTreeConfig& cfg, const std::vector<std::vector<double>>& X,
    const std::vector<std::size_t>& y) {
  std::vector<std::size_t> all(X.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<DecisionTree::Node> want;
  reference_build(cfg, X, y, *std::max_element(y.begin(), y.end()) + 1, all,
                  0, want);
  return want;
}

/// Fits both CARTs and asserts node-for-node equality, thresholds by bits.
void expect_reference_tree(const DecisionTreeConfig& cfg,
                           const std::vector<std::vector<double>>& X,
                           const std::vector<std::size_t>& y) {
  DecisionTree dt(cfg);
  dt.fit(X, y);
  expect_same_nodes(dt.nodes(), reference_tree(cfg, X, y));
}

/// Fits the table rows `rows` (labels y[i]) by filtering `table`, and
/// asserts the tree equals the reference grown on copies of those rows.
void expect_shared_table_tree(const DecisionTreeConfig& cfg,
                              const SortedColumns& table,
                              const std::vector<std::size_t>& rows,
                              const std::vector<std::size_t>& y) {
  std::vector<std::vector<double>> copied;
  for (const std::size_t t : rows) {
    copied.push_back(table.matrix()[table.x_row(t)]);
  }
  DecisionTree dt(cfg);
  dt.fit(table, rows, y);
  expect_same_nodes(dt.nodes(), reference_tree(cfg, copied, y));
  EXPECT_EQ(dt.num_features(), table.width());
}

/// Seeded rows whose values come from a small pool, so columns tie, mix
/// -0.0 with +0.0, sit on adjacent doubles (a midpoint that rounds onto a
/// neighbour) or overflow their midpoint; column 0 is constant.
/// Labels follow column 1 where it is high, so subtrees miss classes.
void tie_heavy_set(std::uint64_t seed, std::size_t n, std::size_t width,
                   std::size_t n_classes,
                   std::vector<std::vector<double>>& X,
                   std::vector<std::size_t>& y) {
  const double odd = std::nextafter(1.0, 2.0);  // (odd + even) / 2 == even
  const double pool[] = {-1.0, -0.0,    0.0, 0.5,      1.0,     odd,
                         std::nextafter(odd, 2.0), 2.0, -1.7e308, 1.7e308,
                         1.75e308};
  Rng rng(seed);
  X.assign(n, std::vector<double>(width, 3.25));
  y.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 1; f < width; ++f) {
      X[i][f] = pool[rng.index(std::size(pool))];
    }
    y[i] = X[i][1] > 0.75 ? n_classes - 1 : rng.index(n_classes);
  }
}

TEST(DecisionTree, PresortedFitMatchesSortPerNodeReference) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    std::vector<std::vector<double>> X;
    std::vector<std::size_t> y;
    tie_heavy_set(seed, 1 + seed * 17, 6, 2 + seed % 4, X, y);
    expect_reference_tree({}, X, y);

    DecisionTreeConfig subset;
    subset.feature_subset = std::vector<std::size_t>{4, 1, 4, 99, 2, 1, 6};
    expect_reference_tree(subset, X, y);

    DecisionTreeConfig limited;
    limited.max_depth = 1 + seed % 3;
    limited.min_samples_split = 2 + seed % 9;
    expect_reference_tree(limited, X, y);
  }
}

TEST(DecisionTree, PresortedFitMatchesReferenceOnEdgeSets) {
  // A single sample, and a lone mid-range class whose id leaves gaps.
  expect_reference_tree({}, {{1.0, 2.0}}, {3});
  std::vector<std::vector<double>> X;
  std::vector<std::size_t> y;
  Rng rng(77);
  for (int i = 0; i < 90; ++i) {
    X.push_back({rng.uniform(), std::floor(rng.uniform() * 4.0), -0.0});
    y.push_back(i % 3 == 0 ? 5 : 2 * rng.index(2));
  }
  expect_reference_tree({}, X, y);
  // Only constant or out-of-range candidates: a single leaf.
  DecisionTreeConfig none;
  none.feature_subset = std::vector<std::size_t>{2, 7};
  expect_reference_tree(none, X, y);
  none.feature_subset = std::vector<std::size_t>{};
  expect_reference_tree(none, X, y);
}

TEST(DecisionTree, PresortedFitMatchesReferenceOnIr2vecFeatures) {
  const auto fs = core::extract_features(
      datasets::make_dataset("mbi:0.05"), passes::OptLevel::Os,
      ir2vec::Normalization::Vector);
  expect_reference_tree({}, fs.X, fs.y_binary);
  expect_reference_tree({}, fs.X, fs.y_label);
  Rng rng(9);
  for (int trial = 0; trial < 4; ++trial) {
    DecisionTreeConfig cfg;
    std::vector<std::size_t> subset;
    for (int k = 0; k < 5; ++k) subset.push_back(rng.index(fs.X[0].size()));
    cfg.feature_subset = subset;
    expect_reference_tree(cfg, fs.X, fs.y_binary);
  }
}

TEST(DecisionTree, SharedTableFitMatchesSortPerNodeReference) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    // One table over a superset of rows serves every fit below.
    std::vector<std::vector<double>> X;
    std::vector<std::size_t> y_all;
    tie_heavy_set(seed, 40 + seed * 23, 6, 2 + seed % 4, X, y_all);
    const SortedColumns table(X);
    EXPECT_FALSE(table.built());
    Rng rng(seed + 100);
    for (int fit = 0; fit < 4; ++fit) {
      SCOPED_TRACE(fit);
      // A shuffled subset of distinct rows, leaving some rows out.
      std::vector<std::size_t> rows;
      std::vector<std::size_t> y;
      for (std::size_t t = 0; t < X.size(); ++t) {
        if (rng.index(4) != 0) rows.push_back(t);
      }
      if (rows.empty()) rows.push_back(0);
      for (std::size_t i = rows.size(); i > 1; --i) {
        std::swap(rows[i - 1], rows[rng.index(i)]);
      }
      for (const std::size_t t : rows) y.push_back(y_all[t]);
      expect_shared_table_tree({}, table, rows, y);

      DecisionTreeConfig subset;
      subset.feature_subset = std::vector<std::size_t>{4, 1, 4, 99, 2, 1, 6};
      expect_shared_table_tree(subset, table, rows, y);

      DecisionTreeConfig limited;
      limited.max_depth = 1 + seed % 3;
      limited.min_samples_split = 2 + seed % 9;
      expect_shared_table_tree(limited, table, rows, y);
    }
    EXPECT_TRUE(table.built());
  }
}

TEST(DecisionTree, SharedTableFitMatchesReferenceOnEdgeSets) {
  std::vector<std::vector<double>> X;
  std::vector<std::size_t> y_all;
  Rng rng(78);
  for (int i = 0; i < 120; ++i) {
    // Column 2 is constant (-0.0 and +0.0 mixed), column 3 constant 7.
    X.push_back({rng.uniform(), std::floor(rng.uniform() * 4.0),
                 i % 2 == 0 ? -0.0 : 0.0, 7.0});
    y_all.push_back(i % 3 == 0 ? 5 : 2 * rng.index(2));
  }
  const SortedColumns table(X);
  std::vector<std::size_t> rows;
  std::vector<std::size_t> y;
  for (std::size_t t = 0; t < X.size(); t += 2) {
    rows.push_back(t);
    y.push_back(y_all[t]);
  }
  // Classes 1, 3 and 4 never occur; class 5 sits past the gap.
  expect_shared_table_tree({}, table, rows, y);
  // A single sample and a single class.
  expect_shared_table_tree({}, table, {7}, {3});
  // Only constant or out-of-range candidates: a single leaf.
  DecisionTreeConfig none;
  none.feature_subset = std::vector<std::size_t>{2, 3, 9};
  expect_shared_table_tree(none, table, rows, y);
  none.feature_subset = std::vector<std::size_t>{};
  expect_shared_table_tree(none, table, rows, y);
  // A row named twice is two samples, as in fit(X, rows, y).
  const std::vector<std::size_t> repeated = {3, 3, 10, 51, 10, 99, 0, 64};
  std::vector<std::size_t> yr;
  for (const std::size_t t : repeated) yr.push_back(y_all[t] == 5 ? 1 : 0);
  expect_shared_table_tree({}, table, repeated, yr);
  DecisionTree by_rows;
  by_rows.fit(X, repeated, yr);
  DecisionTree by_table;
  by_table.fit(table, repeated, yr);
  expect_same_nodes(by_table.nodes(), by_rows.nodes());
  // Table rows out of range are refused.
  const std::size_t out_of_range[] = {1, 120};
  const std::size_t y2[] = {0, 1};
  DecisionTree dt;
  EXPECT_THROW(dt.fit(table, out_of_range, y2), ContractViolation);
}

TEST(DecisionTree, SharedTableFitMatchesReferenceOnIr2vecFeatures) {
  const auto fs = core::extract_features(
      datasets::make_dataset("mbi:0.05"), passes::OptLevel::Os,
      ir2vec::Normalization::Vector);
  const SortedColumns table(fs.X);
  const auto folds = stratified_kfold(fs.y_binary, 4, 11);
  Rng rng(10);
  for (const auto& val : folds) {
    const auto rows = fold_complement(val, fs.size());
    std::vector<std::size_t> yb;
    std::vector<std::size_t> yl;
    for (const std::size_t t : rows) {
      yb.push_back(fs.y_binary[t]);
      yl.push_back(fs.y_label[t]);
    }
    expect_shared_table_tree({}, table, rows, yb);
    expect_shared_table_tree({}, table, rows, yl);
    // GA-sized candidate sets.
    DecisionTreeConfig cfg;
    std::vector<std::size_t> subset;
    for (int k = 0; k < 5; ++k) subset.push_back(rng.index(fs.X[0].size()));
    cfg.feature_subset = subset;
    expect_shared_table_tree(cfg, table, rows, yb);
  }
}

TEST(DecisionTree, SharedTableFitMatchesReferenceBesideNonFiniteValues) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double v : bad) {
    SCOPED_TRACE(v);
    std::vector<std::vector<double>> X;
    std::vector<std::size_t> y_all;
    tie_heavy_set(21, 60, 5, 3, X, y_all);
    X[13][2] = v;  // a row the fits below leave out
    X[40][4] = v;  // a training row, in feature 4 only
    const SortedColumns table(X);
    std::vector<std::size_t> rows;
    std::vector<std::size_t> y;
    for (std::size_t t = 0; t < X.size(); ++t) {
      if (t != 13) {
        rows.push_back(t);
        y.push_back(y_all[t]);
      }
    }
    // Feature 4 is not a candidate: the fit never reads the bad value.
    DecisionTreeConfig no_four;
    no_four.feature_subset = std::vector<std::size_t>{0, 1, 2, 3};
    expect_shared_table_tree(no_four, table, rows, y);
    // Feature 4 is a candidate: the first bad value in candidate order,
    // then in the fit's row order, is named by its row of X.
    DecisionTree dt;
    try {
      dt.fit(table, rows, y);
      ADD_FAILURE() << "fit accepted " << v;
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "DecisionTree::fit: non-finite value in row 40, feature 4"),
                std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(dt.trained());
    // Row 13 in the fit as well: feature 2 comes first.
    rows.push_back(13);
    y.push_back(0);
    try {
      dt.fit(table, rows, y);
      ADD_FAILURE() << "fit accepted " << v;
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("row 13, feature 2"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(DecisionTree, TwoClassScreenStaysWithinSlackOfScore) {
  // Each value lies within 8 roundings of 2^-53 of the exact score.
  const double bound = 16.0 * std::ldexp(1.0, -53);
  EXPECT_LT(10.0 * bound, detail::kScreenSlack);
  Rng rng(31);
  for (int i = 0; i < 200000; ++i) {
    // Node sizes from 2 to 2^31, log-uniform.
    const auto n = static_cast<std::size_t>(
        2.0 + std::exp2(rng.uniform() * 31.0));
    const std::size_t total0 = 1 + rng.index(n - 1);
    const std::size_t total1 = n - total0;
    const std::size_t n_left = 1 + rng.index(n - 1);
    const std::size_t lo = n_left > total1 ? n_left - total1 : 0;
    const std::size_t hi = std::min(n_left, total0);
    const std::size_t l0 = lo + rng.index(hi - lo + 1);
    const double score = detail::two_class_score(n, n_left, l0, total0, total1);
    const double screen =
        detail::two_class_screen(n, n_left, l0, total0, total1);
    ASSERT_LE(std::fabs(screen - score), bound)
        << n << " " << n_left << " " << l0 << " " << total0;
  }
}

TEST(DecisionTree, RowIdFitEqualsFitOnCopiedRows) {
  std::vector<std::vector<double>> X;
  std::vector<std::size_t> y;
  tie_heavy_set(5, 120, 5, 3, X, y);
  // A shuffled subset that repeats a row.
  std::vector<std::size_t> rows = {7, 3, 3, 50, 119, 0, 64, 12, 99, 31};
  for (std::size_t i = 0; i < 60; ++i) rows.push_back((i * 37) % 120);
  std::vector<std::vector<double>> Xc;
  std::vector<std::size_t> yc;
  for (const std::size_t r : rows) {
    Xc.push_back(X[r]);
    yc.push_back(y[r]);
  }
  DecisionTree by_id, copied;
  by_id.fit(X, rows, yc);
  copied.fit(Xc, yc);
  ASSERT_EQ(by_id.node_count(), copied.node_count());
  for (std::size_t i = 0; i < by_id.node_count(); ++i) {
    const auto& a = by_id.nodes()[i];
    const auto& b = copied.nodes()[i];
    EXPECT_EQ(a.leaf, b.leaf);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.feature, b.feature);
    EXPECT_EQ(bits(a.threshold), bits(b.threshold));
    EXPECT_EQ(a.left, b.left);
    EXPECT_EQ(a.right, b.right);
  }
  EXPECT_EQ(by_id.num_features(), copied.num_features());
  EXPECT_EQ(by_id.num_classes(), copied.num_classes());
}

// ---------------------------------------------------------------------- GA

TEST(Ga, FindsInformativeFeatures) {
  // Fitness rewards subsets containing feature 7.
  GaConfig cfg;
  cfg.population = 60;
  cfg.generations = 10;
  cfg.seed = 9;
  cfg.threads = 2;
  const auto res = select_features(
      32,
      [](const std::vector<std::size_t>& f) {
        for (const auto x : f) {
          if (x == 7) return 1.0;
        }
        return 0.1;
      },
      cfg);
  EXPECT_DOUBLE_EQ(res.best_fitness, 1.0);
  EXPECT_NE(std::find(res.best_features.begin(), res.best_features.end(), 7u),
            res.best_features.end());
}

TEST(Ga, ConvergenceCurveIsMonotoneWithElitism) {
  GaConfig cfg;
  cfg.population = 40;
  cfg.generations = 8;
  cfg.seed = 11;
  cfg.threads = 2;
  const auto res = select_features(
      16,
      [](const std::vector<std::size_t>& f) {
        double s = 0;
        for (const auto x : f) s += static_cast<double>(x);
        return s;  // maximize sum of indices
      },
      cfg);
  for (std::size_t g = 1; g < res.best_per_generation.size(); ++g) {
    EXPECT_GE(res.best_per_generation[g] + 1e-12,
              res.best_per_generation[g - 1]);
  }
}

TEST(Ga, DeterministicForSeed) {
  GaConfig cfg;
  cfg.population = 30;
  cfg.generations = 5;
  cfg.seed = 13;
  cfg.threads = 2;
  const auto fitness = [](const std::vector<std::size_t>& f) {
    return static_cast<double>(f.front() % 5);
  };
  const auto a = select_features(64, fitness, cfg);
  const auto b = select_features(64, fitness, cfg);
  EXPECT_EQ(a.best_features, b.best_features);
  EXPECT_EQ(a.best_fitness, b.best_fitness);
}

TEST(Ga, IndividualsHaveConfiguredGeneCount) {
  GaConfig cfg;
  cfg.population = 20;
  cfg.generations = 2;
  cfg.genes = 5;
  cfg.threads = 1;
  const auto res = select_features(
      512, [](const std::vector<std::size_t>&) { return 0.5; }, cfg);
  EXPECT_LE(res.best_features.size(), 5u);  // duplicates collapse
  EXPECT_GE(res.best_features.size(), 1u);
}

// ------------------------------------------------------------------ metrics

TEST(Metrics, MatchesPaperItacRow) {
  // Table III, ITAC: TP=859 TN=738 FP=4 FN=102 TO=157 RE=1.
  Confusion c;
  c.tp = 859;
  c.tn = 738;
  c.fp = 4;
  c.fn = 102;
  c.to = 157;
  c.re = 1;
  EXPECT_NEAR(c.recall(), 0.894, 1e-3);
  EXPECT_NEAR(c.precision(), 0.995, 1e-3);
  EXPECT_NEAR(c.f1(), 0.942, 1e-3);
  EXPECT_NEAR(c.coverage(), 1.0, 1e-12);
  EXPECT_NEAR(c.conclusiveness(), 0.915, 1e-3);
  EXPECT_NEAR(c.specificity(), 0.995, 1e-3);
  EXPECT_NEAR(c.overall_accuracy(), 0.858, 1e-3);
}

TEST(Metrics, MatchesPaperParcoachRow) {
  // Table III, PARCOACH: TP=775 TN=66 FP=679 FN=341.
  Confusion c;
  c.tp = 775;
  c.tn = 66;
  c.fp = 679;
  c.fn = 341;
  EXPECT_NEAR(c.recall(), 0.694, 1e-3);
  EXPECT_NEAR(c.precision(), 0.533, 1e-3);
  EXPECT_NEAR(c.f1(), 0.603, 1e-3);
  EXPECT_NEAR(c.specificity(), 0.088, 1e-2);
  EXPECT_NEAR(c.overall_accuracy(), 0.452, 1e-3);
  EXPECT_NEAR(c.conclusiveness(), 1.0, 1e-12);
}

TEST(Metrics, IdealTool) {
  Confusion c;
  c.tp = 1116;
  c.tn = 745;
  EXPECT_DOUBLE_EQ(c.recall(), 1.0);
  EXPECT_DOUBLE_EQ(c.precision(), 1.0);
  EXPECT_DOUBLE_EQ(c.f1(), 1.0);
  EXPECT_DOUBLE_EQ(c.overall_accuracy(), 1.0);
}

TEST(Metrics, AddRoutesToRightCell) {
  Confusion c;
  c.add(true, true);    // tp
  c.add(true, false);   // fn
  c.add(false, true);   // fp
  c.add(false, false);  // tn
  EXPECT_EQ(c.tp, 1u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.tn, 1u);
}

TEST(Metrics, AccumulateAcrossFolds) {
  Confusion a, b;
  a.tp = 10;
  b.tp = 5;
  b.to = 2;
  a += b;
  EXPECT_EQ(a.tp, 15u);
  EXPECT_EQ(a.to, 2u);
}

TEST(Metrics, EmptyConfusionIsSafe) {
  const Confusion c;
  EXPECT_DOUBLE_EQ(c.recall(), 0.0);
  EXPECT_DOUBLE_EQ(c.precision(), 0.0);
  EXPECT_DOUBLE_EQ(c.f1(), 0.0);
}

// -------------------------------------------------------------------- kfold

TEST(Kfold, FoldsPartitionAllIndices) {
  std::vector<std::size_t> labels;
  for (int i = 0; i < 103; ++i) labels.push_back(i % 3);
  const auto folds = stratified_kfold(labels, 10, 1);
  ASSERT_EQ(folds.size(), 10u);
  std::set<std::size_t> seen;
  for (const auto& f : folds) {
    for (const auto i : f) EXPECT_TRUE(seen.insert(i).second);
  }
  EXPECT_EQ(seen.size(), labels.size());
}

TEST(Kfold, StratificationPreservesClassBalance) {
  std::vector<std::size_t> labels;
  for (int i = 0; i < 200; ++i) labels.push_back(i < 180 ? 0 : 1);
  const auto folds = stratified_kfold(labels, 10, 2);
  for (const auto& f : folds) {
    std::size_t minority = 0;
    for (const auto i : f) minority += (labels[i] == 1);
    // 20 minority samples over 10 folds -> exactly 2 each.
    EXPECT_EQ(minority, 2u);
  }
}

TEST(Kfold, ComplementCoversRest) {
  std::vector<std::size_t> labels(20, 0);
  const auto folds = stratified_kfold(labels, 4, 3);
  const auto train = fold_complement(folds[0], labels.size());
  EXPECT_EQ(train.size(), labels.size() - folds[0].size());
}

TEST(Kfold, DeterministicForSeed) {
  std::vector<std::size_t> labels(50, 0);
  for (std::size_t i = 0; i < 50; i += 3) labels[i] = 1;
  EXPECT_EQ(stratified_kfold(labels, 5, 7), stratified_kfold(labels, 5, 7));
  EXPECT_NE(stratified_kfold(labels, 5, 7), stratified_kfold(labels, 5, 8));
}

// ---------------------------------------------------------------------- GNN

programl::ProgramGraph tiny_graph(std::uint32_t token_a,
                                  std::uint32_t token_b) {
  programl::ProgramGraph g;
  g.nodes.push_back({programl::NodeType::Control, token_a, "a"});
  g.nodes.push_back({programl::NodeType::Control, token_b, "b"});
  g.nodes.push_back({programl::NodeType::Variable, 3, "v"});
  g.edges[0].push_back({0, 1});
  g.edges[1].push_back({2, 0});
  g.edges[1].push_back({2, 1});
  return g;
}

GnnConfig tiny_gnn_config() {
  GnnConfig cfg;
  cfg.embed_dim = 8;
  cfg.layers = {16, 8};
  cfg.fc_hidden = 8;
  cfg.classes = 2;
  cfg.epochs = 30;
  cfg.lr = 0.01;
  return cfg;
}

TEST(Gnn, ForwardShapeAndDeterminism) {
  GnnModel model(tiny_gnn_config());
  const auto g = tiny_graph(1, 2);
  const auto l1 = model.forward(g);
  const auto l2 = model.forward(g);
  EXPECT_EQ(l1->value.rows(), 1u);
  EXPECT_EQ(l1->value.cols(), 2u);
  EXPECT_EQ(l1->value.data(), l2->value.data());
}

TEST(Gnn, PaperArchitectureDimensions) {
  GnnConfig cfg;
  cfg.classes = 10;
  GnnModel model(cfg);
  EXPECT_EQ(cfg.layers, (std::vector<std::size_t>{128, 64, 32}));
  EXPECT_DOUBLE_EQ(cfg.lr, 4e-4);
  EXPECT_EQ(cfg.epochs, 10);
  EXPECT_GT(model.parameter_count(), 10000u);
}

TEST(Gnn, LossDecreasesOnSingleExample) {
  GnnModel model(tiny_gnn_config());
  const auto g = tiny_graph(1, 2);
  const double first = model.train_step(g, 0);
  double last = first;
  for (int i = 0; i < 40; ++i) last = model.train_step(g, 0);
  EXPECT_LT(last, first);
}

TEST(Gnn, LearnsToSeparateTokenPatterns) {
  // Two synthetic "program families" distinguished by node tokens.
  GnnModel model(tiny_gnn_config());
  std::vector<programl::ProgramGraph> graphs;
  std::vector<std::size_t> labels;
  for (int i = 0; i < 8; ++i) {
    graphs.push_back(tiny_graph(10, 11));
    labels.push_back(0);
    graphs.push_back(tiny_graph(20, 21));
    labels.push_back(1);
  }
  model.fit(graphs, labels);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    correct += (model.predict(graphs[i]) == labels[i]);
  }
  EXPECT_EQ(correct, graphs.size());
}

TEST(Gnn, NonFiniteLossFailsTrainingNamingTheStep) {
  // A diverged run must not finish as if it had trained: one NaN in the
  // output bias makes the very first loss NaN.
  GnnModel model(tiny_gnn_config());
  std::vector<Matrix> params;
  for (const Matrix* p : model.parameters()) params.push_back(*p);
  params.back().data()[0] = std::numeric_limits<double>::quiet_NaN();
  model.set_parameters(std::move(params));
  const std::vector<programl::ProgramGraph> graphs{tiny_graph(1, 2),
                                                   tiny_graph(3, 4)};
  const std::vector<std::size_t> labels{0, 1};
  try {
    model.fit(graphs, labels);
    ADD_FAILURE() << "fit returned normally on a NaN loss";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("epoch 0, step 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(Gnn, SetParametersResetsTrainingState) {
  // A model given P must train exactly like a fresh model given P: no
  // Adam moments, step count or shuffle position may survive from the
  // training it did before.
  GnnConfig cfg = tiny_gnn_config();
  cfg.epochs = 3;
  std::vector<programl::ProgramGraph> graphs;
  std::vector<std::size_t> labels;
  for (std::uint32_t i = 0; i < 6; ++i) {
    graphs.push_back(tiny_graph(i + 1, 2 * i + 7));
    labels.push_back(i % 2);
  }
  std::vector<Matrix> p;
  {
    cfg.seed = 99;
    GnnModel source(cfg);
    source.fit(graphs, labels);
    for (const Matrix* m : source.parameters()) p.push_back(*m);
  }
  cfg.seed = 7;
  GnnModel trained(cfg);
  trained.fit(graphs, labels);
  trained.set_parameters(p);
  trained.fit(graphs, labels);
  GnnModel fresh(cfg);
  fresh.set_parameters(p);
  fresh.fit(graphs, labels);
  const auto a = trained.parameters();
  const auto b = fresh.parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(a[i]->data().data(), b[i]->data().data(),
                          a[i]->size() * sizeof(double)),
              0)
        << "parameter tensor " << i;
  }
}

TEST(Gnn, ProbabilitiesSumToOne) {
  GnnModel model(tiny_gnn_config());
  const auto p = model.predict_proba(tiny_graph(1, 2));
  double sum = 0;
  for (const double x : p) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Gnn, HandlesGraphWithNoEdgesOfSomeRelation) {
  GnnModel model(tiny_gnn_config());
  programl::ProgramGraph g;
  g.nodes.push_back({programl::NodeType::Control, 1, "only"});
  // No edges at all: self path must still produce logits.
  EXPECT_NO_THROW(model.forward(g));
}

TEST(Gnn, TrainsOnRealProgramGraphs) {
  datasets::MbiConfig cfg;
  cfg.scale = 0.01;
  const auto ds = datasets::generate_mbi(cfg);
  std::vector<programl::ProgramGraph> graphs;
  std::vector<std::size_t> labels;
  for (const auto& c : ds.cases) {
    graphs.push_back(programl::build_graph(*progmodel::lower(c.program)));
    labels.push_back(c.incorrect ? 1 : 0);
  }
  GnnConfig gcfg = tiny_gnn_config();
  gcfg.epochs = 3;
  GnnModel model(gcfg);
  EXPECT_NO_THROW(model.fit(graphs, labels));
  // Predictions are valid class ids.
  for (const auto& g : graphs) EXPECT_LT(model.predict(g), 2u);
}

// ------------------------------------------------------------------ adam

TEST(Adam, DispatchedStepBitIdenticalToScalar) {
  // The dispatched update (SIMD lanes plus the scalar tail) against the
  // forced-scalar loop, step after step, from identical parameters and
  // gradients. Lengths 1-9 cover every tail; 110,562 is the paper GNN's
  // parameter count.
  std::vector<std::size_t> lengths{1, 2, 3, 4, 5, 6, 7, 8, 9, 110562};
  for (const std::size_t n : lengths) {
    Rng rng(n);
    Matrix init(1, n);
    for (double& x : init.data()) x = rng.normal();
    Var live = make_param(init);
    Var scalar = make_param(init);
    Adam live_opt({live}, 4e-4);
    Adam scalar_opt({scalar}, 4e-4);
    for (int step = 0; step < 4; ++step) {
      Matrix g(1, n);
      for (std::size_t k = 0; k < n; ++k) {
        // Mixed magnitudes, plus exact zeros (the embedding rows a graph
        // does not touch).
        g.data()[k] = k % 3 == 0 ? 0.0 : rng.normal() * (k % 2 ? 1e-6 : 1.0);
      }
      live->ensure_grad() = g;
      scalar->ensure_grad() = g;
      live_opt.step();
      {
        kernels::ScopedForceScalar force(true);
        scalar_opt.step();
      }
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(std::memcmp(&live->value.data()[k],
                              &scalar->value.data()[k], sizeof(double)),
                  0)
            << "n=" << n << " step=" << step << " k=" << k;
        ASSERT_EQ(live->grad.data()[k], 0.0);
      }
    }
  }
}

// The paper protocol's training trajectory, pinned bit for bit: a
// default-config fit (batch_size 1, GATv2 128/64/32) over the O0 graphs
// of the fixed gnn-kfold corpus, digested over every trained parameter
// and every predicted probability. Any kernel, fusion or optimizer
// change that moves a single bit of that trajectory changes the digest.
// The value was recorded from the unfused seed pipeline with the
// axpy-form kernels; it must hold on the detected SIMD target and on
// the scalar fallback alike.
std::uint64_t fnv1a_doubles(std::uint64_t h, const double* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &p[i], sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::uint64_t paper_protocol_fit_digest() {
  const core::GraphSet gs = core::extract_graphs(
      datasets::make_dataset("mbi:0.015@1"), passes::OptLevel::O0, 1);
  GnnConfig cfg;
  cfg.epochs = 2;
  GnnModel model(cfg);
  model.fit(gs.graphs, gs.y_binary);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Matrix* p : model.parameters()) {
    h = fnv1a_doubles(h, p->data().data(), p->size());
  }
  for (const auto& g : gs.graphs) {
    const std::vector<double> p = model.predict_proba(g);
    h = fnv1a_doubles(h, p.data(), p.size());
  }
  return h;
}

constexpr std::uint64_t kPaperProtocolFitDigest = 0x57c76bda8cc9a155ULL;

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(Gnn, PaperProtocolFitMatchesRecordedDigest) {
  EXPECT_EQ(hex(paper_protocol_fit_digest()), hex(kPaperProtocolFitDigest))
      << "isa=" << kernels::isa_name(kernels::active_isa());
  kernels::ScopedForceScalar scalar(true);
  EXPECT_EQ(hex(paper_protocol_fit_digest()), hex(kPaperProtocolFitDigest))
      << "isa=scalar";
}

}  // namespace
}  // namespace mpidetect::ml
