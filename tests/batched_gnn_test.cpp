// The GNN compute engine: blocked-vs-naive kernel bit-compatibility,
// the fused ops against their unfused chains, the inference-only ops'
// grad-mode contract, batched-inference equivalence (batched forward ==
// per-graph training-path forwards), and the batched detector entry
// points.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>

#include "core/detector.hpp"
#include "core/eval_engine.hpp"
#include "core/features.hpp"
#include "datasets/mbi.hpp"
#include "ml/gnn.hpp"
#include "ml/kernels.hpp"
#include "progmodel/lower.hpp"
#include "programl/graph.hpp"
#include "support/check.hpp"

namespace mpidetect::ml {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (double& x : m.data()) x = rng.normal();
  return m;
}

// ---- blocked vs naive kernels: exact match ---------------------------------

void expect_bit_identical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  // Bits, not values: -0.0 must not pass for +0.0, and a NaN (an
  // overflowed adversarial sum) must match the reference NaN.
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a.data()[i], &b.data()[i], sizeof(double)), 0)
        << "element " << i << ": " << a.data()[i] << " vs " << b.data()[i];
  }
}

TEST(BlockedKernels, MatmulMatchesNaiveBitForBit) {
  Rng rng(1);
  // Random shapes including degenerate rows/cols and sizes around the
  // unroll (4/8), panel (64) and small-product dispatch boundaries.
  const std::size_t dims[] = {1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 64, 65, 130};
  for (const std::size_t m : {std::size_t{1}, std::size_t{9},
                              std::size_t{70}, std::size_t{301}}) {
    for (const std::size_t k : dims) {
      for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                                  std::size_t{17}, std::size_t{64}}) {
        Matrix a = random_matrix(m, k, rng);
        Matrix b = random_matrix(k, n, rng);
        expect_bit_identical(a.matmul(b), a.matmul_naive(b));
      }
    }
  }
}

TEST(BlockedKernels, MatmulZeroRowsAndEmptyShapes) {
  Rng rng(2);
  // Whole zero rows exercise the skip paths; 0-row operands the loops'
  // empty bounds.
  Matrix a = random_matrix(40, 24, rng);
  for (std::size_t k = 0; k < 24; ++k) a.at(3, k) = 0.0;
  for (std::size_t k = 0; k < 24; ++k) a.at(17, k) = 0.0;
  Matrix b = random_matrix(24, 32, rng);
  expect_bit_identical(a.matmul(b), a.matmul_naive(b));

  Matrix empty_a(0, 8);
  Matrix b8 = random_matrix(8, 5, rng);
  const Matrix out = empty_a.matmul(b8);
  EXPECT_EQ(out.rows(), 0u);
  EXPECT_EQ(out.cols(), 5u);
}

TEST(BlockedKernels, ZeroRowsStayPositiveZeroInReusedStorage) {
  // A product's output rows that all-zero rows of A never reach must be
  // +0.0 even when the storage handed to the product last held NaN: a
  // NaN-filled matrix of the output's size is freed right before each
  // product, so the allocator hands its block back.
  Rng rng(5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& s : {std::array<std::size_t, 3>{5, 6, 6},
                        std::array<std::size_t, 3>{13, 21, 17},
                        std::array<std::size_t, 3>{108, 32, 64}}) {
    const std::size_t m = s[0], k = s[1], n = s[2];
    Matrix a = random_matrix(m, k, rng);
    for (const std::size_t i : {std::size_t{0}, std::size_t{2}, m - 1}) {
      for (std::size_t c = 0; c < k; ++c) a.at(i, c) = 0.0;
    }
    const Matrix b = random_matrix(k, n, rng);
    const Matrix bt = b.transpose();
    const Matrix at = a.transpose();
    const Matrix want = a.matmul_naive(b);
    (void)a.matmul(b);  // grows the per-thread packing buffers
    for (int variant = 0; variant < 3; ++variant) {
      { const Matrix poison(m, n, nan); }
      const Matrix got = variant == 0   ? a.matmul(b)
                         : variant == 1 ? a.matmul_nt(bt)
                                        : at.matmul_tn(b);
      SCOPED_TRACE("variant=" + std::to_string(variant) +
                   " m=" + std::to_string(m));
      for (const std::size_t i : {std::size_t{0}, std::size_t{2}, m - 1}) {
        for (std::size_t j = 0; j < n; ++j) {
          std::uint64_t bits;
          std::memcpy(&bits, got.row(i) + j, sizeof bits);
          ASSERT_EQ(bits, 0u) << "row " << i << " col " << j;
        }
      }
      expect_bit_identical(got, want);
    }
  }
}

TEST(BlockedKernels, TransposedVariantsMatchNaiveBitForBit) {
  Rng rng(3);
  for (const std::size_t m : {std::size_t{1}, std::size_t{33},
                              std::size_t{260}}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{129}}) {
      for (const std::size_t n : {std::size_t{1}, std::size_t{19},
                                  std::size_t{64}}) {
        Matrix a = random_matrix(m, k, rng);
        Matrix b = random_matrix(n, k, rng);   // nt: (m,k) x (n,k)^T
        expect_bit_identical(a.matmul_nt(b), a.matmul_naive(b.transpose()));
        Matrix g = random_matrix(m, n, rng);   // tn: (m,k)^T x (m,n)
        expect_bit_identical(a.matmul_tn(g),
                             a.transpose().matmul_naive(g));
      }
    }
  }
}

TEST(BlockedKernels, NaiveModeSwitchRoutesMatmul) {
  Rng rng(4);
  Matrix a = random_matrix(50, 40, rng);
  Matrix b = random_matrix(40, 30, rng);
  const Matrix blocked = a.matmul(b);
  kernels::ScopedNaiveMatmul naive(true);
  expect_bit_identical(a.matmul(b), blocked);  // same bits either way
}

// ---- fused and segment ops ------------------------------------------------

/// Runs `f` with the tape off, the mode the inference-only ops require.
template <typename F>
auto no_grad(F&& f) {
  NoGradGuard guard;
  return f();
}

Var sum_all(const Var& a) {
  Var ones_r = make_input(Matrix(1, a->value.rows(), 1.0));
  Var ones_c = make_input(Matrix(a->value.cols(), 1, 1.0));
  return matmul(matmul(ones_r, a), ones_c);
}

TEST(SegmentPool, MaxPoolMatchesPerSegmentMax) {
  Rng rng(6);
  Var a = make_input(random_matrix(7, 3, rng));
  const std::vector<std::uint32_t> seg{0, 0, 1, 1, 1, 2, 2};
  Var pooled = no_grad([&] { return segment_max_pool_rows(a, seg, 3); });
  ASSERT_EQ(pooled->value.rows(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(pooled->value.at(0, j),
                     std::max(a->value.at(0, j), a->value.at(1, j)));
  }
}

TEST(SegmentPool, SingleSegmentEqualsMaxPoolRows) {
  Rng rng(7);
  Matrix m = random_matrix(9, 4, rng);
  Var a1 = make_input(m);
  Var a2 = make_input(m);
  Var whole = max_pool_rows(a1);
  Var seg = no_grad([&] {
    return segment_max_pool_rows(a2, std::vector<std::uint32_t>(9, 0), 1);
  });
  expect_bit_identical(whole->value, seg->value);
}

TEST(BatchedOps, FusedGatv2ScoresMatchesUnfusedChain) {
  Rng rng(12);
  Matrix hl = random_matrix(11, 6, rng);
  Matrix hr = random_matrix(11, 6, rng);
  Matrix at = random_matrix(6, 1, rng);
  Var hl1 = make_param(hl), hr1 = make_param(hr), at1 = make_param(at);
  Var hl2 = make_param(hl), hr2 = make_param(hr), at2 = make_param(at);
  Var unfused = matmul(leaky_relu(add(hl1, hr1)), at1);
  Var fused = gatv2_scores(hl2, hr2, at2);
  expect_bit_identical(unfused->value, fused->value);
  backward(sum_all(unfused));
  backward(sum_all(fused));
  expect_bit_identical(hl1->grad, hl2->grad);
  expect_bit_identical(hr1->grad, hr2->grad);
  expect_bit_identical(at1->grad, at2->grad);
}

TEST(BatchedOps, FusedGatv2ScoresPartialAndSharedGradients) {
  // Inputs that need no gradient, and one matrix on both sides: the
  // backward must still equal the unfused chain's for every input that
  // has a gradient.
  Rng rng(14);
  Matrix h = random_matrix(11, 6, rng);
  Matrix at = random_matrix(6, 1, rng);
  Var h1 = make_param(h), at1 = make_input(at);
  Var h2 = make_param(h), at2 = make_input(at);
  Var unfused = matmul(leaky_relu(add(h1, h1)), at1);
  Var fused = gatv2_scores(h2, h2, at2);
  expect_bit_identical(unfused->value, fused->value);
  backward(sum_all(unfused));
  backward(sum_all(fused));
  expect_bit_identical(h1->grad, h2->grad);

  Matrix hr = random_matrix(11, 6, rng);
  Var hl3 = make_input(h), hr3 = make_param(hr), at3 = make_param(at);
  Var hl4 = make_input(h), hr4 = make_param(hr), at4 = make_param(at);
  Var unfused2 = matmul(leaky_relu(add(hl3, hr3)), at3);
  Var fused2 = gatv2_scores(hl4, hr4, at4);
  backward(sum_all(unfused2));
  backward(sum_all(fused2));
  expect_bit_identical(hr3->grad, hr4->grad);
  expect_bit_identical(at3->grad, at4->grad);
}

TEST(BatchedOps, FusedScatterAddScaledMatchesUnfusedChain) {
  Rng rng(13);
  Matrix alpha = random_matrix(7, 1, rng);
  Matrix h = random_matrix(7, 5, rng);
  const std::vector<std::uint32_t> idx{0, 2, 2, 1, 3, 0, 3};
  Var al1 = make_param(alpha), h1 = make_param(h);
  Var al2 = make_param(alpha), h2 = make_param(h);
  Var unfused = scatter_add_rows(mul_rowwise(al1, h1), idx, 4);
  Var fused = scatter_add_scaled(al2, h2, idx, 4);
  expect_bit_identical(unfused->value, fused->value);
  backward(sum_all(unfused));
  backward(sum_all(fused));
  expect_bit_identical(al1->grad, al2->grad);
  expect_bit_identical(h1->grad, h2->grad);
}

TEST(BatchedOps, GatheredGatv2ScoresMatchesGatherThenScore) {
  Rng rng(16);
  Matrix hl = random_matrix(6, 5, rng);
  Matrix hr = random_matrix(6, 5, rng);
  Matrix at = random_matrix(5, 1, rng);
  const std::vector<std::uint32_t> dst{0, 1, 5, 5, 2};
  const std::vector<std::uint32_t> src{3, 3, 0, 4, 1};
  Var hl1 = make_param(hl), hr1 = make_param(hr), at1 = make_param(at);
  Var hl2 = make_param(hl), hr2 = make_param(hr), at2 = make_param(at);
  Var two_step =
      gatv2_scores(gather_rows(hl1, dst), gather_rows(hr1, src), at1);
  Var fused = no_grad(
      [&] { return gatv2_scores_gathered(hl2, dst, hr2, src, at2); });
  expect_bit_identical(two_step->value, fused->value);
}

TEST(BatchedOps, GatheredScatterAddScaledMatchesGatherThenScatter) {
  Rng rng(17);
  Matrix alpha = random_matrix(5, 1, rng);
  Matrix h = random_matrix(6, 4, rng);
  const std::vector<std::uint32_t> src{3, 3, 0, 4, 1};
  const std::vector<std::uint32_t> dst{0, 1, 2, 2, 1};
  Var al1 = make_param(alpha), h1 = make_param(h);
  Var al2 = make_param(alpha), h2 = make_param(h);
  Var two_step = scatter_add_scaled(al1, gather_rows(h1, src), dst, 3);
  Var fused = no_grad(
      [&] { return scatter_add_scaled_gathered(al2, h2, src, dst, 3); });
  expect_bit_identical(two_step->value, fused->value);
}

TEST(BatchedOps, MatmulRowsMatchesGatherOfMatmul) {
  // Repeated and unread rows: only rows 1, 3 and 4 of the product are
  // computed, and the backward must still equal the two-op chain's.
  Rng rng(20);
  Matrix x = random_matrix(6, 5, rng);
  Matrix w = random_matrix(5, 9, rng);
  const std::vector<std::uint32_t> idx{3, 1, 3, 4, 1, 3};
  Var x1 = make_param(x), w1 = make_param(w);
  Var x2 = make_param(x), w2 = make_param(w);
  Var chain = gather_rows(matmul(x1, w1), idx);
  Var fused = matmul_rows(x2, w2, idx);
  expect_bit_identical(chain->value, fused->value);
  backward(sum_all(chain));
  backward(sum_all(fused));
  expect_bit_identical(x1->grad, x2->grad);
  expect_bit_identical(w1->grad, w2->grad);
}

TEST(BatchedOps, FusedBiasEluMatchesUnfusedChain) {
  Rng rng(14);
  Matrix a = random_matrix(9, 4, rng);
  Matrix bias = random_matrix(1, 4, rng);
  Var a1 = make_param(a), b1 = make_param(bias);
  Var a2 = make_param(a), b2 = make_param(bias);
  Var unfused = elu(add_row_broadcast(a1, b1));
  Var fused = no_grad([&] { return bias_elu(a2, b2); });
  expect_bit_identical(unfused->value, fused->value);
}

TEST(BatchedOps, AddNMatchesAddChain) {
  Rng rng(18);
  Matrix m0 = random_matrix(5, 4, rng);
  Matrix m1 = random_matrix(5, 4, rng);
  Matrix m2 = random_matrix(5, 4, rng);
  Var a0 = make_param(m0), a1 = make_param(m1), a2 = make_param(m2);
  Var b0 = make_param(m0), b1 = make_param(m1), b2 = make_param(m2);
  Var chain = add(add(a0, a1), a2);
  Var fused = add_n({b0, b1, b2});
  expect_bit_identical(chain->value, fused->value);
  backward(sum_all(chain));
  backward(sum_all(fused));
  expect_bit_identical(a0->grad, b0->grad);
  expect_bit_identical(a1->grad, b1->grad);
  expect_bit_identical(a2->grad, b2->grad);
}

TEST(BatchedOps, InferenceOnlyOpsRejectGradMode) {
  // They have no backward: in grad mode they must refuse, never hand
  // back a node whose gradient would silently stop at them.
  ASSERT_TRUE(grad_enabled());
  Rng rng(19);
  Var h = make_param(random_matrix(4, 3, rng));
  Var at = make_param(random_matrix(3, 1, rng));
  Var alpha = make_param(random_matrix(2, 1, rng));
  Var bias = make_param(random_matrix(1, 3, rng));
  const std::vector<std::uint32_t> src{0, 3}, dst{1, 1};
  EXPECT_THROW(gatv2_scores_gathered(h, dst, h, src, at), ContractViolation);
  EXPECT_THROW(scatter_add_scaled_gathered(alpha, h, src, dst, 4),
               ContractViolation);
  EXPECT_THROW(bias_elu(h, bias), ContractViolation);
  EXPECT_THROW(segment_max_pool_rows(h, {0, 0, 1, 1}, 2), ContractViolation);
}

TEST(BatchedOps, NoGradGuardSkipsTape) {
  Rng rng(15);
  Var a = make_param(random_matrix(3, 3, rng));
  Var b = make_param(random_matrix(3, 3, rng));
  NoGradGuard guard;
  Var c = matmul(a, b);
  EXPECT_FALSE(c->requires_grad);
  EXPECT_TRUE(c->parents.empty());
}

// ---- graph mini-batching ----------------------------------------------------

programl::ProgramGraph tiny_graph(std::uint32_t t0, std::uint32_t t1,
                                  bool with_call = false) {
  programl::ProgramGraph g;
  g.nodes.push_back({programl::NodeType::Control, t0, "a"});
  g.nodes.push_back({programl::NodeType::Control, t1, "b"});
  g.nodes.push_back({programl::NodeType::Variable, 3, "v"});
  g.edges[0].push_back({0, 1});
  g.edges[1].push_back({2, 0});
  g.edges[1].push_back({2, 1});
  if (with_call) g.edges[2].push_back({0, 1});
  return g;
}

GnnConfig tiny_config() {
  GnnConfig cfg;
  cfg.embed_dim = 8;
  cfg.layers = {16, 8};
  cfg.fc_hidden = 8;
  cfg.classes = 2;
  cfg.epochs = 5;
  cfg.lr = 0.01;
  return cfg;
}

TEST(GraphBatch, DisjointUnionLayout) {
  std::vector<programl::ProgramGraph> graphs{tiny_graph(1, 2),
                                             tiny_graph(4, 5, true)};
  const programl::GraphBatch b = programl::make_batch(graphs);
  ASSERT_EQ(b.size, 2u);
  ASSERT_EQ(b.num_nodes(), 6u);
  EXPECT_EQ(b.tokens[0], 1u);
  EXPECT_EQ(b.tokens[3], 4u);
  EXPECT_EQ(b.segments, (std::vector<std::uint32_t>{0, 0, 0, 1, 1, 1}));
  // Second member's edges are offset by the first member's node count.
  ASSERT_EQ(b.edges[0].size(), 2u);
  EXPECT_EQ(b.edges[0][1].src, 3u);
  EXPECT_EQ(b.edges[0][1].dst, 4u);
  ASSERT_EQ(b.edges[2].size(), 1u);
  EXPECT_EQ(b.edges[2][0].src, 3u);
}

TEST(GraphBatch, BatchedForwardMatchesPerGraphForwards) {
  GnnModel model(tiny_config());
  std::vector<programl::ProgramGraph> graphs{
      tiny_graph(1, 2), tiny_graph(9, 10, true), tiny_graph(20, 21)};
  const programl::GraphBatch batch = programl::make_batch(graphs);
  Var batched = no_grad([&] { return model.forward(batch); });
  ASSERT_EQ(batched->value.rows(), graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    // The training path (grad mode) is the reference.
    Var single = model.forward(graphs[i]);
    for (std::size_t j = 0; j < single->value.cols(); ++j) {
      EXPECT_NEAR(single->value.at(0, j), batched->value.at(i, j), 1e-9)
          << "graph " << i << " logit " << j;
    }
  }
}

TEST(GraphBatch, BatchedPredictProbaMatchesPerGraph) {
  GnnModel model(tiny_config());
  std::vector<programl::ProgramGraph> graphs;
  for (int i = 0; i < 7; ++i) {
    graphs.push_back(tiny_graph(static_cast<std::uint32_t>(2 * i),
                                static_cast<std::uint32_t>(2 * i + 1),
                                i % 2 == 0));
  }
  const auto batched = model.predict_proba(
      std::span<const programl::ProgramGraph>(graphs));
  ASSERT_EQ(batched.size(), graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto single = model.predict_proba(graphs[i]);
    ASSERT_EQ(single.size(), batched[i].size());
    for (std::size_t j = 0; j < single.size(); ++j) {
      EXPECT_NEAR(single[j], batched[i][j], 1e-12);
    }
  }
}

TEST(GraphBatch, BatchedForwardRejectsGradMode) {
  GnnModel model(tiny_config());
  std::vector<programl::ProgramGraph> graphs{tiny_graph(1, 2),
                                             tiny_graph(3, 4, true)};
  const programl::GraphBatch batch = programl::make_batch(graphs);
  ASSERT_TRUE(grad_enabled());
  EXPECT_THROW(model.forward(batch), ContractViolation);
}

TEST(GraphBatch, MixedRelationPresence) {
  // One member has call edges, the other does not: the relation runs
  // over the union, and the edge-less member's logits must still match
  // its single-graph forward.
  GnnModel model(tiny_config());
  std::vector<programl::ProgramGraph> graphs{tiny_graph(1, 2, true),
                                             tiny_graph(5, 6, false)};
  const programl::GraphBatch batch = programl::make_batch(graphs);
  Var batched = no_grad([&] { return model.forward(batch); });
  Var alone = model.forward(graphs[1]);
  for (std::size_t j = 0; j < alone->value.cols(); ++j) {
    EXPECT_NEAR(alone->value.at(0, j), batched->value.at(1, j), 1e-9);
  }
}

// ---- batch edge cases -------------------------------------------------------

TEST(GraphBatchEdge, EmptyBatchIsWellFormed) {
  const programl::GraphBatch b =
      programl::make_batch(std::span<const programl::ProgramGraph>{});
  EXPECT_EQ(b.size, 0u);
  EXPECT_EQ(b.num_nodes(), 0u);
  EXPECT_TRUE(b.tokens.empty());
  EXPECT_TRUE(b.segments.empty());
  for (const auto& edges : b.edges) EXPECT_TRUE(edges.empty());
}

TEST(GraphBatchEdge, SingleNodeGraphSurvivesBatchAndInference) {
  programl::ProgramGraph g;
  g.nodes.push_back({programl::NodeType::Control, 1, "entry"});
  // No edges at all: the batch and the model must handle an isolated
  // node (message passing contributes nothing; pooling sees one row).
  const programl::GraphBatch b =
      programl::make_batch(std::span(&g, 1));
  ASSERT_EQ(b.size, 1u);
  ASSERT_EQ(b.num_nodes(), 1u);
  EXPECT_EQ(b.segments, (std::vector<std::uint32_t>{0}));

  GnnModel model(tiny_config());
  const Var batched = no_grad([&] { return model.forward(b); });
  ASSERT_EQ(batched->value.rows(), 1u);
  const Var single = model.forward(g);
  for (std::size_t j = 0; j < single->value.cols(); ++j) {
    EXPECT_NEAR(single->value.at(0, j), batched->value.at(0, j), 1e-12);
  }
  const auto proba = model.predict_proba(g);
  ASSERT_EQ(proba.size(), 2u);
  EXPECT_NEAR(proba[0] + proba[1], 1.0, 1e-9);
}

TEST(GraphBatchEdge, MixedSingleNodeAndRealGraphsAgreeWithPerGraph) {
  programl::ProgramGraph lone;
  lone.nodes.push_back({programl::NodeType::Variable, 7, "x"});
  std::vector<programl::ProgramGraph> graphs{tiny_graph(1, 2), lone,
                                             tiny_graph(4, 5, true)};
  GnnModel model(tiny_config());
  const programl::GraphBatch batch = programl::make_batch(graphs);
  const Var batched = no_grad([&] { return model.forward(batch); });
  ASSERT_EQ(batched->value.rows(), graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Var single = model.forward(graphs[i]);
    for (std::size_t j = 0; j < single->value.cols(); ++j) {
      EXPECT_NEAR(single->value.at(0, j), batched->value.at(i, j), 1e-9)
          << "graph " << i;
    }
  }
}

// ---- SIMD dispatch: every target bit-identical to scalar --------------------

// The wall the kernel-dispatch contract leans on (ml/kernels.hpp):
// every fp inner kernel, on every dispatch target this build carries,
// produces bit-identical results to the scalar reference — including on
// misaligned buffers (Matrix storage guarantees 8-byte alignment only),
// denormal inputs, and magnitudes near overflow.

std::uint64_t double_bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// Every dispatch target. A test over targets skips, naming it, any
/// target the CPU lacks.
const std::array<kernels::Isa, 3> kAllTargets = {
    kernels::Isa::Scalar, kernels::Isa::Avx2, kernels::Isa::Avx512};

/// The targets this CPU runs, scalar first.
std::vector<kernels::Isa> supported_targets() {
  std::vector<kernels::Isa> out;
  for (const kernels::Isa isa : kAllTargets) {
    if (kernels::cpu_supports(isa)) out.push_back(isa);
  }
  return out;
}

/// A test run once per dispatch target (the parameter); SetUp skips a
/// target this CPU lacks.
class SimdTarget : public ::testing::TestWithParam<kernels::Isa> {
 protected:
  void SetUp() override {
    if (!kernels::cpu_supports(GetParam())) {
      GTEST_SKIP() << "this CPU lacks " << kernels::isa_name(GetParam());
    }
  }
};

INSTANTIATE_TEST_SUITE_P(
    AllTargets, SimdTarget, ::testing::ValuesIn(kAllTargets),
    [](const ::testing::TestParamInfo<kernels::Isa>& info) {
      return std::string(kernels::isa_name(info.param));
    });

/// Fills `n` doubles with a mix of ordinary, denormal, tiny and huge
/// magnitudes — the inputs where a reassociated or FMA-contracted
/// kernel would diverge from the scalar reference first.
void fill_adversarial(double* p, std::size_t n, Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 5) {
      case 0: p[i] = rng.normal(); break;
      case 1: p[i] = rng.normal() * 4.9e-324; break;  // denormal range
      case 2: p[i] = rng.normal() * 1e300; break;     // near overflow
      case 3: p[i] = rng.normal() * 1e-160; break;
      default: p[i] = -rng.normal(); break;
    }
  }
}

TEST_P(SimdTarget, RowKernelsBitIdenticalToScalarMisaligned) {
  Rng rng(11);
  const kernels::Isa isa = GetParam();
  const kernels::KernelFns& ref = kernels::fns_for(kernels::Isa::Scalar);
  const kernels::KernelFns& fns = kernels::fns_for(isa);
  // +1 element, then use data()+1: 8-byte aligned but guaranteed NOT
  // 16/32-byte aligned — a kernel using aligned loads would fault or
  // (worse) silently read the wrong lanes.
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                              std::size_t{7}, std::size_t{8}, std::size_t{9},
                              std::size_t{31}, std::size_t{64},
                              std::size_t{65}}) {
    std::vector<double> src_buf(8 * (n + 1)), coef(8), out_ref(n + 1),
        out_tgt(n + 1), bias_buf(n + 1);
    std::array<const double*, 8> rows{};
    for (std::size_t r = 0; r < 8; ++r) {
      double* row = src_buf.data() + r * (n + 1) + 1;
      fill_adversarial(row, n, rng);
      rows[r] = row;
    }
    fill_adversarial(coef.data(), coef.size(), rng);
    fill_adversarial(bias_buf.data() + 1, n, rng);
    const auto reset = [&] {
      Rng r2(23);
      fill_adversarial(out_ref.data() + 1, n, r2);
      std::copy(out_ref.begin(), out_ref.end(), out_tgt.begin());
    };
    const auto compare = [&](const char* what) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(double_bits(out_ref[j + 1]), double_bits(out_tgt[j + 1]))
            << what << " isa=" << kernels::isa_name(isa) << " n=" << n
            << " j=" << j;
      }
    };

    reset();
    ref.axpy1(out_ref.data() + 1, rows[0], coef[0], n);
    fns.axpy1(out_tgt.data() + 1, rows[0], coef[0], n);
    compare("axpy1");

    reset();
    ref.add1(out_ref.data() + 1, rows[1], n);
    fns.add1(out_tgt.data() + 1, rows[1], n);
    compare("add1");

    reset();
    ref.bias_elu_row(out_ref.data() + 1, rows[2], bias_buf.data() + 1, n);
    fns.bias_elu_row(out_tgt.data() + 1, rows[2], bias_buf.data() + 1, n);
    compare("bias_elu_row");

    // gatv2_scores4: four reductions over misaligned K-length rows.
    std::array<const double*, 4> quad{rows[0], rows[1], rows[2], rows[3]};
    std::array<const double*, 4> quad_r{rows[4], rows[5], rows[6], rows[7]};
    std::array<double, 4> dr{}, dt{};
    ref.gatv2_scores4(quad.data(), quad_r.data(), bias_buf.data() + 1, 0.2,
                      n, dr.data());
    fns.gatv2_scores4(quad.data(), quad_r.data(), bias_buf.data() + 1, 0.2,
                      n, dt.data());
    for (std::size_t c = 0; c < 4; ++c) {
      ASSERT_EQ(double_bits(dr[c]), double_bits(dt[c]))
          << "gatv2_scores4 isa=" << kernels::isa_name(isa) << " n=" << n;
    }

    // gatv2_backward_row: three accumulators updated in place; the
    // reference runs on copies of the same starting values.
    std::vector<double> g_ref(3 * (n + 1)), g_tgt;
    {
      Rng r4(31);
      fill_adversarial(g_ref.data(), g_ref.size(), r4);
      g_tgt = g_ref;
    }
    const auto backward_row = [&](const kernels::KernelFns& k,
                                  std::vector<double>& g) {
      k.gatv2_backward_row(rows[5], rows[6], bias_buf.data() + 1, coef[1],
                           0.2, n, g.data() + 1, g.data() + n + 2,
                           g.data() + 2 * n + 3);
    };
    backward_row(ref, g_ref);
    backward_row(fns, g_tgt);
    for (std::size_t j = 0; j < g_ref.size(); ++j) {
      ASSERT_EQ(double_bits(g_ref[j]), double_bits(g_tgt[j]))
          << "gatv2_backward_row isa=" << kernels::isa_name(isa)
          << " n=" << n << " j=" << j;
    }
    // gl and gr the same row (an edge from a node to itself when both
    // sides read one matrix): dt lands twice, in order.
    const auto shared_row = [&](const kernels::KernelFns& k,
                                std::vector<double>& g) {
      k.gatv2_backward_row(rows[5], rows[6], bias_buf.data() + 1, coef[1],
                           0.2, n, g.data() + 1, g.data() + 1,
                           g.data() + n + 2);
    };
    shared_row(ref, g_ref);
    shared_row(fns, g_tgt);
    for (std::size_t j = 0; j < g_ref.size(); ++j) {
      ASSERT_EQ(double_bits(g_ref[j]), double_bits(g_tgt[j]))
          << "gatv2_backward_row shared isa=" << kernels::isa_name(isa)
          << " n=" << n << " j=" << j;
    }
  }
}

TEST_P(SimdTarget, GemmTileReadsRowPointersLikeNaive) {
  // The micro-kernel reading A through kMr row pointers: a matrix's own
  // rows at stride 1, placed at odd (misaligned) offsets, and a
  // gathered panel at stride kMr; full tiles and partial ones whose
  // missing rows point at a zero row; finite, Inf and NaN coefficients.
  // On the target under test, every tile must equal
  // matmul_naive of the same rows bit for bit, written through output
  // row pointers that are misaligned and an odd stride apart, and
  // report its finiteness. Where the input holds a NaN, a NaN output
  // only has to be a NaN: when the input's NaN meets an overflow's
  // default NaN in an add, which payload survives depends on the
  // operand order the compiler picked, which is why packed_matmul
  // redoes a non-finite product through matmul_naive's own loop.
  Rng rng(13);
  constexpr std::size_t kMr = kernels::kMr, kNr = kernels::kNr;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t K : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{7}, std::size_t{64},
                              std::size_t{129}}) {
    for (const double bad : {0.0, inf, -inf, nan}) {
      for (const std::size_t mr : {kMr, std::size_t{1}, std::size_t{3}}) {
        Matrix a(mr, K), b(K, kNr);
        fill_adversarial(a.data().data(), a.size(), rng);
        fill_adversarial(b.data().data(), b.size(), rng);
        if (bad != 0.0 && K > 0) a.at(mr - 1, K / 2) = bad;
        const Matrix want = a.matmul_naive(b);
        std::vector<double> bp(K * kNr + 1);
        std::copy(b.data().begin(), b.data().end(), bp.begin() + 1);
        // Stride 1: row r starts at 1 + r * (K + 1), never 32-byte
        // aligned. Stride kMr: panel[k * kMr + r] = A[r][k].
        std::vector<double> rows_buf(kMr * (K + 1) + 1);
        std::vector<double> panel(K * kMr + 1);
        const std::vector<double> zeros(K * kMr + 1, 0.0);
        const double* by_row[kMr];
        const double* by_panel[kMr];
        for (std::size_t r = 0; r < kMr; ++r) {
          by_row[r] = zeros.data();
          by_panel[r] = zeros.data();
          if (r >= mr) continue;
          double* row = rows_buf.data() + 1 + r * (K + 1);
          for (std::size_t k = 0; k < K; ++k) {
            row[k] = a.at(r, k);
            panel[1 + k * kMr + r] = a.at(r, k);
          }
          by_row[r] = row;
          by_panel[r] = panel.data() + 1 + r;
        }
        const std::size_t ldc = kNr + 3;
        const kernels::KernelFns& fns = kernels::fns_for(GetParam());
        for (const std::size_t as : {std::size_t{1}, kMr}) {
          SCOPED_TRACE(std::string("K=") + std::to_string(K) +
                       " mr=" + std::to_string(mr) +
                       " stride=" + std::to_string(as) +
                       " bad=" + std::to_string(bad));
          std::vector<double> c(kMr * ldc + 1, nan);
          double* c_rows[kMr];
          for (std::size_t r = 0; r < kMr; ++r) {
            c_rows[r] = c.data() + 1 + r * ldc;
          }
          const bool finite = fns.gemm_tile(
              as == 1 ? by_row : by_panel, as, bp.data() + 1, K, c_rows);
          bool want_finite = true;
          for (std::size_t r = 0; r < kMr; ++r) {
            for (std::size_t j = 0; j < kNr; ++j) {
              const double got = c[1 + r * ldc + j];
              const double ref = r < mr ? want.at(r, j) : 0.0;
              if (std::isnan(bad) && std::isnan(ref)) {
                ASSERT_TRUE(std::isnan(got)) << "r=" << r << " j=" << j;
              } else {
                ASSERT_EQ(double_bits(got), double_bits(ref))
                    << "r=" << r << " j=" << j;
              }
              want_finite &= std::isfinite(ref);
            }
          }
          EXPECT_EQ(finite, want_finite);
        }
      }
    }
  }
}

/// nn, nt and tn products of `a` (m x k) with a right operand built from
/// `b` (k x n) equal matmul_naive bit for bit, on every target the CPU
/// runs.
void expect_packed_products_match_naive(const Matrix& a, const Matrix& b) {
  const Matrix nn = a.matmul_naive(b);
  const Matrix bt = b.transpose();  // (n x k): nt's right operand
  const Matrix at = a.transpose();  // (k x m): tn's left operand
  for (const kernels::Isa isa : supported_targets()) {
    kernels::ScopedIsa target(isa);
    SCOPED_TRACE(std::string("isa=") + kernels::isa_name(isa) + " m=" +
                 std::to_string(a.rows()) + " k=" + std::to_string(a.cols()) +
                 " n=" + std::to_string(b.cols()));
    expect_bit_identical(a.matmul(b), nn);
    expect_bit_identical(a.matmul_nt(bt), nn);
    expect_bit_identical(at.matmul_tn(b), nn);
  }
}

TEST(SimdDispatch, PackedMatmulEdgeTilesMatchNaive) {
  // M and N off the 4x16 tile, K = 1 and N = 1; adversarial magnitudes.
  Rng rng(17);
  for (const std::size_t m : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                              std::size_t{5}, std::size_t{11}}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                std::size_t{9}, std::size_t{33}}) {
      for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                  std::size_t{8}, std::size_t{9},
                                  std::size_t{15}, std::size_t{16},
                                  std::size_t{17}, std::size_t{35}}) {
        Matrix a(m, k), b(k, n);
        fill_adversarial(a.data().data(), a.size(), rng);
        fill_adversarial(b.data().data(), b.size(), rng);
        expect_packed_products_match_naive(a, b);
      }
    }
  }
}

TEST(SimdDispatch, PackedMatmulZeroRowsMatchNaive) {
  // All-zero rows of A are left out of the packed panels and all-zero
  // (here -0.0) rows of B out of the reduction; the products must still
  // be matmul_naive's bits: +0.0 rows and unchanged sums.
  Rng rng(19);
  Matrix a = random_matrix(13, 21, rng);
  Matrix b = random_matrix(21, 17, rng);
  for (const std::size_t i : {0, 1, 2, 3, 6, 12}) {
    for (std::size_t k = 0; k < a.cols(); ++k) a.at(i, k) = 0.0;
  }
  for (const std::size_t k : {0, 5, 20}) {
    for (std::size_t j = 0; j < b.cols(); ++j) b.at(k, j) = -0.0;
  }
  expect_packed_products_match_naive(a, b);
  expect_packed_products_match_naive(Matrix(9, 5), random_matrix(5, 10, rng));
  // 150 row panels (600 rows) swept across one packed B.
  const Matrix tall = random_matrix(600, 64, rng);
  expect_packed_products_match_naive(tall, random_matrix(64, 48, rng));
}

TEST(SimdDispatch, PackedMatmulNonFiniteMatchesNaive) {
  // An Inf or NaN in A facing an all-zero B row gives NaN in
  // matmul_naive (Inf * 0), and one in B facing a zero A coefficient is
  // skipped there; the packed products must keep both.
  Rng rng(29);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, -inf, nan}) {
    Matrix a = random_matrix(9, 12, rng);
    Matrix b = random_matrix(12, 10, rng);
    for (std::size_t j = 0; j < b.cols(); ++j) b.at(4, j) = 0.0;
    a.at(2, 4) = bad;  // against the zero B row
    for (std::size_t k = 0; k < a.cols(); ++k) a.at(5, k) = 0.0;
    a.at(5, 4) = bad;  // the row's only nonzero faces the zero B row
    expect_packed_products_match_naive(a, b);

    Matrix a2 = random_matrix(9, 12, rng);
    Matrix b2 = random_matrix(12, 10, rng);
    a2.at(3, 7) = 0.0;
    b2.at(7, 2) = bad;  // faced only by a zero coefficient in row 3
    for (std::size_t k = 0; k < a2.cols(); ++k) a2.at(6, k) = 0.0;
    expect_packed_products_match_naive(a2, b2);
    // No row of A is packed at all: every output stays +0.0.
    expect_packed_products_match_naive(Matrix(5, 12), b2);
  }
}

TEST(SimdDispatch, PackedMatmulMisalignedRowsMatchNaive) {
  // Odd row lengths put every row after the first at an odd multiple of
  // 8 bytes from the buffer start, so no row start is 32-byte aligned;
  // the paper GNN's shapes ride along.
  Rng rng(23);
  const std::size_t shapes[][3] = {{7, 13, 9},    {31, 5, 3},
                                   {108, 32, 128}, {108, 128, 64},
                                   {97, 64, 32},  {1, 32, 32},
                                   {1, 32, 2}};
  for (const auto& s : shapes) {
    Matrix a(s[0], s[1]), b(s[1], s[2]);
    fill_adversarial(a.data().data(), a.size(), rng);
    fill_adversarial(b.data().data(), b.size(), rng);
    expect_packed_products_match_naive(a, b);
  }
}

TEST_P(SimdTarget, FullModelBitIdenticalToScalar) {
  // The whole-model wall: predict_proba on the target under test must
  // equal the scalar run bit for bit (not NEAR — the SIMD kernels
  // preserve accumulation order exactly).
  GnnModel model(tiny_config());
  std::vector<programl::ProgramGraph> graphs;
  for (int i = 0; i < 6; ++i) {
    graphs.push_back(tiny_graph(static_cast<std::uint32_t>(3 * i),
                                static_cast<std::uint32_t>(3 * i + 1),
                                i % 2 == 0));
  }
  const auto predict = [&](kernels::Isa isa) {
    kernels::ScopedIsa target(isa);
    EXPECT_EQ(kernels::active_isa(), isa);
    return model.predict_proba(
        std::span<const programl::ProgramGraph>(graphs));
  };
  const auto got = predict(GetParam());
  const auto scalar = predict(kernels::Isa::Scalar);
  ASSERT_EQ(got.size(), scalar.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    for (std::size_t j = 0; j < got[i].size(); ++j) {
      ASSERT_EQ(double_bits(got[i][j]), double_bits(scalar[i][j]))
          << "graph " << i << " class " << j;
    }
  }
}

}  // namespace
}  // namespace mpidetect::ml

// ---- batched detector entry point ------------------------------------------

namespace mpidetect::core {
namespace {

TEST(GnnDetectorRun, BatchedRunMatchesPerCaseEvaluate) {
  datasets::MbiConfig mcfg;
  mcfg.scale = 0.01;
  const datasets::Dataset ds = datasets::generate_mbi(mcfg);

  DetectorConfig cfg;
  cfg.gnn.cfg.embed_dim = 8;
  cfg.gnn.cfg.layers = {16, 8};
  cfg.gnn.cfg.fc_hidden = 8;
  cfg.gnn.cfg.epochs = 2;
  cfg.gnn.cfg.infer_batch = 4;
  cfg.cache = std::make_shared<EncodingCache>();
  GnnDetector det(cfg);

  EvalEngine engine(1, cfg.cache);
  engine.fit_full(det, ds);

  const auto batched = det.run(ds.cases);
  ASSERT_EQ(batched.size(), ds.size());
  // The engine's per-case sweep and the batched run must agree verdict
  // for verdict (same outcome, same confidence).
  const auto swept = engine.sweep(det, ds);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(batched[i].outcome, swept.verdicts[i].outcome) << "case " << i;
    ASSERT_TRUE(batched[i].confidence.has_value());
    ASSERT_TRUE(swept.verdicts[i].confidence.has_value());
    EXPECT_NEAR(*batched[i].confidence, *swept.verdicts[i].confidence, 1e-12);
  }
}

TEST(GnnDetectorRun, AdHocBatchesDoNotAccumulateSpillFiles) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("mpidetect_spill_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  datasets::MbiConfig mcfg;
  mcfg.scale = 0.01;
  const datasets::Dataset ds = datasets::generate_mbi(mcfg);

  DetectorConfig cfg;
  cfg.gnn.cfg.embed_dim = 8;
  cfg.gnn.cfg.layers = {16, 8};
  cfg.gnn.cfg.fc_hidden = 8;
  cfg.gnn.cfg.epochs = 1;
  cfg.cache = std::make_shared<EncodingCache>();
  cfg.cache->set_spill_dir(dir.string());
  GnnDetector det(cfg);
  EvalEngine engine(1, cfg.cache);
  engine.fit_full(det, ds);

  const auto count_files = [&] {
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
      (void)e;
      ++n;
    }
    return n;
  };
  const std::size_t before = count_files();
  // Ad-hoc subsets have their own content fingerprint; their spill
  // files must be cleaned up with the in-memory entry when run()
  // discards the batch.
  (void)det.run(std::span<const datasets::Case>(ds.cases).subspan(0, 3));
  (void)det.run(std::span<const datasets::Case>(ds.cases).subspan(2, 4));
  EXPECT_EQ(count_files(), before);
  fs::remove_all(dir);
}

TEST(GnnDetectorRun, UnfittedThrows) {
  GnnDetector det;
  datasets::MbiConfig mcfg;
  mcfg.scale = 0.01;
  const datasets::Dataset ds = datasets::generate_mbi(mcfg);
  EXPECT_THROW(det.run(ds.cases), ContractViolation);
}

}  // namespace
}  // namespace mpidetect::core
