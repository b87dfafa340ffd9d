#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <string>

#include "ml/adam.hpp"
#include "ml/autograd.hpp"

namespace mpidetect::ml {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (double& x : m.data()) x = rng.normal();
  return m;
}

/// Finite-difference check: builds the graph through `f` (which must use
/// `leaf` as an input), compares autograd's d(loss)/d(leaf) against
/// central differences.
void gradcheck(const Var& leaf, const std::function<Var()>& f,
               double tol = 1e-5) {
  Var loss = f();
  backward(loss);
  const Matrix analytic = leaf->grad;
  const double eps = 1e-6;
  for (std::size_t i = 0; i < leaf->value.size(); ++i) {
    const double keep = leaf->value.data()[i];
    leaf->value.data()[i] = keep + eps;
    const double up = f()->value.at(0, 0);
    leaf->value.data()[i] = keep - eps;
    const double down = f()->value.at(0, 0);
    leaf->value.data()[i] = keep;
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic.data()[i], numeric, tol)
        << "coordinate " << i;
  }
}

/// Reduces any matrix to a scalar by summing (via matmul with ones).
Var sum_all(const Var& a) {
  Var ones_r = make_input(Matrix(1, a->value.rows(), 1.0));
  Var ones_c = make_input(Matrix(a->value.cols(), 1, 1.0));
  return matmul(matmul(ones_r, a), ones_c);
}

TEST(Autograd, MatmulGradient) {
  Rng rng(1);
  Var a = make_param(random_matrix(3, 4, rng));
  Var b = make_param(random_matrix(4, 2, rng));
  gradcheck(a, [&] { return sum_all(matmul(a, b)); });
  a->zero_grad();
  b->zero_grad();
  gradcheck(b, [&] { return sum_all(matmul(a, b)); });
}

TEST(Autograd, AddAndScaleGradient) {
  Rng rng(2);
  Var a = make_param(random_matrix(2, 3, rng));
  Var b = make_param(random_matrix(2, 3, rng));
  gradcheck(a, [&] { return sum_all(add(scale(a, 2.5), b)); });
}

TEST(Autograd, RowBroadcastBiasGradient) {
  Rng rng(3);
  Var a = make_param(random_matrix(4, 3, rng));
  Var bias = make_param(random_matrix(1, 3, rng));
  gradcheck(bias, [&] { return sum_all(add_row_broadcast(a, bias)); });
}

TEST(Autograd, LeakyReluGradient) {
  Rng rng(4);
  Var a = make_param(random_matrix(3, 3, rng));
  gradcheck(a, [&] { return sum_all(leaky_relu(a)); });
}

TEST(Autograd, EluGradient) {
  Rng rng(5);
  Var a = make_param(random_matrix(3, 3, rng));
  gradcheck(a, [&] { return sum_all(elu(a)); });
}

std::uint64_t bits_of(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

TEST(Autograd, EluMatchesLiteralFormulaBitForBit) {
  // elu's forward must be x > 0 ? x : expm1(x) and its backward
  // g + gy * (x > 0 ? 1.0 : exp(x)) exactly, element by element, into a
  // fresh gradient (g = 0.0) and into an existing one: signed zeros,
  // NaN, infinities, denormals and mixed signs at every position.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0,     -0.0,    nan,      inf,     -inf,
                             4.9e-324, -4.9e-324, 2.2e-308, -2.2e-308,
                             -745.2,  -30.0,   1e300,    -1e-17,  710.0};
  Rng rng(15);
  for (const std::size_t cols : {std::size_t{1}, std::size_t{5},
                                 std::size_t{8}, std::size_t{33}}) {
    Matrix x(7, cols), gy(7, cols), g0(7, cols);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = i % 3 == 0
                        ? specials[(i / 3) % std::size(specials)]
                        : rng.normal() * (i % 2 == 0 ? 1.0 : 40.0);
      gy.data()[i] = i % 4 == 0 ? -0.0 : rng.normal();
      g0.data()[i] = i % 5 == 0 ? 0.0 : rng.normal();
    }
    for (const bool fresh : {true, false}) {
      SCOPED_TRACE("cols=" + std::to_string(cols) +
                   (fresh ? " fresh" : " accumulating"));
      Var a = make_param(x);
      if (!fresh) a->grad = g0;
      Var y = elu(a);
      y->grad = gy;
      y->backward_fn(*y);
      for (std::size_t i = 0; i < x.size(); ++i) {
        const double xi = x.data()[i];
        const double want_y = xi > 0 ? xi : std::expm1(xi);
        const double want_g =
            (fresh ? 0.0 : g0.data()[i]) +
            gy.data()[i] * (xi > 0 ? 1.0 : std::exp(xi));
        ASSERT_EQ(bits_of(y->value.data()[i]), bits_of(want_y))
            << "forward i=" << i << " x=" << xi;
        ASSERT_EQ(bits_of(a->grad.data()[i]), bits_of(want_g))
            << "backward i=" << i << " x=" << xi;
      }
    }
  }
}

TEST(Autograd, GatherRowsGradient) {
  Rng rng(6);
  Var a = make_param(random_matrix(4, 3, rng));
  const std::vector<std::uint32_t> idx{0, 2, 2, 3, 1};
  gradcheck(a, [&] { return sum_all(gather_rows(a, idx)); });
}

TEST(Autograd, ScatterAddRowsGradient) {
  Rng rng(7);
  Var a = make_param(random_matrix(5, 3, rng));
  const std::vector<std::uint32_t> idx{0, 1, 1, 2, 0};
  gradcheck(a, [&] { return sum_all(scatter_add_rows(a, idx, 3)); });
}

TEST(Autograd, SegmentSoftmaxForward) {
  Matrix s(4, 1);
  s.at(0, 0) = 1.0;
  s.at(1, 0) = 1.0;  // segment 0: equal scores -> 0.5 / 0.5
  s.at(2, 0) = 0.0;
  s.at(3, 0) = 0.0;  // segment 1
  Var scores = make_input(std::move(s));
  Var out = segment_softmax(scores, {0, 0, 1, 1}, 2);
  EXPECT_NEAR(out->value.at(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(out->value.at(1, 0), 0.5, 1e-12);
  EXPECT_NEAR(out->value.at(2, 0) + out->value.at(3, 0), 1.0, 1e-12);
}

TEST(Autograd, SegmentSoftmaxGradient) {
  Rng rng(8);
  Var scores = make_param(random_matrix(6, 1, rng));
  const std::vector<std::uint32_t> seg{0, 0, 1, 1, 1, 2};
  // Weight the outputs so the gradient is not trivially zero (softmax
  // sums to 1 per segment, so d(sum)/ds = 0).
  Var weights = make_input(random_matrix(6, 1, rng));
  gradcheck(scores, [&] {
    return sum_all(mul_rowwise(segment_softmax(scores, seg, 3), weights));
  });
}

TEST(Autograd, MulRowwiseGradient) {
  Rng rng(9);
  Var alpha = make_param(random_matrix(4, 1, rng));
  Var h = make_param(random_matrix(4, 3, rng));
  gradcheck(alpha, [&] { return sum_all(mul_rowwise(alpha, h)); });
  alpha->zero_grad();
  h->zero_grad();
  gradcheck(h, [&] { return sum_all(mul_rowwise(alpha, h)); });
}

TEST(Autograd, MaxPoolRowsGradient) {
  Rng rng(10);
  Var a = make_param(random_matrix(5, 3, rng));
  gradcheck(a, [&] { return sum_all(max_pool_rows(a)); });
}

TEST(Autograd, CrossEntropyGradient) {
  Rng rng(11);
  Var logits = make_param(random_matrix(1, 4, rng));
  gradcheck(logits, [&] { return cross_entropy(logits, 2); });
}

TEST(Autograd, CrossEntropyLossValue) {
  Matrix l(1, 2);
  l.at(0, 0) = 0.0;
  l.at(0, 1) = 0.0;
  Var logits = make_input(std::move(l));
  Var loss = cross_entropy(logits, 0);
  EXPECT_NEAR(loss->value.at(0, 0), std::log(2.0), 1e-12);
}

TEST(Autograd, ChainedCompositionGradient) {
  // A miniature GAT-like pipeline through every op family at once.
  Rng rng(12);
  Var x = make_param(random_matrix(4, 3, rng));
  Var w = make_param(random_matrix(3, 2, rng));
  Var a = make_param(random_matrix(2, 1, rng));
  const std::vector<std::uint32_t> src{0, 1, 2, 3, 0};
  const std::vector<std::uint32_t> dst{1, 1, 3, 0, 2};
  const auto f = [&] {
    Var h = matmul(x, w);
    Var hs = gather_rows(h, src);
    Var ht = gather_rows(h, dst);
    Var scores = matmul(leaky_relu(add(hs, ht)), a);
    Var alpha = segment_softmax(scores, dst, 4);
    Var msg = mul_rowwise(alpha, hs);
    Var out = scatter_add_rows(msg, dst, 4);
    Var pooled = max_pool_rows(elu(out));
    return cross_entropy(pooled, 1);
  };
  gradcheck(x, f, 1e-4);
  x->zero_grad();
  w->zero_grad();
  a->zero_grad();
  gradcheck(w, f, 1e-4);
  x->zero_grad();
  w->zero_grad();
  a->zero_grad();
  gradcheck(a, f, 1e-4);
}

TEST(Autograd, NoGradFlowsIntoInputs) {
  Rng rng(13);
  Var x = make_input(random_matrix(2, 2, rng));
  Var w = make_param(random_matrix(2, 2, rng));
  Var loss = sum_all(matmul(x, w));
  backward(loss);
  EXPECT_EQ(x->grad.size(), 0u);  // never allocated
  EXPECT_GT(w->grad.size(), 0u);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimise ||x - t||^2 via the autograd + Adam stack.
  Rng rng(14);
  Var x = make_param(random_matrix(1, 4, rng));
  const Matrix target = random_matrix(1, 4, rng);
  Adam opt({x}, /*lr=*/0.05);
  for (int it = 0; it < 500; ++it) {
    Var t = make_input(target);
    Var diff = add(x, scale(t, -1.0));
    Var loss = matmul(diff, transpose(diff));
    backward(loss);
    opt.step();
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(x->value.data()[i], target.data()[i], 0.05);
  }
}

}  // namespace
}  // namespace mpidetect::ml
