// Bit-exactness of the vectorized dense kernels.
//
// MatMul, MatMulTransposed and TransposedMatMul (and their Into forms) must
// produce the same bytes as the scalar loops in bench/kernel_oracle.h for
// every shape and every value class the real engine can feed them: ragged
// widths that leave vector tails, empty and single-column operands, ReLU
// zeros (which MatMul and TransposedMatMul skip), signed zeros, denormals,
// and Inf/NaN weights against zero activations (skipped terms stay finite;
// MatMulTransposed skips nothing, so 0 * Inf shows up as NaN there).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench/kernel_oracle.h"
#include "src/common/rng.h"
#include "src/nn/layers.h"
#include "src/nn/mlp.h"
#include "src/nn/tensor.h"

namespace floatfl {
namespace {

enum class Fill {
  kDense,       // standard normals
  kReluZeros,   // about half exact zeros plus whole zero rows
  kSignedZeros, // +0, -0 and normals mixed
  kDenormals,   // values near FLT_MIN, so products and sums go subnormal
  kNonFinite,   // normals with Inf, -Inf and NaN sprinkled in
};

const char* FillName(Fill fill) {
  switch (fill) {
    case Fill::kDense:
      return "dense";
    case Fill::kReluZeros:
      return "relu_zeros";
    case Fill::kSignedZeros:
      return "signed_zeros";
    case Fill::kDenormals:
      return "denormals";
    case Fill::kNonFinite:
      return "non_finite";
  }
  return "?";
}

Tensor Make(size_t rows, size_t cols, Fill fill, Rng& rng) {
  Tensor t(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    const bool zero_row = fill == Fill::kReluZeros && r % 5 == 2;
    for (size_t c = 0; c < cols; ++c) {
      float v = static_cast<float>(rng.Normal());
      const double u = rng.NextDouble();
      switch (fill) {
        case Fill::kDense:
          break;
        case Fill::kReluZeros:
          v = zero_row ? 0.0f : std::max(v, 0.0f);
          break;
        case Fill::kSignedZeros:
          if (u < 0.3) {
            v = 0.0f;
          } else if (u < 0.6) {
            v = -0.0f;
          }
          break;
        case Fill::kDenormals:
          v *= u < 0.5 ? 1e-20f : 1e-38f;
          break;
        case Fill::kNonFinite:
          if (u < 0.05) {
            v = std::numeric_limits<float>::infinity();
          } else if (u < 0.1) {
            v = -std::numeric_limits<float>::infinity();
          } else if (u < 0.15) {
            v = std::numeric_limits<float>::quiet_NaN();
          }
          break;
      }
      t.At(r, c) = v;
    }
  }
  return t;
}

struct Shape {
  size_t m, k, n;
};

// Widths 1/3/5/17/63/65/129 leave every possible vector tail; 0 rows, one
// column and the real-MLP shapes (batch 20; 64 -> 128 -> 64 -> 10) ride
// along.
std::vector<Shape> Shapes() {
  std::vector<Shape> shapes = {
      {0, 5, 7},   {3, 0, 4},   {4, 6, 0},   {1, 1, 1},   {7, 1, 3},   {5, 4, 1},
      {20, 64, 128}, {20, 128, 64}, {20, 64, 10}, {16, 128, 64},
  };
  for (size_t w : {1, 3, 5, 17, 63, 65, 129}) {
    shapes.push_back({3, w, 17});
    shapes.push_back({4, 9, w});
    shapes.push_back({w, 5, 6});
  }
  return shapes;
}

std::string Label(const char* kernel, const Shape& s, Fill a, Fill b) {
  return std::string(kernel) + " m=" + std::to_string(s.m) + " k=" + std::to_string(s.k) +
         " n=" + std::to_string(s.n) + " a=" + FillName(a) + " b=" + FillName(b);
}

// Activations (left operand) and weights (right operand) drawn per pair of
// fills; every combination below is checked on every shape.
const std::vector<std::pair<Fill, Fill>> kFillPairs = {
    {Fill::kDense, Fill::kDense},        {Fill::kReluZeros, Fill::kDense},
    {Fill::kSignedZeros, Fill::kDense},  {Fill::kDense, Fill::kSignedZeros},
    {Fill::kSignedZeros, Fill::kSignedZeros}, {Fill::kDenormals, Fill::kDenormals},
    {Fill::kDense, Fill::kDenormals},    {Fill::kReluZeros, Fill::kNonFinite},
    {Fill::kSignedZeros, Fill::kNonFinite},
};

TEST(KernelOracleTest, MatMulMatchesScalarBits) {
  Rng rng(101);
  for (const Shape& s : Shapes()) {
    for (const auto& [fa, fb] : kFillPairs) {
      const Tensor a = Make(s.m, s.k, fa, rng);
      const Tensor b = Make(s.k, s.n, fb, rng);
      EXPECT_TRUE(BitsEqual(a.MatMul(b), OracleMatMul(a, b))) << Label("MatMul", s, fa, fb);
    }
  }
}

TEST(KernelOracleTest, MatMulTransposedMatchesScalarBits) {
  Rng rng(102);
  for (const Shape& s : Shapes()) {
    for (const auto& [fa, fb] : kFillPairs) {
      const Tensor a = Make(s.m, s.k, fa, rng);
      const Tensor b = Make(s.n, s.k, fb, rng);
      EXPECT_TRUE(BitsEqual(a.MatMulTransposed(b), OracleMatMulTransposed(a, b)))
          << Label("MatMulTransposed", s, fa, fb);
    }
  }
}

TEST(KernelOracleTest, TransposedMatMulMatchesScalarBits) {
  Rng rng(103);
  for (const Shape& s : Shapes()) {
    for (const auto& [fa, fb] : kFillPairs) {
      const Tensor a = Make(s.k, s.m, fa, rng);
      const Tensor b = Make(s.k, s.n, fb, rng);
      EXPECT_TRUE(BitsEqual(a.TransposedMatMul(b), OracleTransposedMatMul(a, b)))
          << Label("TransposedMatMul", s, fa, fb);
    }
  }
}

// Zero activations against Inf/NaN weights: the skipping kernels never form
// 0 * Inf, so those outputs stay finite, while MatMulTransposed forms it and
// yields NaN. Pins the zero-skip semantics independently of the oracle.
TEST(KernelOracleTest, ZeroSkipSemanticsAgainstNonFiniteWeights) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor x(2, 3);  // row 0 all zero (one of them -0), row 1 = {1, 0, 0}
  x.At(0, 1) = -0.0f;
  x.At(1, 0) = 1.0f;
  Tensor w(3, 2);  // rows 1 and 2 carry Inf and NaN
  w.At(0, 0) = 2.0f;
  w.At(0, 1) = 3.0f;
  w.At(1, 0) = inf;
  w.At(1, 1) = nan;
  w.At(2, 0) = -inf;
  w.At(2, 1) = inf;

  const Tensor y = x.MatMul(w);
  EXPECT_TRUE(BitsEqual(y, OracleMatMul(x, w)));
  EXPECT_EQ(y.At(0, 0), 0.0f);
  EXPECT_FALSE(std::signbit(y.At(0, 0)));
  EXPECT_EQ(y.At(1, 0), 2.0f);
  EXPECT_EQ(y.At(1, 1), 3.0f);

  // x (2 x 3) against w^T: 0 * Inf is formed, so row 0 is NaN.
  Tensor wt(2, 3);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 2; ++c) {
      wt.At(c, r) = w.At(r, c);
    }
  }
  const Tensor z = x.MatMulTransposed(wt);
  EXPECT_TRUE(BitsEqual(z, OracleMatMulTransposed(x, wt)));
  EXPECT_TRUE(std::isnan(z.At(0, 0)));
  EXPECT_TRUE(std::isnan(z.At(0, 1)));

  // TransposedMatMul skips zero entries of the left operand column-wise.
  Tensor d(3, 2);  // d^T rows: {0, 0, 0} and {1, 0, 0}
  d.At(0, 1) = 1.0f;
  const Tensor t = d.TransposedMatMul(w);
  EXPECT_TRUE(BitsEqual(t, OracleTransposedMatMul(d, w)));
  EXPECT_EQ(t.At(0, 0), 0.0f);
  EXPECT_EQ(t.At(0, 1), 0.0f);
  EXPECT_EQ(t.At(1, 0), 2.0f);
  EXPECT_EQ(t.At(1, 1), 3.0f);
}

// The Into forms reshape and zero a reused output: a dirty, larger buffer
// must not leak into the result.
TEST(KernelOracleTest, IntoFormsIgnoreStaleOutputContents) {
  Rng rng(104);
  const Tensor a = Make(20, 64, Fill::kReluZeros, rng);
  const Tensor b = Make(64, 128, Fill::kDense, rng);
  const Tensor bt = Make(10, 64, Fill::kDense, rng);
  const Tensor g = Make(20, 10, Fill::kDense, rng);
  Tensor out(50, 200, std::numeric_limits<float>::quiet_NaN());
  a.MatMulInto(b, &out);
  EXPECT_TRUE(BitsEqual(out, OracleMatMul(a, b)));
  out.Reset(3, 3, 7.0f);
  a.MatMulTransposedInto(bt, &out);
  EXPECT_TRUE(BitsEqual(out, OracleMatMulTransposed(a, bt)));
  out.Reset(1, 1, -1.0f);
  a.TransposedMatMulInto(g, &out);
  EXPECT_TRUE(BitsEqual(out, OracleTransposedMatMul(a, g)));
}

// SubScaledInPlace rounds exactly as scaling a copy and subtracting it.
TEST(KernelOracleTest, SubScaledMatchesScaleThenSubtract) {
  Rng rng(105);
  for (size_t cols : {1, 3, 17, 129}) {
    for (Fill fill : {Fill::kDense, Fill::kSignedZeros, Fill::kDenormals, Fill::kNonFinite}) {
      Tensor w = Make(7, cols, Fill::kDense, rng);
      const Tensor g = Make(7, cols, fill, rng);
      Tensor expected = w;
      Tensor scaled = g;
      scaled.ScaleInPlace(0.05f);
      expected.SubInPlace(scaled);
      w.SubScaledInPlace(0.05f, g);
      EXPECT_TRUE(BitsEqual(w, expected)) << cols << " " << FillName(fill);
    }
  }
}

// Gradients accumulated over two Backward calls before one Step round as
// summing each batch gradient from zero on its own and adding it does.
TEST(KernelOracleTest, DenseLayerAccumulatesLikeFreshTensors) {
  Rng rng(106);
  DenseLayer layer(17, 5, /*relu=*/true, rng);
  Tensor expected_w = layer.weights();
  Tensor grad_w(17, 5);
  for (int batch = 0; batch < 2; ++batch) {
    const Tensor x = Make(6, 17, Fill::kSignedZeros, rng);
    const Tensor gy = Make(6, 5, Fill::kDense, rng);
    const Tensor pre = OracleMatMul(x, layer.weights());
    layer.Forward(x);
    Tensor masked = gy;
    for (size_t i = 0; i < masked.size(); ++i) {
      if (pre.flat()[i] + layer.bias().flat()[i % 5] <= 0.0f) {
        masked.flat()[i] = 0.0f;
      }
    }
    grad_w.AddInPlace(OracleTransposedMatMul(x, masked));
    const Tensor dx = layer.Backward(gy);
    EXPECT_TRUE(BitsEqual(dx, OracleMatMulTransposed(masked, layer.weights())));
  }
  Tensor step = grad_w;
  step.ScaleInPlace(0.1f);
  expected_w.SubInPlace(step);
  layer.Step(0.1f, /*frozen=*/false);
  EXPECT_TRUE(BitsEqual(layer.weights(), expected_w));
}

// Whole SGD steps at the real-MLP shapes: buffer reuse, backpropagation
// cut at the lowest trained layer and the one-pass update leave every
// weight and the loss bit-identical to the pre-change step, for full and
// partial training.
TEST(KernelOracleTest, TrainBatchMatchesOracleStep) {
  Rng rng(107);
  const std::vector<size_t> dims = {64, 128, 64, 10};
  Mlp net(dims, rng);
  Rng copy_rng(0);
  Mlp oracle(dims, net.GetParameters(), copy_rng);
  for (int step = 0; step < 9; ++step) {
    const size_t frozen = static_cast<size_t>(step % 3);
    const Tensor x = Make(step == 8 ? 7 : 20, 64, Fill::kDense, rng);
    std::vector<int> labels(x.rows());
    for (int& label : labels) {
      label = static_cast<int>(rng.UniformInt(10));
    }
    const double loss = net.TrainBatch(x, labels, 0.05f, frozen);
    const double oracle_loss = OracleTrainBatch(oracle, x, labels, 0.05f, frozen);
    EXPECT_EQ(std::memcmp(&loss, &oracle_loss, sizeof loss), 0) << "step " << step;
    for (size_t l = 0; l < dims.size() - 1; ++l) {
      EXPECT_TRUE(BitsEqual(net.layer(l).weights(), oracle.layer(l).weights()))
          << "step " << step << " layer " << l;
      EXPECT_TRUE(BitsEqual(net.layer(l).bias(), oracle.layer(l).bias()))
          << "step " << step << " layer " << l;
    }
  }
}

}  // namespace
}  // namespace floatfl
