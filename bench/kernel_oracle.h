// Scalar oracle for the dense kernels in src/nn/tensor.cc.
//
// These are the textbook loops the vectorized kernels replaced, kept only so
// tests (tests/nn/kernel_oracle_test.cc) and the perf harness's `nn` area
// can check that every output bit is unchanged. OracleTrainBatch chains them
// into the SGD step the layers took before their buffers were reused.
//
//   MatMul            i, k, j order; a(i, k) == 0 is skipped
//   MatMulTransposed  one float dot product per element, k order from +0,
//                     nothing skipped (0 * Inf gives NaN)
//   TransposedMatMul  k, i, j order; a(k, i) == 0 is skipped
//
// Compare with BitsEqual (bytes per element), never with a float tolerance.
#ifndef BENCH_KERNEL_ORACLE_H_
#define BENCH_KERNEL_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/common/check.h"
#include "src/nn/layers.h"
#include "src/nn/mlp.h"
#include "src/nn/tensor.h"

namespace floatfl {

inline Tensor OracleMatMul(const Tensor& a, const Tensor& b) {
  FLOATFL_CHECK(a.cols() == b.rows());
  Tensor out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      const float x = a.data()[i * a.cols() + k];
      if (x == 0.0f) {
        continue;
      }
      const float* brow = b.data() + k * b.cols();
      float* orow = out.data() + i * b.cols();
      for (size_t j = 0; j < b.cols(); ++j) {
        orow[j] += x * brow[j];
      }
    }
  }
  return out;
}

inline Tensor OracleMatMulTransposed(const Tensor& a, const Tensor& b) {
  FLOATFL_CHECK(a.cols() == b.cols());
  Tensor out(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      float acc = 0.0f;
      const float* arow = a.data() + i * a.cols();
      const float* brow = b.data() + j * b.cols();
      for (size_t k = 0; k < a.cols(); ++k) {
        acc += arow[k] * brow[k];
      }
      out.data()[i * b.rows() + j] = acc;
    }
  }
  return out;
}

inline Tensor OracleTransposedMatMul(const Tensor& a, const Tensor& b) {
  FLOATFL_CHECK(a.rows() == b.rows());
  Tensor out(a.cols(), b.cols());
  for (size_t k = 0; k < a.rows(); ++k) {
    const float* arow = a.data() + k * a.cols();
    const float* brow = b.data() + k * b.cols();
    for (size_t i = 0; i < a.cols(); ++i) {
      const float x = arow[i];
      if (x == 0.0f) {
        continue;
      }
      float* orow = out.data() + i * b.cols();
      for (size_t j = 0; j < b.cols(); ++j) {
        orow[j] += x * brow[j];
      }
    }
  }
  return out;
}

// One SGD step of `net` as the layers computed it before the kernels were
// vectorized: full backpropagation through every layer with oracle products
// into fresh tensors, each batch gradient added to a zero gradient, and
// scale-a-copy-then-subtract updates of the layers from `frozen_layers` on.
// Returns the batch loss.
inline double OracleTrainBatch(Mlp& net, const Tensor& input, const std::vector<int>& labels,
                               float lr, size_t frozen_layers = 0) {
  const size_t num_layers = net.NumLayers();
  std::vector<Tensor> inputs;
  std::vector<Tensor> pre_activations;
  Tensor x = input;
  for (size_t l = 0; l < num_layers; ++l) {
    const DenseLayer& layer = net.layer(l);
    inputs.push_back(x);
    Tensor z = OracleMatMul(x, layer.weights());
    z.AddRowBroadcast(layer.bias());
    pre_activations.push_back(z);
    if (layer.relu()) {
      for (float& v : z.flat()) {
        v = std::max(v, 0.0f);
      }
    }
    x = z;
  }
  Tensor probs;
  const double loss = SoftmaxXent::Loss(x, labels, &probs);
  Tensor grad = SoftmaxXent::Gradient(probs, labels);
  std::vector<Tensor> grad_w(num_layers);
  std::vector<Tensor> grad_b(num_layers);
  for (size_t l = num_layers; l-- > 0;) {
    const DenseLayer& layer = net.layer(l);
    if (layer.relu()) {
      for (size_t i = 0; i < grad.size(); ++i) {
        if (pre_activations[l].flat()[i] <= 0.0f) {
          grad.flat()[i] = 0.0f;
        }
      }
    }
    grad_w[l] = Tensor(layer.weights().rows(), layer.weights().cols());
    grad_w[l].AddInPlace(OracleTransposedMatMul(inputs[l], grad));
    grad_b[l] = Tensor(1, layer.bias().cols());
    grad_b[l].AddInPlace(grad.ColSum());
    grad = OracleMatMulTransposed(grad, layer.weights());
  }
  for (size_t l = frozen_layers; l < num_layers; ++l) {
    grad_w[l].ScaleInPlace(lr);
    net.layer(l).weights().SubInPlace(grad_w[l]);
    grad_b[l].ScaleInPlace(lr);
    net.layer(l).bias().SubInPlace(grad_b[l]);
  }
  return loss;
}

// Same shape and, element by element, the same bytes, so -0.0, denormals
// and the sign of Inf count. Any two NaNs compare equal: IEEE 754 leaves
// open which operand's payload a NaN-NaN add propagates, and x86 takes it
// from whichever register the compiler made the destination, so NaN payload
// bits follow register allocation, not the arithmetic.
inline bool BitsEqual(const Tensor& x, const Tensor& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) {
    return false;
  }
  for (size_t i = 0; i < x.size(); ++i) {
    const float a = x.data()[i];
    const float b = y.data()[i];
    if (!(std::isnan(a) && std::isnan(b)) && std::memcmp(&a, &b, sizeof a) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace floatfl

#endif  // BENCH_KERNEL_ORACLE_H_
