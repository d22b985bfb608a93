#include "src/nn/layers.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace floatfl {
namespace {

void ReluInPlace(Tensor& t) {
  for (auto& x : t.flat()) {
    x = std::max(x, 0.0f);
  }
}

}  // namespace

DenseLayer::DenseLayer(size_t in_dim, size_t out_dim, bool relu, Rng& rng)
    : weights_(Tensor::GlorotUniform(in_dim, out_dim, rng)),
      bias_(1, out_dim),
      grad_w_(in_dim, out_dim),
      grad_b_(1, out_dim),
      relu_(relu) {}

DenseLayer::DenseLayer(size_t in_dim, size_t out_dim, bool relu, const float* params)
    : weights_(in_dim, out_dim),
      bias_(1, out_dim),
      grad_w_(in_dim, out_dim),
      grad_b_(1, out_dim),
      relu_(relu) {
  std::copy_n(params, weights_.size(), weights_.data());
  std::copy_n(params + weights_.size(), bias_.size(), bias_.data());
}

const Tensor& DenseLayer::Forward(const Tensor& input) {
  FLOATFL_CHECK(input.cols() == weights_.rows());
  last_input_ = input;
  input.MatMulInto(weights_, &last_pre_activation_);
  last_pre_activation_.AddRowBroadcast(bias_);
  output_ = last_pre_activation_;
  if (relu_) {
    ReluInPlace(output_);
  }
  return output_;
}

void DenseLayer::Infer(const Tensor& input, Tensor* out) const {
  FLOATFL_CHECK(input.cols() == weights_.rows());
  input.MatMulInto(weights_, out);
  out->AddRowBroadcast(bias_);
  if (relu_) {
    ReluInPlace(*out);
  }
}

const Tensor& DenseLayer::Backward(const Tensor& grad_output) {
  AccumulateGradients(grad_output);
  grad_pre_activation_.MatMulTransposedInto(weights_, &grad_input_);
  return grad_input_;
}

void DenseLayer::AccumulateGradients(const Tensor& grad_output) {
  grad_pre_activation_ = grad_output;
  if (relu_) {
    FLOATFL_CHECK(grad_pre_activation_.SameShape(last_pre_activation_));
    float* __restrict g = grad_pre_activation_.data();
    const float* __restrict pre = last_pre_activation_.data();
    for (size_t i = 0; i < grad_pre_activation_.size(); ++i) {
      g[i] = pre[i] <= 0.0f ? 0.0f : g[i];
    }
  }
  // The batch gradient is summed from zero on its own and then added, so
  // gradients accumulated over several Backward calls round as before.
  last_input_.TransposedMatMulInto(grad_pre_activation_, &batch_grad_w_);
  grad_w_.AddInPlace(batch_grad_w_);
  grad_b_.AddInPlace(grad_pre_activation_.ColSum());
}

void DenseLayer::Step(float lr, bool frozen) {
  if (!frozen) {
    weights_.SubScaledInPlace(lr, grad_w_);
    bias_.SubScaledInPlace(lr, grad_b_);
  }
  grad_w_.Reset(grad_w_.rows(), grad_w_.cols());
  grad_b_.Reset(grad_b_.rows(), grad_b_.cols());
}

double SoftmaxXent::Loss(const Tensor& logits, const std::vector<int>& labels, Tensor* probs) {
  FLOATFL_CHECK(logits.rows() == labels.size());
  FLOATFL_CHECK(probs != nullptr);
  const size_t cols = logits.cols();
  probs->Reset(logits.rows(), cols);
  double total = 0.0;
  for (size_t i = 0; i < logits.rows(); ++i) {
    total += RowLoss(logits.data() + i * cols, cols, labels[i], probs->data() + i * cols);
  }
  return total / static_cast<double>(logits.rows());
}

double SoftmaxXent::RowLoss(const float* logits, size_t cols, int label, float* probs) {
  FLOATFL_CHECK(label >= 0 && static_cast<size_t>(label) < cols);
  float maxv = logits[0];
  for (size_t j = 1; j < cols; ++j) {
    maxv = std::max(maxv, logits[j]);
  }
  double sum = 0.0;
  for (size_t j = 0; j < cols; ++j) {
    const double e = std::exp(static_cast<double>(logits[j] - maxv));
    probs[j] = static_cast<float>(e);
    sum += e;
  }
  for (size_t j = 0; j < cols; ++j) {
    probs[j] = static_cast<float>(probs[j] / sum);
  }
  return -std::log(std::max(1e-12, static_cast<double>(probs[label])));
}

size_t SoftmaxXent::ArgMax(const float* logits, size_t cols) {
  size_t best = 0;
  for (size_t j = 1; j < cols; ++j) {
    if (logits[j] > logits[best]) {
      best = j;
    }
  }
  return best;
}

Tensor SoftmaxXent::Gradient(const Tensor& probs, const std::vector<int>& labels) {
  FLOATFL_CHECK(probs.rows() == labels.size());
  Tensor grad = probs;
  const float inv_batch = 1.0f / static_cast<float>(probs.rows());
  for (size_t i = 0; i < probs.rows(); ++i) {
    grad.At(i, static_cast<size_t>(labels[i])) -= 1.0f;
  }
  grad.ScaleInPlace(inv_batch);
  return grad;
}

double SoftmaxXent::Accuracy(const Tensor& logits, const std::vector<int>& labels) {
  FLOATFL_CHECK(logits.rows() == labels.size());
  if (logits.rows() == 0) {
    return 0.0;
  }
  size_t correct = 0;
  for (size_t i = 0; i < logits.rows(); ++i) {
    const size_t best = ArgMax(logits.data() + i * logits.cols(), logits.cols());
    if (static_cast<int>(best) == labels[i]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(logits.rows());
}

}  // namespace floatfl
