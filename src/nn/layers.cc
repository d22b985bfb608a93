#include "src/nn/layers.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace floatfl {

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
    for (auto& x : output_.flat()) {
      x = std::max(x, 0.0f);
    }
  }
  return output_;
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
  *probs = logits;
  double total = 0.0;
  for (size_t i = 0; i < logits.rows(); ++i) {
    float maxv = logits.At(i, 0);
    for (size_t j = 1; j < logits.cols(); ++j) {
      maxv = std::max(maxv, logits.At(i, j));
    }
    double sum = 0.0;
    for (size_t j = 0; j < logits.cols(); ++j) {
      const double e = std::exp(static_cast<double>(logits.At(i, j) - maxv));
      probs->At(i, j) = static_cast<float>(e);
      sum += e;
    }
    for (size_t j = 0; j < logits.cols(); ++j) {
      probs->At(i, j) = static_cast<float>(probs->At(i, j) / sum);
    }
    const int y = labels[i];
    FLOATFL_CHECK(y >= 0 && static_cast<size_t>(y) < logits.cols());
    total += -std::log(std::max(1e-12, static_cast<double>(probs->At(i, y))));
  }
  return total / static_cast<double>(logits.rows());
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
    size_t best = 0;
    for (size_t j = 1; j < logits.cols(); ++j) {
      if (logits.At(i, j) > logits.At(i, best)) {
        best = j;
      }
    }
    if (static_cast<int>(best) == labels[i]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(logits.rows());
}

}  // namespace floatfl
