// Layers for the miniature training stack: Dense (fully connected) with ReLU
// activations and a softmax cross-entropy head. Enough to train real MLP
// classifiers on the synthetic federated datasets and to give the
// optimization techniques real tensors to transform.
#ifndef SRC_NN_LAYERS_H_
#define SRC_NN_LAYERS_H_

#include <cstddef>
#include <vector>

#include "src/nn/tensor.h"

namespace floatfl {

class Rng;

// Fully connected layer: y = x W + b, with optional ReLU.
class DenseLayer {
 public:
  DenseLayer(size_t in_dim, size_t out_dim, bool relu, Rng& rng);
  // Takes its parameters from `params`: in_dim * out_dim weights, then
  // out_dim biases (the Mlp::GetParameters layout). Draws nothing.
  DenseLayer(size_t in_dim, size_t out_dim, bool relu, const float* params);

  // Forward for a batch (batch x in_dim) -> (batch x out_dim). Caches the
  // input and pre-activation needed for Backward. The returned activation
  // lives in the layer and is overwritten by the next Forward.
  const Tensor& Forward(const Tensor& input);

  // Inference-only forward into `*out`: the values Forward returns, computed
  // without the layer's training buffers, so concurrent calls on one layer
  // are safe. Row i of the output depends only on row i of the input.
  void Infer(const Tensor& input, Tensor* out) const;

  // Backward pass: takes dL/dy, accumulates weight/bias gradients and returns
  // dL/dx, which lives in the layer until the next Backward. Must be called
  // after Forward on the same batch.
  const Tensor& Backward(const Tensor& grad_output);

  // Backward without dL/dx, for a layer whose input needs no gradient (the
  // lowest trained layer of a network). Accumulates exactly what Backward
  // does.
  void AccumulateGradients(const Tensor& grad_output);

  // Applies an SGD step with the given learning rate and clears gradients.
  // If `frozen` is true the parameters are left untouched (partial training).
  void Step(float lr, bool frozen);

  Tensor& weights() { return weights_; }
  const Tensor& weights() const { return weights_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }
  size_t ParamCount() const { return weights_.size() + bias_.size(); }
  bool relu() const { return relu_; }

 private:
  Tensor weights_;  // in_dim x out_dim
  Tensor bias_;     // 1 x out_dim
  Tensor grad_w_;
  Tensor grad_b_;
  // Per-batch buffers, reshaped in place from step to step.
  Tensor last_input_;
  Tensor last_pre_activation_;
  Tensor output_;
  Tensor grad_pre_activation_;
  Tensor batch_grad_w_;
  Tensor grad_input_;
  bool relu_;
};

// Softmax + cross-entropy loss head.
//
// Forward returns per-batch mean loss; Gradient returns dL/dlogits for
// Backward through the network. Labels are class indices.
struct SoftmaxXent {
  // probs is filled with softmax(logits).
  static double Loss(const Tensor& logits, const std::vector<int>& labels, Tensor* probs);
  static Tensor Gradient(const Tensor& probs, const std::vector<int>& labels);
  // Fraction of argmax predictions matching labels.
  static double Accuracy(const Tensor& logits, const std::vector<int>& labels);

  // One row of Loss: writes softmax(logits[0, cols)) to `probs` and returns
  // the row's cross-entropy against `label`. Loss sums these in row order.
  static double RowLoss(const float* logits, size_t cols, int label, float* probs);
  // The first index of the row's largest logit: Accuracy's prediction.
  static size_t ArgMax(const float* logits, size_t cols);
};

}  // namespace floatfl

#endif  // SRC_NN_LAYERS_H_
