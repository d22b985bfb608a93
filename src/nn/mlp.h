// Multi-layer perceptron classifier built from DenseLayers.
//
// Supports everything the FL engine and the optimization techniques need
// from a real model: forward/backward training, flattened parameter
// get/set (FedAvg aggregation, quantization, pruning) and per-layer
// freezing (partial training).
#ifndef SRC_NN_MLP_H_
#define SRC_NN_MLP_H_

#include <cstddef>
#include <vector>

#include "src/nn/layers.h"
#include "src/nn/tensor.h"

namespace floatfl {

class Rng;
class ThreadPool;

class Mlp {
 public:
  // dims = {input, hidden..., classes}. All hidden layers use ReLU; the last
  // layer is linear (logits).
  Mlp(const std::vector<size_t>& dims, Rng& rng);

  // Same network with `params` (the GetParameters layout) in place of the
  // random initialization. `rng` is advanced exactly as Mlp(dims, rng)
  // advances it, so later draws match Mlp(dims, rng) + SetParameters(params);
  // the Glorot draws are skipped rather than computed.
  Mlp(const std::vector<size_t>& dims, const std::vector<float>& params, Rng& rng);

  Tensor Forward(const Tensor& input);

  // One SGD step over a batch. `frozen_layers` freezes the *first* k layers
  // (partial training trains only the top of the network, matching partial
  // training schemes that update a fraction of the model). Returns mean loss.
  double TrainBatch(const Tensor& input, const std::vector<int>& labels, float lr,
                    size_t frozen_layers = 0);

  // Accuracy and mean softmax cross-entropy over (input, labels) from one
  // forward pass. The rows run in fixed-size blocks through `pool` (null runs
  // inline), with per-call scratch instead of the layers' training buffers.
  // Every row is computed alone and the row losses are summed in row order,
  // so the result is bit-identical for every pool and equal to
  // SoftmaxXent::Accuracy / Loss over Forward(input).
  struct Evaluation {
    double accuracy = 0.0;
    double loss = 0.0;
  };
  Evaluation Evaluate(const Tensor& input, const std::vector<int>& labels,
                      ThreadPool* pool = nullptr) const;
  double EvaluateAccuracy(const Tensor& input, const std::vector<int>& labels) const;
  double EvaluateLoss(const Tensor& input, const std::vector<int>& labels) const;

  size_t NumLayers() const { return layers_.size(); }
  size_t ParamCount() const;

  // Flattened parameter vector in a fixed layer order (weights then bias per
  // layer). SetParameters requires the exact same length.
  std::vector<float> GetParameters() const;
  void SetParameters(const std::vector<float>& params);

  DenseLayer& layer(size_t i) { return layers_[i]; }
  const DenseLayer& layer(size_t i) const { return layers_[i]; }

  // Weighted in-place average of parameter vectors (FedAvg aggregation).
  // `weights` must sum to a positive value; models must agree in shape.
  static std::vector<float> Aggregate(const std::vector<std::vector<float>>& parameter_sets,
                                      const std::vector<double>& weights);

 private:
  // Runs every layer's Forward; the result lives in the last layer.
  const Tensor& ForwardLayers(const Tensor& input);

  std::vector<DenseLayer> layers_;
};

}  // namespace floatfl

#endif  // SRC_NN_MLP_H_
