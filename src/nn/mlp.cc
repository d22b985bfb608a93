#include "src/nn/mlp.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/agg/aggregator.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/sim/thread_pool.h"

namespace floatfl {
namespace {

// Rows per Evaluate block: small enough that a 400-row test set spreads over
// four threads in 25 even pieces.
constexpr size_t kEvalBlockRows = 16;

}  // namespace

Mlp::Mlp(const std::vector<size_t>& dims, Rng& rng) {
  FLOATFL_CHECK(dims.size() >= 2);
  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool relu = (i + 2 < dims.size());
    layers_.emplace_back(dims[i], dims[i + 1], relu, rng);
  }
}

Mlp::Mlp(const std::vector<size_t>& dims, const std::vector<float>& params, Rng& rng) {
  FLOATFL_CHECK(dims.size() >= 2);
  size_t total = 0;
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    total += (dims[i] + 1) * dims[i + 1];
  }
  FLOATFL_CHECK(params.size() == total);
  layers_.reserve(dims.size() - 1);
  size_t pos = 0;
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool relu = (i + 2 < dims.size());
    layers_.emplace_back(dims[i], dims[i + 1], relu, params.data() + pos);
    pos += layers_.back().ParamCount();
    rng.Discard(dims[i] * dims[i + 1]);  // the layer's Glorot draws
  }
}

const Tensor& Mlp::ForwardLayers(const Tensor& input) {
  const Tensor* x = &input;
  for (auto& layer : layers_) {
    x = &layer.Forward(*x);
  }
  return *x;
}

Tensor Mlp::Forward(const Tensor& input) { return ForwardLayers(input); }

double Mlp::TrainBatch(const Tensor& input, const std::vector<int>& labels, float lr,
                       size_t frozen_layers) {
  FLOATFL_CHECK(frozen_layers <= layers_.size());
  Tensor probs;
  const double loss = SoftmaxXent::Loss(ForwardLayers(input), labels, &probs);
  const Tensor grad = SoftmaxXent::Gradient(probs, labels);
  // Frozen layers never step, so backpropagation stops at the lowest trained
  // layer, which needs its weight gradients but no input gradient.
  if (frozen_layers < layers_.size()) {
    const Tensor* g = &grad;
    for (size_t i = layers_.size() - 1; i > frozen_layers; --i) {
      g = &layers_[i].Backward(*g);
    }
    layers_[frozen_layers].AccumulateGradients(*g);
  }
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].Step(lr, /*frozen=*/i < frozen_layers);
  }
  return loss;
}

Mlp::Evaluation Mlp::Evaluate(const Tensor& input, const std::vector<int>& labels,
                              ThreadPool* pool) const {
  FLOATFL_CHECK(input.rows() == labels.size());
  const size_t rows = input.rows();
  const size_t dim = input.cols();
  std::vector<double> row_loss(rows);
  std::vector<uint8_t> row_hit(rows);
  const size_t blocks = (rows + kEvalBlockRows - 1) / kEvalBlockRows;
  ParallelFor(pool, blocks, [&](size_t b) {
    const size_t begin = b * kEvalBlockRows;
    const size_t count = std::min(kEvalBlockRows, rows - begin);
    Tensor x(count, dim);
    std::copy_n(input.data() + begin * dim, count * dim, x.data());
    Tensor y;
    for (const DenseLayer& layer : layers_) {
      layer.Infer(x, &y);
      std::swap(x, y);
    }
    const size_t classes = x.cols();
    std::vector<float> probs(classes);
    for (size_t r = 0; r < count; ++r) {
      const float* logits = x.data() + r * classes;
      const int label = labels[begin + r];
      row_loss[begin + r] = SoftmaxXent::RowLoss(logits, classes, label, probs.data());
      row_hit[begin + r] = static_cast<int>(SoftmaxXent::ArgMax(logits, classes)) == label;
    }
  });
  Evaluation out;
  double total = 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < rows; ++i) {
    total += row_loss[i];
    correct += row_hit[i];
  }
  out.loss = total / static_cast<double>(rows);
  out.accuracy = rows == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(rows);
  return out;
}

double Mlp::EvaluateAccuracy(const Tensor& input, const std::vector<int>& labels) const {
  return Evaluate(input, labels).accuracy;
}

double Mlp::EvaluateLoss(const Tensor& input, const std::vector<int>& labels) const {
  return Evaluate(input, labels).loss;
}

size_t Mlp::ParamCount() const {
  size_t n = 0;
  for (const auto& layer : layers_) {
    n += layer.ParamCount();
  }
  return n;
}

std::vector<float> Mlp::GetParameters() const {
  std::vector<float> out;
  out.reserve(ParamCount());
  for (const auto& layer : layers_) {
    const auto& w = layer.weights().flat();
    const auto& b = layer.bias().flat();
    out.insert(out.end(), w.begin(), w.end());
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

void Mlp::SetParameters(const std::vector<float>& params) {
  FLOATFL_CHECK(params.size() == ParamCount());
  size_t pos = 0;
  for (auto& layer : layers_) {
    auto& w = layer.weights().flat();
    for (auto& x : w) {
      x = params[pos++];
    }
    auto& b = layer.bias().flat();
    for (auto& x : b) {
      x = params[pos++];
    }
  }
}

std::vector<float> Mlp::Aggregate(const std::vector<std::vector<float>>& parameter_sets,
                                  const std::vector<double>& weights) {
  return WeightedMeanAggregate(parameter_sets, weights);
}

}  // namespace floatfl
