#include "src/nn/tensor.h"

#include <cmath>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace floatfl {

Tensor::Tensor(size_t rows, size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Tensor Tensor::FromVector(const std::vector<float>& v) {
  Tensor t(1, v.size());
  t.data_ = v;
  return t;
}

Tensor Tensor::GlorotUniform(size_t rows, size_t cols, Rng& rng) {
  Tensor t(rows, cols);
  const double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (auto& x : t.data_) {
    x = static_cast<float>(rng.Uniform(-limit, limit));
  }
  return t;
}

float& Tensor::At(size_t r, size_t c) {
  FLOATFL_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

float Tensor::At(size_t r, size_t c) const {
  FLOATFL_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

namespace {

// y[j] += a * x[j]. Every lane is one rounded multiply and one rounded add,
// independent of its neighbours, so the vectorized loop produces the same
// bits as the scalar one (DESIGN.md §12).
void Axpy(float a, const float* __restrict x, float* __restrict y, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    y[j] += a * x[j];
  }
}

// y[j] += a[t] * x[t][j] for t = 0, 1, ..., m - 1 in that order: the same
// sequence of rounded multiplies and adds per element as m Axpy calls, but
// four terms share each load and store of y.
void AxpyTerms(const float* a, const float* const* x, size_t m, float* __restrict y, size_t n) {
  size_t t = 0;
  for (; t + 4 <= m; t += 4) {
    const float a0 = a[t], a1 = a[t + 1], a2 = a[t + 2], a3 = a[t + 3];
    const float* __restrict x0 = x[t];
    const float* __restrict x1 = x[t + 1];
    const float* __restrict x2 = x[t + 2];
    const float* __restrict x3 = x[t + 3];
    for (size_t j = 0; j < n; ++j) {
      y[j] = (((y[j] + a0 * x0[j]) + a1 * x1[j]) + a2 * x2[j]) + a3 * x3[j];
    }
  }
  for (; t < m; ++t) {
    Axpy(a[t], x[t], y, n);
  }
}

// Per-thread kernel scratch. It grows to the largest operand seen and keeps
// its storage, so a warm kernel allocates nothing; one copy per thread keeps
// kernels running concurrently on the pool (Mlp::Evaluate) apart.
struct KernelScratch {
  std::vector<float> coef;
  std::vector<const float*> terms;
  std::vector<float> transposed;
};

KernelScratch& ThreadKernelScratch(size_t terms, size_t transposed = 0) {
  thread_local KernelScratch scratch;
  if (scratch.coef.size() < terms) {
    scratch.coef.resize(terms);
    scratch.terms.resize(terms);
  }
  if (scratch.transposed.size() < transposed) {
    scratch.transposed.resize(transposed);
  }
  return scratch;
}

}  // namespace

void Tensor::Reset(size_t rows, size_t cols, float fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

Tensor Tensor::MatMul(const Tensor& other) const {
  Tensor out;
  MatMulInto(other, &out);
  return out;
}

Tensor Tensor::MatMulTransposed(const Tensor& other) const {
  Tensor out;
  MatMulTransposedInto(other, &out);
  return out;
}

Tensor Tensor::TransposedMatMul(const Tensor& other) const {
  Tensor out;
  TransposedMatMulInto(other, &out);
  return out;
}

// Row i of the product accumulates a(i, k) * other.row(k) in k order,
// skipping a(i, k) == 0 (ReLU zeros make this pay).
void Tensor::MatMulInto(const Tensor& other, Tensor* out) const {
  FLOATFL_CHECK(cols_ == other.rows_);
  FLOATFL_CHECK(out != this && out != &other);
  const size_t n = other.cols_;
  out->Reset(rows_, n);
  KernelScratch& scratch = ThreadKernelScratch(cols_);
  float* coef = scratch.coef.data();
  const float** terms = scratch.terms.data();
  for (size_t i = 0; i < rows_; ++i) {
    size_t m = 0;
    for (size_t k = 0; k < cols_; ++k) {
      const float a = data_[i * cols_ + k];
      if (a == 0.0f) {
        continue;
      }
      coef[m] = a;
      terms[m++] = other.data_.data() + k * n;
    }
    AxpyTerms(coef, terms, m, out->data_.data() + i * n, n);
  }
}

// Each output element is the dot product of two rows summed in k order from
// +0. Transposing `other` once, into per-thread scratch, turns the dot
// products into axpys over output rows that keep that order. No zero skip:
// 0 * Inf must still give NaN.
void Tensor::MatMulTransposedInto(const Tensor& other, Tensor* out) const {
  FLOATFL_CHECK(cols_ == other.cols_);
  FLOATFL_CHECK(out != this && out != &other);
  const size_t n = other.rows_;
  KernelScratch& scratch = ThreadKernelScratch(cols_, cols_ * n);
  float* other_t = scratch.transposed.data();
  for (size_t j = 0; j < n; ++j) {
    for (size_t k = 0; k < cols_; ++k) {
      other_t[k * n + j] = other.data_[j * cols_ + k];
    }
  }
  const float** terms = scratch.terms.data();
  for (size_t k = 0; k < cols_; ++k) {
    terms[k] = other_t + k * n;
  }
  out->Reset(rows_, n);
  for (size_t i = 0; i < rows_; ++i) {
    AxpyTerms(data_.data() + i * cols_, terms, cols_, out->data_.data() + i * n, n);
  }
}

// Output row i accumulates a(k, i) * other.row(k) in k order, skipping
// a(k, i) == 0, exactly as the k-outer loop of the textbook form does.
void Tensor::TransposedMatMulInto(const Tensor& other, Tensor* out) const {
  FLOATFL_CHECK(rows_ == other.rows_);
  FLOATFL_CHECK(out != this && out != &other);
  const size_t n = other.cols_;
  out->Reset(cols_, n);
  KernelScratch& scratch = ThreadKernelScratch(rows_);
  float* coef = scratch.coef.data();
  const float** terms = scratch.terms.data();
  for (size_t i = 0; i < cols_; ++i) {
    size_t m = 0;
    for (size_t k = 0; k < rows_; ++k) {
      const float a = data_[k * cols_ + i];
      if (a == 0.0f) {
        continue;
      }
      coef[m] = a;
      terms[m++] = other.data_.data() + k * n;
    }
    AxpyTerms(coef, terms, m, out->data_.data() + i * n, n);
  }
}

void Tensor::AddInPlace(const Tensor& other) {
  FLOATFL_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i];
  }
}

void Tensor::SubInPlace(const Tensor& other) {
  FLOATFL_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] -= other.data_[i];
  }
}

void Tensor::MulInPlace(const Tensor& other) {
  FLOATFL_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] *= other.data_[i];
  }
}

void Tensor::ScaleInPlace(float s) {
  for (auto& x : data_) {
    x *= s;
  }
}

void Tensor::SubScaledInPlace(float s, const Tensor& other) {
  FLOATFL_CHECK(SameShape(other));
  float* __restrict dst = data_.data();
  const float* __restrict src = other.data_.data();
  for (size_t i = 0; i < data_.size(); ++i) {
    dst[i] -= s * src[i];
  }
}

void Tensor::AddRowBroadcast(const Tensor& row) {
  FLOATFL_CHECK(row.rows_ == 1 && row.cols_ == cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) {
      data_[i * cols_ + j] += row.data_[j];
    }
  }
}

Tensor Tensor::ColSum() const {
  Tensor out(1, cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) {
      out.data_[j] += data_[i * cols_ + j];
    }
  }
  return out;
}

double Tensor::L2Norm() const {
  double acc = 0.0;
  for (float x : data_) {
    acc += static_cast<double>(x) * x;
  }
  return std::sqrt(acc);
}

double Tensor::MaxAbs() const {
  double m = 0.0;
  for (float x : data_) {
    m = std::max(m, std::fabs(static_cast<double>(x)));
  }
  return m;
}

}  // namespace floatfl
