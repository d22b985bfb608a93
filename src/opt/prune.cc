#include "src/opt/prune.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/common/check.h"

namespace floatfl {

size_t MagnitudePrune(std::vector<float>& values, double fraction) {
  FLOATFL_CHECK(fraction >= 0.0 && fraction <= 1.0);
  if (values.empty() || fraction == 0.0) {
    return 0;
  }
  const size_t k = static_cast<size_t>(std::llround(fraction * static_cast<double>(values.size())));
  if (k == 0) {
    return 0;
  }
  std::vector<float> sorted(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    sorted[i] = std::fabs(values[i]);
  }
  const size_t cutoff_index = std::min(k, sorted.size()) - 1;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<ptrdiff_t>(cutoff_index),
                   sorted.end());
  const float threshold = sorted[cutoff_index];
  size_t zeroed = 0;
  for (size_t i = 0; i < values.size() && zeroed < k; ++i) {
    if (std::fabs(values[i]) <= threshold && values[i] != 0.0f) {
      values[i] = 0.0f;
      ++zeroed;
    }
  }
  return zeroed;
}

double Sparsity(const std::vector<float>& values) {
  if (values.empty()) {
    return 0.0;
  }
  size_t zeros = 0;
  for (float v : values) {
    if (v == 0.0f) {
      ++zeros;
    }
  }
  return static_cast<double>(zeros) / static_cast<double>(values.size());
}

size_t SparseEncodingBytes(const std::vector<float>& values) {
  size_t nonzero = 0;
  for (float v : values) {
    if (v != 0.0f) {
      ++nonzero;
    }
  }
  return nonzero * 8 + sizeof(uint32_t);
}

}  // namespace floatfl
