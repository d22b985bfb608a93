// Optimized fixed-order implementations of the five aggregation rules.
//
// Every rule here is restructured for speed — cache-blocked reductions,
// order-statistic selection instead of full sorts, fused clipping without
// update copies — under one hard constraint: the result must stay
// bit-for-bit identical to the frozen textbook loops in src/agg/reference.cc
// (enforced by tests/perf/blocked_agg_test.cc, contract in DESIGN.md §12).
//
// The blocking trick used throughout: processing coordinates in L1-sized
// blocks changes *which* coordinate is touched when, but never the order of
// floating-point operations applied to any single accumulator — each out[i]
// (and each pairwise-distance scalar) still sees its operands in exactly the
// reference order, so the arithmetic is unchanged.
#include "src/agg/aggregator.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace floatfl {
namespace {

// Coordinates per cache block: 2048 floats = 8 KiB, so an output block plus
// one streamed input block stay resident in a 32 KiB L1D.
constexpr size_t kCoordBlock = 2048;

// Columns gathered per transpose block in the coordinate-wise rules. One
// block is kGatherCols * n floats of scratch.
constexpr size_t kGatherCols = 64;

// Below this cohort size a full sort of the column beats order-statistic
// selection: nth_element's partition bookkeeping costs more than an
// insertion sort of a handful of floats. The sorted column exposes the
// identical values at every rank, so switching strategies by size can never
// change a result.
constexpr size_t kSelectMin = 64;

// Blocked weighted mean over row pointers. Bit-identical to
// ReferenceWeightedMean: per coordinate i the adds land in row order
// s = 0..S-1, only grouped into coordinate blocks that keep out[] hot.
std::vector<float> BlockedWeightedMean(const std::vector<const std::vector<float>*>& rows,
                                       const std::vector<double>& weights) {
  FLOATFL_CHECK(!rows.empty());
  FLOATFL_CHECK(rows.size() == weights.size());
  double total = 0.0;
  for (double w : weights) {
    FLOATFL_CHECK(w >= 0.0);
    total += w;
  }
  FLOATFL_CHECK(total > 0.0);
  const size_t n = rows[0]->size();
  std::vector<float> scaled(rows.size());
  for (size_t s = 0; s < rows.size(); ++s) {
    FLOATFL_CHECK(rows[s]->size() == n);
    scaled[s] = static_cast<float>(weights[s] / total);
  }
  std::vector<float> out(n, 0.0f);
  for (size_t i0 = 0; i0 < n; i0 += kCoordBlock) {
    const size_t i1 = std::min(n, i0 + kCoordBlock);
    const size_t len = i1 - i0;
    float* __restrict dst = out.data() + i0;
    for (size_t s = 0; s < rows.size(); ++s) {
      const float w = scaled[s];
      const float* __restrict src = rows[s]->data() + i0;
      for (size_t i = 0; i < len; ++i) {
        dst[i] += w * src[i];
      }
    }
  }
  return out;
}

// Gathers columns [i0, i1) of the update matrix into `scratch`, transposed:
// scratch[(i - i0) * n + s] = updates[s][i]. Each update row is read once,
// sequentially — the cache-friendly replacement for the reference's one
// strided gather per coordinate.
void GatherColumns(const std::vector<std::vector<float>>& updates, size_t dim, size_t i0,
                   size_t i1, std::vector<float>& scratch) {
  const size_t n = updates.size();
  for (size_t s = 0; s < n; ++s) {
    FLOATFL_CHECK(updates[s].size() == dim);
    const float* row = updates[s].data();
    for (size_t i = i0; i < i1; ++i) {
      scratch[(i - i0) * n + s] = row[i];
    }
  }
}

}  // namespace

std::vector<float> WeightedMeanAggregate(const std::vector<std::vector<float>>& parameter_sets,
                                         const std::vector<double>& weights) {
  std::vector<const std::vector<float>*> rows;
  rows.reserve(parameter_sets.size());
  for (const auto& set : parameter_sets) {
    rows.push_back(&set);
  }
  return BlockedWeightedMean(rows, weights);
}

void ValidateAggregatorConfig(const AggregatorConfig& config) {
  FLOATFL_CHECK_MSG(config.trim_fraction >= 0.0 && config.trim_fraction < 0.5,
                    "aggregator.trim_fraction must be in [0, 0.5)");
  FLOATFL_CHECK_MSG(config.clip_norm > 0.0, "aggregator.clip_norm must be positive");
}

std::vector<float> Aggregator::Aggregate(const std::vector<std::vector<float>>& updates,
                                         const std::vector<double>& weights,
                                         const std::vector<float>& global,
                                         AggregatorStats* round_stats) {
  FLOATFL_CHECK(!updates.empty());
  FLOATFL_CHECK(updates.size() == weights.size());
  AggregatorStats stats;
  std::vector<float> out = DoAggregate(updates, weights, global, stats);
  totals_.updates_clipped += stats.updates_clipped;
  totals_.krum_rejections += stats.krum_rejections;
  totals_.updates_trimmed += stats.updates_trimmed;
  if (round_stats != nullptr) {
    *round_stats = stats;
  }
  return out;
}

template <class Ar, class Self>
void Aggregator::Transfer(Ar& ar, Self& self) {
  ar.Size(self.totals_.updates_clipped);
  ar.Size(self.totals_.krum_rejections);
  ar.Size(self.totals_.updates_trimmed);
}

void Aggregator::SaveState(CheckpointWriter& w) const { Transfer(w, *this); }
void Aggregator::LoadState(CheckpointReader& r) { Transfer(r, *this); }

namespace {

class FedAvgAggregator : public Aggregator {
 public:
  using Aggregator::Aggregator;

 protected:
  std::vector<float> DoAggregate(const std::vector<std::vector<float>>& updates,
                                 const std::vector<double>& weights,
                                 const std::vector<float>& /*global*/,
                                 AggregatorStats& /*stats*/) override {
    return WeightedMeanAggregate(updates, weights);
  }
};

// Coordinate-wise median via order-statistic selection over transposed
// column blocks. The reference fully sorts every column; a sorted column and
// a selected column expose the identical order-statistic *values*, so the
// emitted medians are bit-identical.
class MedianAggregator : public Aggregator {
 public:
  using Aggregator::Aggregator;

 protected:
  std::vector<float> DoAggregate(const std::vector<std::vector<float>>& updates,
                                 const std::vector<double>& /*weights*/,
                                 const std::vector<float>& /*global*/,
                                 AggregatorStats& /*stats*/) override {
    const size_t dim = updates[0].size();
    const size_t n = updates.size();
    std::vector<float> out(dim, 0.0f);
    std::vector<float> scratch(std::min(dim, kGatherCols) * n);
    for (size_t i0 = 0; i0 < dim; i0 += kGatherCols) {
      const size_t i1 = std::min(dim, i0 + kGatherCols);
      GatherColumns(updates, dim, i0, i1, scratch);
      for (size_t i = i0; i < i1; ++i) {
        float* column = scratch.data() + (i - i0) * n;
        if (n < kSelectMin) {
          std::sort(column, column + n);
          out[i] = (n % 2 == 1) ? column[n / 2] : 0.5f * (column[n / 2 - 1] + column[n / 2]);
          continue;
        }
        std::nth_element(column, column + n / 2, column + n);
        if (n % 2 == 1) {
          out[i] = column[n / 2];
        } else {
          // Lower middle = largest of the partitioned low half; the same
          // value the full sort puts at n/2 - 1.
          const float lo = *std::max_element(column, column + n / 2);
          out[i] = 0.5f * (lo + column[n / 2]);
        }
      }
    }
    return out;
  }
};

// Coordinate-wise trimmed mean: partition the tails off with nth_element,
// sort only the kept middle, and accumulate it low-to-high — the exact value
// sequence the reference's full sort feeds its double accumulator.
class TrimmedMeanAggregator : public Aggregator {
 public:
  using Aggregator::Aggregator;

 protected:
  std::vector<float> DoAggregate(const std::vector<std::vector<float>>& updates,
                                 const std::vector<double>& /*weights*/,
                                 const std::vector<float>& /*global*/,
                                 AggregatorStats& stats) override {
    const size_t dim = updates[0].size();
    const size_t n = updates.size();
    size_t k = static_cast<size_t>(config().trim_fraction * static_cast<double>(n));
    if (2 * k >= n) {
      k = (n - 1) / 2;
    }
    stats.updates_trimmed = 2 * k;
    std::vector<float> out(dim, 0.0f);
    std::vector<float> scratch(std::min(dim, kGatherCols) * n);
    for (size_t i0 = 0; i0 < dim; i0 += kGatherCols) {
      const size_t i1 = std::min(dim, i0 + kGatherCols);
      GatherColumns(updates, dim, i0, i1, scratch);
      for (size_t i = i0; i < i1; ++i) {
        float* column = scratch.data() + (i - i0) * n;
        if (k > 0 && n >= kSelectMin) {
          std::nth_element(column, column + k, column + n);
          std::nth_element(column + k, column + (n - k - 1), column + n);
          std::sort(column + k, column + (n - k));
        } else {
          // Small cohort (or nothing trimmed): one insertion-grade sort of
          // the whole column is cheaper than two partitions plus a sort.
          std::sort(column, column + n);
        }
        double sum = 0.0;
        for (size_t s = k; s < n - k; ++s) {
          sum += static_cast<double>(column[s]);
        }
        out[i] = static_cast<float>(sum / static_cast<double>(n - 2 * k));
      }
    }
    return out;
  }
};

// (Multi-)Krum with cache-blocked distance accumulation and partial-sort
// neighbour selection. Each pairwise squared distance is still a strictly
// sequential fold over coordinates 0..dim-1 (the block loop only interleaves
// *which pair* advances next), and a partial_sort prefix carries the same
// ascending values as the reference's full sort, so scores — and therefore
// the kept set and the final mean — are bit-identical. The kept updates feed
// the weighted mean as row pointers instead of copies.
class KrumAggregator : public Aggregator {
 public:
  using Aggregator::Aggregator;

 protected:
  std::vector<float> DoAggregate(const std::vector<std::vector<float>>& updates,
                                 const std::vector<double>& weights,
                                 const std::vector<float>& /*global*/,
                                 AggregatorStats& stats) override {
    const size_t n = updates.size();
    if (n < 3) {
      // Too small a cohort for distance-based selection: fall back to the
      // plain weighted mean rather than rejecting arbitrarily.
      return WeightedMeanAggregate(updates, weights);
    }
    size_t f = config().krum_assumed_byzantine;
    const size_t f_max = (n - 3) / 2;
    if (f == 0 || f > f_max) {
      f = f_max;
    }
    const size_t neighbours = std::max<size_t>(1, n - f - 2);
    size_t m = config().multi_krum_m;
    if (m == 0) {
      m = std::max<size_t>(1, n - f - 2);
    }
    m = std::min(m, n);

    const size_t dim = updates[0].size();
    // Pairwise squared L2 distances: for each anchor a, accumulate all
    // partners b > a together over coordinate blocks, keeping the anchor's
    // block resident while partner rows stream through.
    std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
    std::vector<double> sq(n);
    for (size_t a = 0; a < n; ++a) {
      FLOATFL_CHECK(updates[a].size() == dim);
      const size_t partners = n - a - 1;
      if (partners == 0) {
        break;
      }
      std::fill(sq.begin(), sq.begin() + static_cast<ptrdiff_t>(partners), 0.0);
      const float* row_a = updates[a].data();
      for (size_t i0 = 0; i0 < dim; i0 += kCoordBlock) {
        const size_t i1 = std::min(dim, i0 + kCoordBlock);
        for (size_t b = a + 1; b < n; ++b) {
          const float* row_b = updates[b].data();
          double acc = sq[b - a - 1];
          for (size_t i = i0; i < i1; ++i) {
            const double d = static_cast<double>(row_a[i]) - row_b[i];
            acc += d * d;
          }
          sq[b - a - 1] = acc;
        }
      }
      for (size_t b = a + 1; b < n; ++b) {
        dist[a][b] = sq[b - a - 1];
        dist[b][a] = sq[b - a - 1];
      }
    }
    std::vector<std::pair<double, size_t>> scored(n);
    std::vector<double> neighbour_dists(n - 1);
    for (size_t a = 0; a < n; ++a) {
      size_t count = 0;
      for (size_t b = 0; b < n; ++b) {
        if (b != a) {
          neighbour_dists[count++] = dist[a][b];
        }
      }
      const size_t take = std::min(neighbours, count);
      std::partial_sort(neighbour_dists.begin(),
                        neighbour_dists.begin() + static_cast<ptrdiff_t>(take),
                        neighbour_dists.end());
      double score = 0.0;
      for (size_t j = 0; j < take; ++j) {
        score += neighbour_dists[j];
      }
      scored[a] = {score, a};
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const auto& x, const auto& y) { return x.first < y.first; });

    std::vector<size_t> kept;
    kept.reserve(m);
    for (size_t j = 0; j < m; ++j) {
      kept.push_back(scored[j].second);
    }
    // Weighted mean over the selected updates in their original (selection)
    // order, so the reduction order is independent of the score ordering.
    std::sort(kept.begin(), kept.end());
    std::vector<const std::vector<float>*> selected;
    std::vector<double> selected_weights;
    selected.reserve(m);
    selected_weights.reserve(m);
    for (size_t idx : kept) {
      selected.push_back(&updates[idx]);
      selected_weights.push_back(weights[idx]);
    }
    stats.krum_rejections = n - m;
    return BlockedWeightedMean(selected, selected_weights);
  }
};

// Norm clipping fused into the weighted mean: one pass computes each
// update's delta norm (the reference's exact coordinate-order fold), a
// second blocked pass applies the clip rescale on the fly — including the
// reference's intermediate round-trip through float — instead of
// materializing a clipped copy of every update.
class NormClipAggregator : public Aggregator {
 public:
  using Aggregator::Aggregator;

 protected:
  std::vector<float> DoAggregate(const std::vector<std::vector<float>>& updates,
                                 const std::vector<double>& weights,
                                 const std::vector<float>& global,
                                 AggregatorStats& stats) override {
    const size_t dim = updates[0].size();
    const size_t n = updates.size();
    FLOATFL_CHECK(global.size() == dim);
    std::vector<double> scale(n, 1.0);
    std::vector<uint8_t> clip(n, 0);
    for (size_t s = 0; s < n; ++s) {
      FLOATFL_CHECK(updates[s].size() == dim);
      const float* row = updates[s].data();
      double sq = 0.0;
      for (size_t i = 0; i < dim; ++i) {
        const double d = static_cast<double>(row[i]) - global[i];
        sq += d * d;
      }
      const double norm = std::sqrt(sq);
      if (norm > config().clip_norm) {
        scale[s] = config().clip_norm / norm;
        clip[s] = 1;
        ++stats.updates_clipped;
      }
    }
    double total = 0.0;
    for (double w : weights) {
      FLOATFL_CHECK(w >= 0.0);
      total += w;
    }
    FLOATFL_CHECK(total > 0.0);
    std::vector<float> scaled_w(n);
    for (size_t s = 0; s < n; ++s) {
      scaled_w[s] = static_cast<float>(weights[s] / total);
    }
    std::vector<float> out(dim, 0.0f);
    for (size_t i0 = 0; i0 < dim; i0 += kCoordBlock) {
      const size_t i1 = std::min(dim, i0 + kCoordBlock);
      for (size_t s = 0; s < n; ++s) {
        const float w = scaled_w[s];
        const float* row = updates[s].data();
        if (clip[s]) {
          const double sc = scale[s];
          for (size_t i = i0; i < i1; ++i) {
            const double d = static_cast<double>(row[i]) - global[i];
            const float clipped = static_cast<float>(global[i] + sc * d);
            out[i] += w * clipped;
          }
        } else {
          for (size_t i = i0; i < i1; ++i) {
            out[i] += w * row[i];
          }
        }
      }
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<Aggregator> MakeAggregator(const AggregatorConfig& config) {
  ValidateAggregatorConfig(config);
  switch (config.kind) {
    case AggregatorKind::kMedian:
      return std::make_unique<MedianAggregator>(config);
    case AggregatorKind::kTrimmedMean:
      return std::make_unique<TrimmedMeanAggregator>(config);
    case AggregatorKind::kKrum:
      return std::make_unique<KrumAggregator>(config);
    case AggregatorKind::kNormClip:
      return std::make_unique<NormClipAggregator>(config);
    case AggregatorKind::kFedAvg:
    default:
      return std::make_unique<FedAvgAggregator>(config);
  }
}

}  // namespace floatfl
