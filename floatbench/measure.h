// Measurement helpers for the floatbench benchmark: host clocks, the
// percentile rule used for every reported timing, and a byte digest for the
// deterministic result fields.
#ifndef FLOATBENCH_MEASURE_H_
#define FLOATBENCH_MEASURE_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

namespace floatbench {

// Host wall clock, seconds.
inline double WallNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the whole process (every thread), seconds.
inline double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Median of `samples` (mean of the two middle values for even counts);
// 0 for an empty set.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// A tail timing: the value at `pct` (nearest rank) over `n` samples, where
// `pct` is the highest percentile not above the requested one that leaves
// at least kMinBeyond samples strictly above its rank.
struct Tail {
  double value = 0.0;
  double pct = 0.0;
  size_t n = 0;
  size_t beyond = 0;
};

inline constexpr size_t kMinBeyond = 10;

// Nearest-rank tail with the "at least ten samples beyond" rule. With fewer
// than 2 * kMinBeyond samples no percentile above the median qualifies, so
// the median is returned (pct 0.5).
inline Tail TailPercentile(std::vector<double> samples, double want = 0.99) {
  Tail tail;
  tail.n = samples.size();
  if (samples.empty()) {
    return tail;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  double pct = std::min(want, (n - static_cast<double>(kMinBeyond)) / n);
  pct = std::max(pct, 0.5);
  // Nearest rank: the smallest rank r (1-based) with r / n >= pct. The small
  // slack keeps an exact product such as 0.99 * 2100 from rounding up.
  size_t rank = static_cast<size_t>(std::ceil(pct * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  tail.value = samples[rank - 1];
  tail.pct = pct;
  tail.beyond = samples.size() - rank;
  return tail;
}

// FNV-1a over the deterministic fields of a run.
class Digest {
 public:
  void Bytes(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace floatbench

#endif  // FLOATBENCH_MEASURE_H_
