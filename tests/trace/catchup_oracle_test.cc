// Bit-exactness of the once-per-query trace output.
//
// The traces advance only their latent state (AR(1) deviations, network
// regime, RNG) per catch-up step and compute the queried output once from
// the final state. The oracles below keep the earlier per-step stepper,
// which recomputed the output (exp, clamp, regime median) on every step and
// returned the last one. Both must agree bit for bit on every query value
// and on the SaveState bytes, across every gap shape the engines produce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/failure/checkpoint_io.h"
#include "src/failure/checkpoint_util.h"
#include "src/trace/compute_trace.h"
#include "src/trace/interference.h"
#include "src/trace/network_trace.h"

namespace floatfl {
namespace {

// Same fast-forward bound as the traces.
constexpr double kMaxCatchupSteps = 4096.0;

std::string Bytes(const auto& trace) {
  CheckpointWriter w;
  trace.SaveState(w);
  return w.buffer();
}

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

// Per-step stepper for NetworkTrace. Static parameters come from the
// constructor's kind table; the latent state is loaded from a fresh trace.
class OracleNetwork {
 public:
  OracleNetwork(const NetworkTrace& fresh, bool constant) : nominal_mbps_(fresh.NominalMbps()) {
    if (constant) {
      sigma_ = revert_ = outage_prob_ = degrade_prob_ = 0.0;
      recover_prob_ = 1.0;
    } else if (fresh.kind() == NetworkKind::kFourG) {
      sigma_ = 0.35;
      revert_ = 0.85;
      outage_prob_ = 0.008;
      degrade_prob_ = 0.03;
      recover_prob_ = 0.35;
    } else {
      sigma_ = 0.55;
      revert_ = 0.75;
      outage_prob_ = 0.010;
      degrade_prob_ = 0.06;
      recover_prob_ = 0.35;
    }
    CheckpointReader r(Bytes(fresh));
    LoadState(r);
  }

  double BandwidthMbpsAt(double time_s) {
    last_query_s_ = time_s;
    if (time_s - current_time_ > kStepSeconds * kMaxCatchupSteps) {
      current_time_ = time_s - kStepSeconds * (kMaxCatchupSteps / 2.0);
    }
    while (current_time_ + kStepSeconds <= time_s) {
      Step();
      current_time_ += kStepSeconds;
    }
    return current_mbps_;
  }

  void SaveState(CheckpointWriter& w) const {
    RngState(w, rng_);
    w.U32(static_cast<uint32_t>(regime_));
    w.F64(log_dev_);
    w.F64(current_mbps_);
    w.F64(current_time_);
    w.F64(last_query_s_);
  }

  void LoadState(CheckpointReader& r) {
    RngState(r, rng_);
    regime_ = static_cast<int>(r.U32());
    log_dev_ = r.F64();
    current_mbps_ = r.F64();
    current_time_ = r.F64();
    last_query_s_ = r.F64();
  }

  static constexpr double kStepSeconds = 10.0;

 private:
  void Step() {
    if (sigma_ == 0.0) {
      return;
    }
    const double u = rng_.NextDouble();
    if (regime_ == 0) {
      if (u < outage_prob_) {
        regime_ = 2;
      } else if (u < outage_prob_ + degrade_prob_) {
        regime_ = 1;
      }
    } else {
      if (u < recover_prob_) {
        regime_ = 0;
      } else if (regime_ == 1 && u > 1.0 - outage_prob_) {
        regime_ = 2;
      }
    }
    log_dev_ = revert_ * log_dev_ + sigma_ * rng_.Normal();
    double median = nominal_mbps_;
    if (regime_ == 1) {
      median *= 0.25;
    } else if (regime_ == 2) {
      median *= 0.005;
    }
    current_mbps_ = std::max(0.01, median * std::exp(log_dev_));
  }

  Rng rng_;
  double nominal_mbps_;
  double sigma_, revert_, outage_prob_, degrade_prob_, recover_prob_;
  int regime_ = 0;
  double log_dev_ = 0.0;
  double current_mbps_ = 0.0;
  double current_time_ = 0.0;
  double last_query_s_ = 0.0;
};

class OracleCompute {
 public:
  explicit OracleCompute(const ComputeTrace& fresh) : base_gflops_(fresh.BaseGflops()) {
    CheckpointReader r(Bytes(fresh));
    LoadState(r);
  }

  double GflopsAt(double time_s) {
    if (time_s - current_time_ > kStepSeconds * kMaxCatchupSteps) {
      current_time_ = time_s - kStepSeconds * (kMaxCatchupSteps / 2.0);
    }
    while (current_time_ + kStepSeconds <= time_s) {
      drift_ = 0.95 * drift_ + 0.08 * rng_.Normal();
      current_gflops_ = std::max(0.05 * base_gflops_, base_gflops_ * std::exp(drift_));
      current_time_ += kStepSeconds;
    }
    return current_gflops_;
  }

  void SaveState(CheckpointWriter& w) const {
    RngState(w, rng_);
    w.F64(drift_);
    w.F64(current_time_);
    w.F64(current_gflops_);
  }

  void LoadState(CheckpointReader& r) {
    RngState(r, rng_);
    drift_ = r.F64();
    current_time_ = r.F64();
    current_gflops_ = r.F64();
  }

  static constexpr double kStepSeconds = 30.0;

 private:
  double base_gflops_;
  Rng rng_;
  double drift_ = 0.0;
  double current_time_ = 0.0;
  double current_gflops_ = 0.0;
};

class OracleInterference {
 public:
  // A fresh model's serialized availability is its static level.
  explicit OracleInterference(const InterferenceModel& fresh) : scenario_(fresh.scenario()) {
    CheckpointReader r(Bytes(fresh));
    LoadState(r);
    static_level_ = current_;
  }

  ResourceAvailability At(double time_s) {
    if (scenario_ != InterferenceScenario::kDynamic) {
      return static_level_;
    }
    if (time_s - current_time_ > kStepSeconds * kMaxCatchupSteps) {
      current_time_ = time_s - kStepSeconds * (kMaxCatchupSteps / 2.0);
    }
    while (current_time_ + kStepSeconds <= time_s) {
      dev_cpu_ = 0.88 * dev_cpu_ + 0.12 * rng_.Normal();
      dev_mem_ = 0.92 * dev_mem_ + 0.08 * rng_.Normal();
      dev_net_ = 0.85 * dev_net_ + 0.15 * rng_.Normal();
      current_.cpu = Clamp01(static_level_.cpu * std::exp(0.45 * dev_cpu_));
      current_.memory = Clamp01(static_level_.memory * std::exp(0.30 * dev_mem_));
      current_.network = Clamp01(static_level_.network * std::exp(0.55 * dev_net_));
      current_time_ += kStepSeconds;
    }
    return current_;
  }

  void SaveState(CheckpointWriter& w) const {
    RngState(w, rng_);
    w.F64(dev_cpu_);
    w.F64(dev_mem_);
    w.F64(dev_net_);
    w.F64(current_time_);
    w.F64(current_.cpu);
    w.F64(current_.memory);
    w.F64(current_.network);
  }

  void LoadState(CheckpointReader& r) {
    RngState(r, rng_);
    dev_cpu_ = r.F64();
    dev_mem_ = r.F64();
    dev_net_ = r.F64();
    current_time_ = r.F64();
    current_.cpu = r.F64();
    current_.memory = r.F64();
    current_.network = r.F64();
  }

  static constexpr double kStepSeconds = 15.0;

 private:
  static double Clamp01(double x) { return std::clamp(x, 0.02, 1.0); }

  InterferenceScenario scenario_;
  Rng rng_;
  ResourceAvailability static_level_;
  double dev_cpu_ = 0.0;
  double dev_mem_ = 0.0;
  double dev_net_ = 0.0;
  double current_time_ = 0.0;
  ResourceAvailability current_;
};

// Query adapters: every output value of one query, as raw bits.
std::vector<uint64_t> Query(NetworkTrace& t, double s) { return {Bits(t.BandwidthMbpsAt(s))}; }
std::vector<uint64_t> Query(OracleNetwork& t, double s) { return {Bits(t.BandwidthMbpsAt(s))}; }
std::vector<uint64_t> Query(ComputeTrace& t, double s) { return {Bits(t.GflopsAt(s))}; }
std::vector<uint64_t> Query(OracleCompute& t, double s) { return {Bits(t.GflopsAt(s))}; }
template <typename Interference>
std::vector<uint64_t> QueryAvailability(Interference& t, double s) {
  const ResourceAvailability a = t.At(s);
  return {Bits(a.cpu), Bits(a.memory), Bits(a.network)};
}
std::vector<uint64_t> Query(InterferenceModel& t, double s) { return QueryAvailability(t, s); }
std::vector<uint64_t> Query(OracleInterference& t, double s) { return QueryAvailability(t, s); }

// Query times covering every gap shape, in units of the trace's step: a
// repeat (gap 0), less than one step, landing exactly on a step boundary,
// exactly one step, k steps plus a fraction, and gaps beyond the
// fast-forward bound (with and without a fractional remainder).
std::vector<double> Schedule(double step_s) {
  const std::vector<double> gaps = {0.0,  0.0, 0.4,  0.6, 0.0, 1.0, 7.5, 0.25, 0.0,
                                    kMaxCatchupSteps + 10.3,    2.0, 1.0, 0.5,
                                    3.0 * kMaxCatchupSteps,     0.0, 13.0};
  std::vector<double> times;
  double t = 0.0;
  for (const double g : gaps) {
    t += g * step_s;
    times.push_back(t);
  }
  return times;
}

// Drives `real` and `oracle` through the schedule, checking query bits and
// SaveState bytes after every query. Then rewinds both to a mid-schedule
// checkpoint via LoadState, twice: once replaying the tail, once jumping
// straight to the last pre-rewind timestamp (which a stale same-timestamp
// memo would short-circuit).
template <typename Real, typename Oracle>
void ExpectMatchesOracle(Real real, Oracle oracle) {
  ASSERT_EQ(Bytes(real), Bytes(oracle)) << "fresh state";
  const std::vector<double> times = Schedule(Oracle::kStepSeconds);
  const size_t rewind_at = 7;  // after the k-step query
  std::string saved;
  auto drive = [&](size_t from) {
    for (size_t i = from; i < times.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i) + " at t=" + std::to_string(times[i]));
      ASSERT_EQ(Query(real, times[i]), Query(oracle, times[i]));
      ASSERT_EQ(Bytes(real), Bytes(oracle));
      if (from == 0 && i == rewind_at) {
        saved = Bytes(real);
      }
    }
  };
  auto rewind = [&]() {
    CheckpointReader rr(saved);
    real.LoadState(rr);
    CheckpointReader ro(saved);
    oracle.LoadState(ro);
    ASSERT_EQ(Bytes(real), saved);
    ASSERT_EQ(Bytes(oracle), saved);
  };
  {
    SCOPED_TRACE("forward");
    drive(0);
  }
  if (::testing::Test::HasFatalFailure()) {
    return;  // `saved` may be unset
  }
  {
    SCOPED_TRACE("rewind and replay");
    rewind();
    drive(rewind_at + 1);
  }
  {
    SCOPED_TRACE("rewind and jump to the last timestamp");
    rewind();
    drive(times.size() - 1);
  }
}

TEST(CatchupOracleTest, NetworkTraceMatchesPerStepStepper) {
  for (const NetworkKind kind : {NetworkKind::kFourG, NetworkKind::kFiveG}) {
    for (const uint64_t seed : {1ull, 7ull, 2024ull}) {
      SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) + " seed " +
                   std::to_string(seed));
      const NetworkTrace fresh(kind, seed);
      ExpectMatchesOracle(fresh, OracleNetwork(fresh, /*constant=*/false));
    }
  }
}

TEST(CatchupOracleTest, ConstantNetworkTraceStaysPinned) {
  for (const double mbps : {0.0, 37.25}) {
    SCOPED_TRACE("Constant(" + std::to_string(mbps) + ")");
    const NetworkTrace fresh = NetworkTrace::Constant(mbps);
    ExpectMatchesOracle(fresh, OracleNetwork(fresh, /*constant=*/true));
    NetworkTrace trace = fresh;
    EXPECT_EQ(Bits(trace.BandwidthMbpsAt(1e6)), Bits(mbps));
  }
}

TEST(CatchupOracleTest, ComputeTraceMatchesPerStepStepper) {
  for (const uint64_t seed : {3ull, 11ull, 99ull, 12345ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ComputeTrace fresh = ComputeTrace::SampleDevice(seed);
    ExpectMatchesOracle(fresh, OracleCompute(fresh));
  }
}

TEST(CatchupOracleTest, InterferenceMatchesPerStepStepperInEveryScenario) {
  for (const InterferenceScenario scenario :
       {InterferenceScenario::kNone, InterferenceScenario::kStatic,
        InterferenceScenario::kDynamic}) {
    for (const uint64_t seed : {5ull, 77ull}) {
      SCOPED_TRACE(ToString(scenario) + " seed " + std::to_string(seed));
      const InterferenceModel fresh(scenario, seed);
      ExpectMatchesOracle(fresh, OracleInterference(fresh));
    }
  }
}

}  // namespace
}  // namespace floatfl
