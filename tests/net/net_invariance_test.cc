// Thread-count invariance of the lossy transport path.
//
// With chunk loss, mid-transfer blackouts and the adaptive deadline all
// active, runs at num_threads in {1, 2, 8} must stay bit-for-bit identical:
// every transport draw is keyed by (seed, round, client, leg, attempt) and
// never by execution order. This is the `net` analogue of
// tests/sim/determinism_test.cc.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/selection/oort_selector.h"

namespace floatfl {
namespace {

constexpr std::array<size_t, 3> kThreadCounts = {1, 2, 8};

ExperimentConfig LossyConfig(size_t num_threads) {
  ExperimentConfig config;
  config.num_clients = 30;
  config.clients_per_round = 8;
  config.rounds = 12;
  config.dataset = DatasetId::kFemnist;
  config.model = ModelId::kShuffleNetV2;
  config.interference = InterferenceScenario::kDynamic;
  config.seed = 555;
  config.async_concurrency = 20;
  config.async_buffer = 6;
  config.num_threads = num_threads;
  config.faults.chunk_loss_prob = 0.08;
  config.faults.link_blackout_prob = 0.05;
  config.faults.max_transfer_retries = 3;
  config.adaptive_deadline.enabled = true;
  return config;
}

void ExpectSameResult(const ExperimentResult& a, const ExperimentResult& b) {
  ASSERT_EQ(a.accuracy_history.size(), b.accuracy_history.size());
  for (size_t i = 0; i < a.accuracy_history.size(); ++i) {
    EXPECT_EQ(a.accuracy_history[i], b.accuracy_history[i]) << "round " << i;
  }
  EXPECT_EQ(a.accuracy_avg, b.accuracy_avg);
  EXPECT_EQ(a.global_accuracy, b.global_accuracy);
  EXPECT_EQ(a.total_selected, b.total_selected);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_EQ(a.total_dropouts, b.total_dropouts);
  EXPECT_EQ(a.dropout_breakdown[DropoutReason::kMissedDeadline],
            b.dropout_breakdown[DropoutReason::kMissedDeadline]);
  EXPECT_EQ(a.dropout_breakdown[DropoutReason::kTransferTimedOut],
            b.dropout_breakdown[DropoutReason::kTransferTimedOut]);
  EXPECT_EQ(a.useful.compute_hours, b.useful.compute_hours);
  EXPECT_EQ(a.useful.comm_hours, b.useful.comm_hours);
  EXPECT_EQ(a.wasted.comm_hours, b.wasted.comm_hours);
  EXPECT_EQ(a.wall_clock_hours, b.wall_clock_hours);
  EXPECT_EQ(a.per_client_selected, b.per_client_selected);
  EXPECT_EQ(a.per_client_completed, b.per_client_completed);
  // The transport accounting itself must be order-invariant too.
  EXPECT_EQ(a.transfer_attempts, b.transfer_attempts);
  EXPECT_EQ(a.retransmitted_mb, b.retransmitted_mb);
  EXPECT_EQ(a.salvaged_mb, b.salvaged_mb);
  EXPECT_EQ(a.transfer_backoff_s, b.transfer_backoff_s);
}

TEST(NetInvarianceTest, SyncEngineLossyTransportIsThreadCountInvariant) {
  auto run = [](size_t num_threads) {
    const ExperimentConfig config = LossyConfig(num_threads);
    OortSelector selector(config.seed, config.num_clients);
    SyncEngine engine(config, &selector, nullptr);
    return engine.Run();
  };
  const ExperimentResult baseline = run(kThreadCounts[0]);
  // The lossy path must actually be exercised, not vacuously equal.
  EXPECT_GT(baseline.transfer_attempts, 0u);
  EXPECT_GT(baseline.retransmitted_mb, 0.0);
  for (size_t t = 1; t < kThreadCounts.size(); ++t) {
    SCOPED_TRACE("num_threads=" + std::to_string(kThreadCounts[t]));
    ExpectSameResult(baseline, run(kThreadCounts[t]));
  }
}

TEST(NetInvarianceTest, AsyncEngineLossyTransportIsThreadCountInvariant) {
  auto run = [](size_t num_threads) {
    ExperimentConfig config = LossyConfig(num_threads);
    AsyncEngine engine(config, nullptr);
    return engine.Run();
  };
  const ExperimentResult baseline = run(kThreadCounts[0]);
  EXPECT_GT(baseline.transfer_attempts, 0u);
  for (size_t t = 1; t < kThreadCounts.size(); ++t) {
    SCOPED_TRACE("num_threads=" + std::to_string(kThreadCounts[t]));
    ExpectSameResult(baseline, run(kThreadCounts[t]));
  }
}

TEST(NetInvarianceTest, RealEngineLossyTransportIsThreadCountInvariant) {
  auto run = [](size_t num_threads) {
    RealFlConfig config;
    config.num_clients = 10;
    config.clients_per_round = 5;
    config.num_classes = 3;
    config.input_dim = 8;
    config.hidden_dims = {12};
    config.test_samples_per_class = 10;
    config.seed = 11;
    config.num_threads = num_threads;
    config.faults.chunk_loss_prob = 0.15;
    config.faults.link_blackout_prob = 0.1;
    config.faults.transport_chunk_mb = 0.01;  // real uploads are ~KB-sized
    RealFlEngine engine(config);
    RealRoundStats last;
    for (size_t r = 0; r < 6; ++r) {
      last = engine.RunRound(TechniqueKind::kQuant8);
    }
    return std::make_pair(last, engine.global_model().GetParameters());
  };
  const auto baseline = run(kThreadCounts[0]);
  for (size_t t = 1; t < kThreadCounts.size(); ++t) {
    SCOPED_TRACE("num_threads=" + std::to_string(kThreadCounts[t]));
    const auto other = run(kThreadCounts[t]);
    EXPECT_EQ(baseline.first.test_accuracy, other.first.test_accuracy);
    EXPECT_EQ(baseline.first.participants, other.first.participants);
    EXPECT_EQ(baseline.first.transfer_timeouts, other.first.transfer_timeouts);
    EXPECT_EQ(baseline.first.retransmitted_mb, other.first.retransmitted_mb);
    EXPECT_EQ(baseline.first.salvaged_mb, other.first.salvaged_mb);
    EXPECT_EQ(baseline.second, other.second);
  }
}

}  // namespace
}  // namespace floatfl
