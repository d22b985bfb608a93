// End-to-end behavior of the fault-injection layer and the server-side
// defenses across all three engines: scenario accounting, over-selection,
// retry cooldown, and thread-count invariance under injected failures.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 8;
  config.rounds = 25;
  config.seed = 321;
  return config;
}

ExperimentResult RunSync(const ExperimentConfig& config) {
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  return engine.Run();
}

ExperimentResult RunAsync(ExperimentConfig config) {
  config.async_concurrency = 20;
  config.async_buffer = 6;
  AsyncEngine engine(config, nullptr);
  return engine.Run();
}

// --- Scenario accounting ---------------------------------------------------

TEST(FaultToleranceTest, CertainCrashKillsEverySelectedClient) {
  ExperimentConfig config = BaseConfig();
  // assume_no_dropouts isolates the injector: without faults every selected
  // client would complete, so every dropout below is an injected crash.
  config.assume_no_dropouts = true;
  config.faults.crash_prob = 1.0;
  const ExperimentResult r = RunSync(config);
  EXPECT_GT(r.total_selected, 0u);
  EXPECT_EQ(r.total_completed, 0u);
  EXPECT_EQ(r.dropout_breakdown[DropoutReason::kCrashed], r.total_selected);
  EXPECT_EQ(r.dropout_breakdown.Total(), r.total_dropouts);
  // A crash mid-round burns resources that are charged as waste.
  EXPECT_GT(r.wasted.compute_hours, 0.0);
  EXPECT_EQ(r.useful.compute_hours, 0.0);
}

TEST(FaultToleranceTest, CertainCorruptionQuarantinesEveryUpdate) {
  ExperimentConfig config = BaseConfig();
  config.assume_no_dropouts = true;
  config.faults.corrupt_prob = 1.0;
  const ExperimentResult r = RunSync(config);
  EXPECT_GT(r.total_selected, 0u);
  EXPECT_EQ(r.total_completed, 0u);
  EXPECT_EQ(r.dropout_breakdown[DropoutReason::kCorrupted], r.total_selected);
  EXPECT_EQ(r.rejected_updates, r.total_selected);
  EXPECT_EQ(r.dropout_breakdown.Total(), r.total_dropouts);
}

TEST(FaultToleranceTest, PermanentBlackoutMakesEveryoneUnavailable) {
  ExperimentConfig config = BaseConfig();
  config.assume_no_dropouts = true;
  config.faults.blackout_period_s = 1e12;
  config.faults.blackout_duration_s = 1e12;  // window never ends
  const ExperimentResult r = RunSync(config);
  EXPECT_GT(r.total_selected, 0u);
  EXPECT_EQ(r.total_completed, 0u);
  EXPECT_EQ(r.dropout_breakdown[DropoutReason::kUnavailable], r.total_selected);
  // Unreachable clients never start: nothing to charge anywhere.
  EXPECT_EQ(r.wasted.compute_hours, 0.0);
}

TEST(FaultToleranceTest, SyncBreakdownTotalsMatchUnderMixedFaults) {
  ExperimentConfig config = BaseConfig();
  config.faults.crash_prob = 0.15;
  config.faults.corrupt_prob = 0.1;
  config.faults.flaky_fraction = 0.3;
  config.faults.flaky_enter_prob = 0.3;
  config.faults.flaky_exit_prob = 0.4;
  config.faults.flaky_crash_prob = 0.3;
  const ExperimentResult r = RunSync(config);
  EXPECT_EQ(r.total_selected, r.total_completed + r.total_dropouts);
  EXPECT_EQ(r.dropout_breakdown.Total(), r.total_dropouts);
  EXPECT_GT(r.dropout_breakdown[DropoutReason::kCrashed], 0u);
  EXPECT_GT(r.dropout_breakdown[DropoutReason::kCorrupted], 0u);
  EXPECT_EQ(r.dropout_breakdown[DropoutReason::kCorrupted], r.rejected_updates);
}

TEST(FaultToleranceTest, AsyncBreakdownTotalsMatchUnderMixedFaults) {
  ExperimentConfig config = BaseConfig();
  config.faults.crash_prob = 0.15;
  config.faults.corrupt_prob = 0.1;
  const ExperimentResult r = RunAsync(config);
  EXPECT_EQ(r.total_selected, r.total_completed + r.total_dropouts);
  EXPECT_EQ(r.dropout_breakdown.Total(), r.total_dropouts);
  EXPECT_GT(r.dropout_breakdown[DropoutReason::kCrashed], 0u);
  EXPECT_GT(r.rejected_updates, 0u);
}

TEST(FaultToleranceTest, AsyncFaultsAreDeterministic) {
  ExperimentConfig config = BaseConfig();
  config.faults.crash_prob = 0.2;
  config.faults.corrupt_prob = 0.1;
  const ExperimentResult a = RunAsync(config);
  const ExperimentResult b = RunAsync(config);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_EQ(a.dropout_breakdown[DropoutReason::kCrashed],
            b.dropout_breakdown[DropoutReason::kCrashed]);
  EXPECT_EQ(a.rejected_updates, b.rejected_updates);
  EXPECT_EQ(a.accuracy_avg, b.accuracy_avg);
  EXPECT_EQ(a.wall_clock_hours, b.wall_clock_hours);
}

// --- Defenses --------------------------------------------------------------

TEST(FaultToleranceTest, OvercommitShrinksRoundsAndChargesWaste) {
  ExperimentConfig config = BaseConfig();
  config.rounds = 40;
  config.faults.crash_prob = 0.2;  // stragglers and crashes make exact
                                   // selection routinely miss its deadline
  const ExperimentResult exact = RunSync(config);

  ExperimentConfig over = config;
  over.faults.overcommit = 2.0;
  const ExperimentResult padded = RunSync(over);

  // Closing at the first K completions strictly shortens the mean round.
  EXPECT_LT(padded.wall_clock_hours, exact.wall_clock_hours);
  // The abandoned stragglers show up as rejected dropouts and as waste.
  EXPECT_GT(padded.dropout_breakdown[DropoutReason::kRejected], 0u);
  EXPECT_GT(padded.wasted.compute_hours, exact.wasted.compute_hours);
  EXPECT_GT(padded.total_selected, exact.total_selected);
  EXPECT_EQ(padded.dropout_breakdown.Total(), padded.total_dropouts);
}

TEST(FaultToleranceTest, CooldownPreventsImmediateRetryOfCrashedClients) {
  ExperimentConfig config = BaseConfig();
  config.num_clients = 30;
  config.clients_per_round = 10;
  config.rounds = 3;
  config.assume_no_dropouts = true;
  config.faults.crash_prob = 1.0;
  config.faults.retry_cooldown_rounds = 1000;  // crashed once = benched
  const ExperimentResult r = RunSync(config);
  // Every selection crashes and benches the client, so nobody is picked
  // twice within the horizon.
  for (size_t selected : r.per_client_selected) {
    EXPECT_LE(selected, 1u);
  }
  EXPECT_EQ(r.total_selected, r.dropout_breakdown[DropoutReason::kCrashed]);
}

TEST(FaultToleranceTest, CooldownBenchesExactlyTheCrashedRounds) {
  ExperimentConfig config = BaseConfig();
  config.assume_no_dropouts = true;
  config.faults.crash_prob = 1.0;
  config.faults.retry_cooldown_rounds = 1;
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  engine.RunRound(0);
  // Every client selected in round 0 crashed and is benched through round 1
  // (next round + 1 cooldown round), eligible again from round 2.
  size_t benched = 0;
  for (auto& client : engine.clients()) {
    if (client.times_selected > 0) {
      ++benched;
      EXPECT_EQ(client.cooldown_until_round, 2u);
    } else {
      EXPECT_EQ(client.cooldown_until_round, 0u);
    }
  }
  EXPECT_GT(benched, 0u);
}

// --- Real engine -----------------------------------------------------------

RealFlConfig SmallRealConfig() {
  RealFlConfig config;
  config.num_clients = 8;
  config.clients_per_round = 6;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 10;
  config.seed = 11;
  config.num_threads = 1;
  return config;
}

TEST(FaultToleranceTest, RealEngineQuarantinesPoisonedTensors) {
  RealFlConfig config = SmallRealConfig();
  config.faults.corrupt_prob = 1.0;
  RealFlEngine engine(config);
  const std::vector<float> before = engine.global_model().GetParameters();
  const RealRoundStats stats = engine.RunRound(TechniqueKind::kNone);
  // Every upload is poisoned (NaN / Inf / exploding norm); validation must
  // reject them all and leave the global model untouched.
  EXPECT_EQ(stats.participants, 0u);
  EXPECT_EQ(stats.rejected_updates, config.clients_per_round);
  EXPECT_EQ(engine.global_model().GetParameters(), before);
  for (float p : engine.global_model().GetParameters()) {
    EXPECT_TRUE(std::isfinite(p));
  }
}

TEST(FaultToleranceTest, RealEngineCountsCrashes) {
  RealFlConfig config = SmallRealConfig();
  config.faults.crash_prob = 1.0;
  RealFlEngine engine(config);
  const RealRoundStats stats = engine.RunRound(TechniqueKind::kNone);
  EXPECT_EQ(stats.participants, 0u);
  EXPECT_EQ(stats.crashed, config.clients_per_round);
  EXPECT_EQ(stats.rejected_updates, 0u);
}

TEST(FaultToleranceTest, RealEngineAccountsEveryClient) {
  RealFlConfig config = SmallRealConfig();
  config.faults.crash_prob = 0.4;
  config.faults.corrupt_prob = 0.4;
  RealFlEngine engine(config);
  for (size_t r = 0; r < 4; ++r) {
    const RealRoundStats stats = engine.RunRound(TechniqueKind::kNone);
    EXPECT_EQ(stats.participants + stats.crashed + stats.rejected_updates,
              config.clients_per_round);
  }
}

// --- Thread-count invariance ----------------------------------------------

TEST(FaultToleranceTest, SyncFaultsAreThreadCountInvariant) {
  ExperimentConfig config = BaseConfig();
  config.faults.crash_prob = 0.15;
  config.faults.corrupt_prob = 0.1;
  config.faults.flaky_fraction = 0.3;
  config.faults.flaky_enter_prob = 0.3;
  config.faults.flaky_exit_prob = 0.4;
  config.faults.flaky_crash_prob = 0.3;
  config.faults.overcommit = 1.5;
  config.faults.retry_cooldown_rounds = 2;

  config.num_threads = 1;
  const ExperimentResult base = RunSync(config);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    config.num_threads = threads;
    const ExperimentResult r = RunSync(config);
    EXPECT_EQ(r.total_selected, base.total_selected) << threads;
    EXPECT_EQ(r.total_completed, base.total_completed) << threads;
    EXPECT_EQ(r.rejected_updates, base.rejected_updates) << threads;
    EXPECT_EQ(r.dropout_breakdown[DropoutReason::kCrashed],
              base.dropout_breakdown[DropoutReason::kCrashed]) << threads;
    EXPECT_EQ(r.dropout_breakdown[DropoutReason::kCorrupted],
              base.dropout_breakdown[DropoutReason::kCorrupted]) << threads;
    EXPECT_EQ(r.dropout_breakdown[DropoutReason::kRejected],
              base.dropout_breakdown[DropoutReason::kRejected]) << threads;
    EXPECT_EQ(r.accuracy_avg, base.accuracy_avg) << threads;
    EXPECT_EQ(r.wall_clock_hours, base.wall_clock_hours) << threads;
    EXPECT_EQ(r.accuracy_history, base.accuracy_history) << threads;
  }
}

TEST(FaultToleranceTest, AsyncFaultsAreThreadCountInvariant) {
  ExperimentConfig config = BaseConfig();
  config.async_concurrency = 20;
  config.async_buffer = 6;
  config.faults.crash_prob = 0.15;
  config.faults.corrupt_prob = 0.1;

  config.num_threads = 1;
  AsyncEngine base_engine(config, nullptr);
  const ExperimentResult base = base_engine.Run();
  for (size_t threads : {size_t{2}, size_t{8}}) {
    config.num_threads = threads;
    AsyncEngine engine(config, nullptr);
    const ExperimentResult r = engine.Run();
    EXPECT_EQ(r.total_completed, base.total_completed) << threads;
    EXPECT_EQ(r.rejected_updates, base.rejected_updates) << threads;
    EXPECT_EQ(r.dropout_breakdown[DropoutReason::kCrashed],
              base.dropout_breakdown[DropoutReason::kCrashed]) << threads;
    EXPECT_EQ(r.accuracy_avg, base.accuracy_avg) << threads;
    EXPECT_EQ(r.wall_clock_hours, base.wall_clock_hours) << threads;
  }
}

TEST(FaultToleranceTest, RealEngineFaultsAreThreadCountInvariant) {
  RealFlConfig config = SmallRealConfig();
  config.faults.crash_prob = 0.3;
  config.faults.corrupt_prob = 0.3;

  config.num_threads = 1;
  RealFlEngine base(config);
  RealRoundStats base_stats;
  for (size_t r = 0; r < 3; ++r) {
    base_stats = base.RunRound(TechniqueKind::kQuant8);
  }
  for (size_t threads : {size_t{2}, size_t{8}}) {
    config.num_threads = threads;
    RealFlEngine engine(config);
    RealRoundStats stats;
    for (size_t r = 0; r < 3; ++r) {
      stats = engine.RunRound(TechniqueKind::kQuant8);
    }
    EXPECT_EQ(engine.global_model().GetParameters(), base.global_model().GetParameters())
        << threads;
    EXPECT_EQ(stats.test_accuracy, base_stats.test_accuracy) << threads;
    EXPECT_EQ(stats.crashed, base_stats.crashed) << threads;
    EXPECT_EQ(stats.rejected_updates, base_stats.rejected_updates) << threads;
  }
}

}  // namespace
}  // namespace floatfl
