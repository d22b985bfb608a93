// Thread-count invariance harness.
//
// Runs identical experiments at num_threads in {1, 2, 8} ({1, 2, 4, 8} for
// the fully armed sync run and the real engine's policy run) on all three
// engines and asserts the outputs are bit-for-bit identical: per-round
// accuracy sequences, learned Q-tables, resource-accountant totals,
// participation counts, and (for the real engine) the aggregated model
// weights themselves. This is the contract that lets the engines fan
// per-client work across a pool without becoming irreproducible.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "src/core/float_controller.h"
#include "src/failure/checkpoint_io.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

constexpr std::array<size_t, 3> kThreadCounts = {1, 2, 8};

ExperimentConfig SmallConfig(size_t num_threads) {
  ExperimentConfig config;
  config.num_clients = 30;
  config.clients_per_round = 8;
  config.rounds = 12;
  config.dataset = DatasetId::kFemnist;
  config.model = ModelId::kResNet34;
  config.interference = InterferenceScenario::kDynamic;
  config.seed = 321;
  config.async_concurrency = 20;
  config.async_buffer = 6;
  config.num_threads = num_threads;
  return config;
}

// Bit-exact comparison helpers. EXPECT_EQ on double is exact equality,
// which is precisely the contract under test.
void ExpectSameHistory(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "round " << i;
  }
}

void ExpectSameTotals(const ResourceTotals& a, const ResourceTotals& b) {
  EXPECT_EQ(a.compute_hours, b.compute_hours);
  EXPECT_EQ(a.comm_hours, b.comm_hours);
  EXPECT_EQ(a.memory_tb, b.memory_tb);
}

void ExpectSameResult(const ExperimentResult& a, const ExperimentResult& b) {
  ExpectSameHistory(a.accuracy_history, b.accuracy_history);
  EXPECT_EQ(a.accuracy_avg, b.accuracy_avg);
  EXPECT_EQ(a.accuracy_top10, b.accuracy_top10);
  EXPECT_EQ(a.accuracy_bottom10, b.accuracy_bottom10);
  EXPECT_EQ(a.global_accuracy, b.global_accuracy);
  EXPECT_EQ(a.total_selected, b.total_selected);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_EQ(a.total_dropouts, b.total_dropouts);
  EXPECT_EQ(a.dropout_breakdown[DropoutReason::kUnavailable],
            b.dropout_breakdown[DropoutReason::kUnavailable]);
  EXPECT_EQ(a.dropout_breakdown[DropoutReason::kOutOfMemory],
            b.dropout_breakdown[DropoutReason::kOutOfMemory]);
  EXPECT_EQ(a.dropout_breakdown[DropoutReason::kMissedDeadline],
            b.dropout_breakdown[DropoutReason::kMissedDeadline]);
  EXPECT_EQ(a.dropout_breakdown[DropoutReason::kDeparted],
            b.dropout_breakdown[DropoutReason::kDeparted]);
  ExpectSameTotals(a.useful, b.useful);
  ExpectSameTotals(a.wasted, b.wasted);
  EXPECT_EQ(a.wall_clock_hours, b.wall_clock_hours);
  EXPECT_EQ(a.per_client_selected, b.per_client_selected);
  EXPECT_EQ(a.per_client_completed, b.per_client_completed);
  ASSERT_EQ(a.per_technique.size(), b.per_technique.size());
  for (const auto& [kind, stats] : a.per_technique) {
    ASSERT_EQ(b.per_technique.count(kind), 1u);
    EXPECT_EQ(stats.success, b.per_technique.at(kind).success);
    EXPECT_EQ(stats.failure, b.per_technique.at(kind).failure);
  }
}

void ExpectSameQTable(const QTable& a, const QTable& b) {
  ASSERT_EQ(a.num_states(), b.num_states());
  ASSERT_EQ(a.num_actions(), b.num_actions());
  for (size_t s = 0; s < a.num_states(); ++s) {
    for (size_t action = 0; action < a.num_actions(); ++action) {
      EXPECT_EQ(a.Q(s, action), b.Q(s, action)) << "state " << s << " action " << action;
      EXPECT_EQ(a.Visits(s, action), b.Visits(s, action)) << "state " << s << " action " << action;
    }
  }
}

struct SyncRun {
  ExperimentResult result;
  std::unique_ptr<FloatController> controller;
};

SyncRun RunSync(size_t num_threads) {
  const ExperimentConfig config = SmallConfig(num_threads);
  SyncRun run;
  run.controller = FloatController::MakeDefault(config.seed, config.rounds);
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, run.controller.get());
  run.result = engine.Run();
  return run;
}

TEST(DeterminismTest, SyncEngineIsThreadCountInvariant) {
  const SyncRun baseline = RunSync(kThreadCounts[0]);
  for (size_t t = 1; t < kThreadCounts.size(); ++t) {
    const SyncRun run = RunSync(kThreadCounts[t]);
    SCOPED_TRACE("num_threads=" + std::to_string(kThreadCounts[t]));
    ExpectSameResult(baseline.result, run.result);
    ExpectSameQTable(baseline.controller->agent().table(), run.controller->agent().table());
  }
}

TEST(DeterminismTest, SyncEngineVanillaPolicyIsThreadCountInvariant) {
  auto run = [](size_t num_threads) {
    const ExperimentConfig config = SmallConfig(num_threads);
    RandomSelector selector(config.seed);
    SyncEngine engine(config, &selector, nullptr);
    return engine.Run();
  };
  const ExperimentResult baseline = run(kThreadCounts[0]);
  for (size_t t = 1; t < kThreadCounts.size(); ++t) {
    SCOPED_TRACE("num_threads=" + std::to_string(kThreadCounts[t]));
    ExpectSameResult(baseline, run(kThreadCounts[t]));
  }
}

// The parallel observe phase with every subsystem that reshapes the
// selected cohort or draws alongside the policy armed: FLOAT's RLHF agent
// (sequential Decide after the parallel observe), speculative backups
// appended to the selection, injected faults and a faulty two-tier edge
// tree. Results and the serialized engine, selector and policy state must be
// byte-identical at every thread count.
ExperimentConfig ArmedObserveConfig(size_t num_threads) {
  ExperimentConfig config = SmallConfig(num_threads);
  config.num_clients = 60;
  config.clients_per_round = 12;
  config.rounds = 20;
  config.faults.crash_prob = 0.15;
  config.faults.corrupt_prob = 0.05;
  config.faults.overcommit = 1.3;
  config.salvage.enabled = true;
  config.salvage.speculation = true;
  config.salvage.speculation_margin = 0.0;
  config.salvage.max_backup_fraction = 0.25;
  config.topology.num_edges = 3;
  config.topology.edge_crash_prob = 0.1;
  config.topology.edge_blackout_prob = 0.05;
  config.topology.edge_retry_cooldown_rounds = 2;
  return config;
}

TEST(DeterminismTest, SyncEngineParallelObserveIsThreadCountInvariantWithEverythingArmed) {
  ExperimentResult baseline;
  std::string baseline_state;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    const ExperimentConfig config = ArmedObserveConfig(threads);
    auto controller = FloatController::MakeDefault(config.seed, config.rounds);
    RandomSelector selector(config.seed);
    SyncEngine engine(config, &selector, controller.get());
    const ExperimentResult result = engine.Run();
    CheckpointWriter w;
    engine.SaveState(w);
    selector.SaveState(w);
    controller->SaveState(w);
    if (threads == 1) {
      // The run must exercise the paths it claims to cover.
      EXPECT_GT(result.backups_planned, 0u);
      EXPECT_GT(result.dropout_breakdown[DropoutReason::kCrashed], 0u);
      EXPECT_GT(result.edge_crashes, 0u);
      EXPECT_GT(result.reparented_clients, 0u);
      baseline = result;
      baseline_state = w.buffer();
      continue;
    }
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ExpectSameResult(baseline, result);
    EXPECT_EQ(result.backups_planned, baseline.backups_planned);
    EXPECT_EQ(result.backups_won, baseline.backups_won);
    EXPECT_EQ(result.edge_crashes, baseline.edge_crashes);
    EXPECT_EQ(result.reparented_clients, baseline.reparented_clients);
    EXPECT_EQ(result.rejected_updates, baseline.rejected_updates);
    EXPECT_TRUE(w.buffer() == baseline_state) << "checkpoint bytes differ";
  }
}

struct AsyncRun {
  ExperimentResult result;
  std::unique_ptr<FloatController> controller;
};

AsyncRun RunAsync(size_t num_threads) {
  ExperimentConfig config = SmallConfig(num_threads);
  config.rounds = 8;  // aggregations, not sync rounds
  AsyncRun run;
  run.controller = FloatController::MakeDefault(config.seed, config.rounds);
  AsyncEngine engine(config, run.controller.get());
  run.result = engine.Run();
  return run;
}

TEST(DeterminismTest, AsyncEngineIsThreadCountInvariant) {
  const AsyncRun baseline = RunAsync(kThreadCounts[0]);
  for (size_t t = 1; t < kThreadCounts.size(); ++t) {
    const AsyncRun run = RunAsync(kThreadCounts[t]);
    SCOPED_TRACE("num_threads=" + std::to_string(kThreadCounts[t]));
    ExpectSameResult(baseline.result, run.result);
    ExpectSameQTable(baseline.controller->agent().table(), run.controller->agent().table());
  }
}

RealFlConfig RealConfig(size_t num_threads) {
  RealFlConfig config;
  config.num_clients = 10;
  config.clients_per_round = 6;
  config.num_classes = 4;
  config.input_dim = 10;
  config.class_separation = 3.0;
  config.alpha = 0.5;
  config.hidden_dims = {12};
  config.sgd.learning_rate = 0.1f;
  config.sgd.batch_size = 16;
  config.sgd.epochs = 1;
  config.seed = 77;
  config.num_threads = num_threads;
  return config;
}

TEST(DeterminismTest, RealEngineIsThreadCountInvariant) {
  constexpr size_t kRounds = 3;
  std::vector<RealRoundStats> baseline_stats;
  std::vector<float> baseline_params;
  for (size_t t = 0; t < kThreadCounts.size(); ++t) {
    RealFlEngine engine(RealConfig(kThreadCounts[t]));
    std::vector<RealRoundStats> stats;
    for (size_t round = 0; round < kRounds; ++round) {
      // Alternate techniques so quantized, pruned, and dense paths all run
      // under the parallel fan-out.
      const TechniqueKind technique = round == 0   ? TechniqueKind::kNone
                                      : round == 1 ? TechniqueKind::kQuant8
                                                   : TechniqueKind::kPrune50;
      stats.push_back(engine.RunRound(technique));
    }
    const std::vector<float> params = engine.global_model().GetParameters();
    if (t == 0) {
      baseline_stats = stats;
      baseline_params = params;
      continue;
    }
    SCOPED_TRACE("num_threads=" + std::to_string(kThreadCounts[t]));
    ASSERT_EQ(stats.size(), baseline_stats.size());
    for (size_t round = 0; round < kRounds; ++round) {
      EXPECT_EQ(stats[round].test_accuracy, baseline_stats[round].test_accuracy);
      EXPECT_EQ(stats[round].test_loss, baseline_stats[round].test_loss);
      EXPECT_EQ(stats[round].mean_upload_bytes, baseline_stats[round].mean_upload_bytes);
      EXPECT_EQ(stats[round].mean_update_error, baseline_stats[round].mean_update_error);
      EXPECT_EQ(stats[round].participants, baseline_stats[round].participants);
    }
    ASSERT_EQ(params.size(), baseline_params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      EXPECT_EQ(params[i], baseline_params[i]) << "param " << i;
    }
  }
}

// The policy path of the real engine with the guard and salvage armed: the
// cached round-start accuracy, the row-parallel test-set evaluation, the
// guard's rollback re-evaluation and truncated partial training all run
// under the pool. Every round's stats and the serialized engine (policy
// included) must be byte-identical at every thread count.
RealFlConfig RealPolicyConfig(size_t num_threads) {
  RealFlConfig config;
  config.num_clients = 12;
  config.clients_per_round = 6;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  // 90 rows: five full evaluation blocks and a partial one.
  config.test_samples_per_class = 30;
  config.seed = 9;
  config.num_threads = num_threads;
  // A late scaled-replacement attack collapses the model, so the guard
  // rolls back; crashes give salvage partials to train.
  config.faults.byzantine_mode = ByzantineMode::kScaledReplacement;
  config.faults.byzantine_fraction = 0.2;
  config.faults.byzantine_scale = 300.0;
  config.faults.byzantine_start_round = 6;
  config.faults.crash_prob = 0.25;
  config.guard.enabled = true;
  config.guard.collapse_threshold = 0.1;
  config.guard.snapshot_ring = 3;
  config.guard.safe_mode_rounds = 3;
  config.salvage.enabled = true;
  return config;
}

bool SameRealStats(const RealRoundStats& a, const RealRoundStats& b) {
  return a.test_accuracy == b.test_accuracy && a.test_loss == b.test_loss &&
         a.participants == b.participants && a.mean_upload_bytes == b.mean_upload_bytes &&
         a.mean_update_error == b.mean_update_error && a.crashed == b.crashed &&
         a.rejected_updates == b.rejected_updates &&
         a.byzantine_selected == b.byzantine_selected && a.rolled_back == b.rolled_back &&
         a.partials_salvaged == b.partials_salvaged &&
         a.partials_below_min == b.partials_below_min &&
         a.partials_rejected == b.partials_rejected && a.salvaged_steps == b.salvaged_steps;
}

TEST(DeterminismTest, RealEnginePolicyRoundsWithGuardAndSalvageAreThreadCountInvariant) {
  constexpr size_t kRounds = 16;
  std::vector<RealRoundStats> baseline_stats;
  std::string baseline_state;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    const RealFlConfig config = RealPolicyConfig(threads);
    auto controller = FloatController::MakeDefault(config.seed, kRounds);
    RealFlEngine engine(config);
    engine.AttachPolicy(controller.get());
    std::vector<RealRoundStats> stats;
    size_t rollbacks = 0;
    size_t salvaged = 0;
    for (size_t round = 0; round < kRounds; ++round) {
      stats.push_back(engine.RunRoundWithPolicy());
      rollbacks += stats.back().rolled_back ? 1 : 0;
      salvaged += stats.back().partials_salvaged;
    }
    CheckpointWriter w;
    engine.SaveState(w);
    if (threads == 1) {
      // The run must exercise the paths it claims to cover.
      EXPECT_GE(rollbacks, 1u);
      EXPECT_GT(salvaged, 0u);
      baseline_stats = stats;
      baseline_state = w.buffer();
      continue;
    }
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    for (size_t round = 0; round < kRounds; ++round) {
      EXPECT_TRUE(SameRealStats(stats[round], baseline_stats[round])) << "round " << round;
    }
    EXPECT_TRUE(w.buffer() == baseline_state) << "checkpoint bytes differ";
  }
}

}  // namespace
}  // namespace floatfl
