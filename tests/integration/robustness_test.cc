// Failure-injection / extreme-configuration robustness: the engines and the
// agent must degrade gracefully (no crashes, invariants intact) under
// hostile parameterizations.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/float_controller.h"
#include "src/fl/async_engine.h"
#include "src/fl/sync_engine.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.num_clients = 30;
  config.clients_per_round = 8;
  config.rounds = 15;
  config.seed = 404;
  return config;
}

TEST(RobustnessTest, ImpossibleDeadlineDropsEveryoneGracefully) {
  ExperimentConfig config = BaseConfig();
  config.deadline_s = 0.001;  // nobody can finish
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  const ExperimentResult r = engine.Run();
  EXPECT_EQ(r.total_completed, 0u);
  EXPECT_EQ(r.total_selected, r.total_dropouts);
  // Accuracy stays at the initial level (no progress without updates).
  EXPECT_LE(r.global_accuracy, GetDatasetSpec(config.dataset).initial_accuracy + 1e-9);
}

TEST(RobustnessTest, HugeDeadlineCompletesAlmostEveryone) {
  ExperimentConfig config = BaseConfig();
  config.deadline_s = 1e9;
  config.interference = InterferenceScenario::kNone;
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  const ExperimentResult r = engine.Run();
  // Departures can still occur (huge rounds outlive availability windows),
  // but deadline misses cannot.
  EXPECT_EQ(r.dropout_breakdown[DropoutReason::kMissedDeadline], 0u);
}

TEST(RobustnessTest, SingleClientFederation) {
  ExperimentConfig config = BaseConfig();
  config.num_clients = 1;
  config.clients_per_round = 1;
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  const ExperimentResult r = engine.Run();
  EXPECT_LE(r.total_selected, config.rounds);
}

TEST(RobustnessTest, MoreSelectedThanClients) {
  ExperimentConfig config = BaseConfig();
  config.clients_per_round = 100;  // > num_clients
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  const ExperimentResult r = engine.Run();
  EXPECT_LE(r.total_selected, config.rounds * config.num_clients);
}

TEST(RobustnessTest, ExtremeNonIidStillRuns) {
  ExperimentConfig config = BaseConfig();
  config.alpha = 0.001;  // essentially one class per client
  RandomSelector selector(config.seed);
  auto controller = FloatController::MakeDefault(config.seed, config.rounds);
  SyncEngine engine(config, &selector, controller.get());
  const ExperimentResult r = engine.Run();
  EXPECT_GE(r.accuracy_avg, 0.0);
  EXPECT_LE(r.accuracy_top10, 1.0);
}

TEST(RobustnessTest, NearIidRunsToo) {
  ExperimentConfig config = BaseConfig();
  config.alpha = 1000.0;
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  const ExperimentResult r = engine.Run();
  // IID clients all sit close to the global accuracy.
  EXPECT_LT(r.accuracy_top10 - r.accuracy_bottom10, 0.2);
}

TEST(RobustnessTest, AsyncWithTinyBufferAndConcurrency) {
  ExperimentConfig config = BaseConfig();
  config.async_concurrency = 1;
  config.async_buffer = 1;
  config.rounds = 5;
  AsyncEngine engine(config, nullptr);
  const ExperimentResult r = engine.Run();
  EXPECT_EQ(r.accuracy_history.size(), 5u);
}

TEST(RobustnessTest, TinyModelHugeBatch) {
  ExperimentConfig config = BaseConfig();
  config.model = ModelId::kSpeechCnn;
  config.batch_size = 512;
  config.epochs = 1;
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  const ExperimentResult r = engine.Run();
  EXPECT_EQ(r.total_selected, r.total_completed + r.total_dropouts);
}

TEST(RobustnessTest, AgentSurvivesContradictoryFeedback) {
  // The same (state, action) alternates success/failure forever; Q must stay
  // bounded and finite.
  auto controller = FloatController::MakeDefault(9, 100);
  GlobalObservation global;
  ClientObservation obs;
  for (int i = 0; i < 2000; ++i) {
    const TechniqueKind kind = controller->Decide(0, obs, global);
    controller->Report(0, obs, global, kind, i % 2 == 0, i % 2 == 0 ? 0.01 : 0.0);
  }
  const auto& table = controller->agent().table();
  for (size_t s = 0; s < table.num_states(); ++s) {
    for (size_t a = 0; a < table.num_actions(); ++a) {
      EXPECT_TRUE(std::isfinite(table.Q(s, a)));
      EXPECT_LE(table.Q(s, a), 2.0);
      EXPECT_GE(table.Q(s, a), -1.0);
    }
  }
}

TEST(RobustnessTest, ZeroAccuracyImprovementFeedback) {
  auto controller = FloatController::MakeDefault(10, 100);
  GlobalObservation global;
  ClientObservation obs;
  for (int i = 0; i < 100; ++i) {
    const TechniqueKind kind = controller->Decide(0, obs, global);
    controller->Report(0, obs, global, kind, true, 0.0);
  }
  EXPECT_GT(controller->agent().AverageRewardOver(100), 0.0);  // participation still rewards
}

}  // namespace
}  // namespace floatfl
