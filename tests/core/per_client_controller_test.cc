#include "src/core/per_client_controller.h"

#include <gtest/gtest.h>

#include "src/core/float_controller.h"
#include "src/fl/sync_engine.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

TEST(PerClientControllerTest, MaintainsOneAgentPerClient) {
  auto controller = PerClientController::MakeDefault(10, 1, 100);
  EXPECT_EQ(controller->NumClients(), 10u);
  EXPECT_EQ(controller->Name(), "float-per-client");
  // Agents are independent: feeding one leaves the others untouched.
  GlobalObservation global;
  ClientObservation obs;
  for (int i = 0; i < 50; ++i) {
    controller->Report(3, obs, global, TechniqueKind::kPrune75, true, 0.01);
  }
  EXPECT_GT(controller->agent(3).RewardsHeld(), 0u);
  EXPECT_EQ(controller->agent(4).RewardsHeld(), 0u);
}

TEST(PerClientControllerTest, AgentsLearnIndependently) {
  auto controller = PerClientController::MakeDefault(2, 2, 100);
  GlobalObservation global;
  ClientObservation obs;
  obs.cpu_avail = 0.3;
  // Client 0: prune75 always succeeds; client 1: quant16 always succeeds.
  for (size_t round = 0; round < 200; ++round) {
    const TechniqueKind kind0 = controller->Decide(0, obs, global);
    controller->Report(0, obs, global, kind0, kind0 == TechniqueKind::kPrune75,
                       kind0 == TechniqueKind::kPrune75 ? 0.01 : 0.0);
    const TechniqueKind kind1 = controller->Decide(1, obs, global);
    controller->Report(1, obs, global, kind1, kind1 == TechniqueKind::kQuant16,
                       kind1 == TechniqueKind::kQuant16 ? 0.01 : 0.0);
  }
  // Each agent converged to its own client's best action.
  const size_t state0 = controller->agent(0).encoder().Encode(obs, GlobalObservation{});
  size_t best0 = 0;
  size_t best1 = 0;
  for (size_t a = 1; a < controller->agent(0).NumActions(); ++a) {
    if (controller->agent(0).table().Q(state0, a) >
        controller->agent(0).table().Q(state0, best0)) {
      best0 = a;
    }
    if (controller->agent(1).table().Q(state0, a) >
        controller->agent(1).table().Q(state0, best1)) {
      best1 = a;
    }
  }
  EXPECT_EQ(ActionTechniques()[best0], TechniqueKind::kPrune75);
  EXPECT_EQ(ActionTechniques()[best1], TechniqueKind::kQuant16);
}

TEST(PerClientControllerTest, MemoryScalesLinearlyInClients) {
  auto small = PerClientController::MakeDefault(5, 3, 100);
  auto large = PerClientController::MakeDefault(50, 3, 100);
  EXPECT_NEAR(static_cast<double>(large->TotalMemoryBytes()) /
                  static_cast<double>(small->TotalMemoryBytes()),
              10.0, 0.1);
}

TEST(PerClientControllerTest, WorksAsEnginePolicy) {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 8;
  config.rounds = 150;
  config.seed = 55;
  config.interference = InterferenceScenario::kDynamic;

  RandomSelector s1(config.seed);
  SyncEngine vanilla(config, &s1, nullptr);
  const ExperimentResult base = vanilla.Run();

  RandomSelector s2(config.seed);
  auto controller = PerClientController::MakeDefault(config.num_clients, config.seed,
                                                     config.rounds);
  SyncEngine engine(config, &s2, controller.get());
  const ExperimentResult result = engine.Run();
  // Per-client tables learn far slower than the collective table (each
  // client sees only its own ~1-in-5 selections), but with enough rounds
  // they must still beat the no-optimization baseline on participation.
  EXPECT_GT(result.total_completed, base.total_completed);
  EXPECT_GT(result.accuracy_avg, 0.0);
}

}  // namespace
}  // namespace floatfl
