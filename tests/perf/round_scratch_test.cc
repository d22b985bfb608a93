// Pooled per-round scratch (DESIGN.md §12) is the only scratch path: every
// engine keeps its per-round buffers across rounds and never hands their
// capacity back. These tests pin that the buffers carry no state between
// rounds. An engine whose scratch is warm from running the whole horizon is
// rewound by LoadState to an earlier checkpoint and replayed; it must end
// byte-identical to a cold engine that ran the horizon once. Stale entries,
// a size taken from capacity, or an un-reset slot would all show up as a
// state diff.
#include <string>

#include "gtest/gtest.h"
#include "src/core/float_controller.h"
#include "src/failure/checkpoint_io.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/tuning_policy.h"
#include "src/fl/vfl_engine.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

// Rounds (or async versions, or VFL epochs) run before the checkpoint that
// the warm engine is rewound to.
constexpr size_t kRewindAt = 3;

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 10;
  config.rounds = 8;
  config.num_threads = 1;
  config.seed = 42;
  // Transport on (zero loss, deterministic chunking) so the round loop also
  // covers the wire-accounting path.
  config.faults.transport = true;
  return config;
}

// Every fault layer armed at once, with salvage, speculation and a faulty
// two-tier tree: the cohort, the backup list, the admission queue and the
// per-edge partials all change size from round to round.
ExperimentConfig StormConfig() {
  ExperimentConfig config = SmallConfig();
  config.clients_per_round = 8;
  config.seed = 7777;
  config.interference = InterferenceScenario::kDynamic;
  config.faults.crash_prob = 0.15;
  config.faults.corrupt_prob = 0.1;
  config.faults.overcommit = 1.5;
  config.faults.retry_cooldown_rounds = 2;
  config.faults.byzantine_mode = ByzantineMode::kScaledReplacement;
  config.faults.byzantine_fraction = 0.15;
  config.aggregator.kind = AggregatorKind::kTrimmedMean;
  config.faults.chunk_loss_prob = 0.1;
  config.faults.max_transfer_retries = 2;
  config.faults.duplicate_prob = 0.2;
  config.faults.replay_prob = 0.2;
  config.faults.stampede_prob = 0.2;
  config.admission.dedup = true;
  config.admission.reject_replays = true;
  config.admission.rate_tokens_per_round = 4.0;
  config.admission.rate_bucket_cap = 8.0;
  config.admission.queue_capacity = 6;
  config.guard.enabled = true;
  config.salvage.enabled = true;
  config.salvage.speculation = true;
  config.topology.num_edges = 2;
  config.topology.edge_crash_prob = 0.1;
  config.topology.edge_link_loss_prob = 0.05;
  return config;
}

std::string SyncState(const SyncEngine& engine, const RandomSelector& selector) {
  CheckpointWriter w;
  engine.SaveState(w);
  selector.SaveState(w);
  return w.buffer();
}

// The warm engine may run at another thread count: the parallel observe
// phase writes per-client scratch slots from worker threads.
void ExpectSyncWarmScratchIsBitInvisible(const ExperimentConfig& config,
                                         size_t warm_threads = 1) {
  RandomSelector cold_selector(config.seed);
  StaticPolicy cold_policy(TechniqueKind::kQuant8);
  SyncEngine cold(config, &cold_selector, &cold_policy);
  std::string mid;
  for (size_t round = 0; round < config.rounds; ++round) {
    if (round == kRewindAt) {
      mid = SyncState(cold, cold_selector);
    }
    cold.RunRound(round);
  }

  ExperimentConfig warm_config = config;
  warm_config.num_threads = warm_threads;
  RandomSelector warm_selector(config.seed);
  StaticPolicy warm_policy(TechniqueKind::kQuant8);
  SyncEngine warm(warm_config, &warm_selector, &warm_policy);
  for (size_t round = 0; round < config.rounds; ++round) {
    warm.RunRound(round);
  }
  CheckpointReader r(mid);
  warm.LoadState(r);
  warm_selector.LoadState(r);
  ASSERT_TRUE(r.AtEnd());
  for (size_t round = kRewindAt; round < config.rounds; ++round) {
    warm.RunRound(round);
  }

  EXPECT_EQ(SyncState(cold, cold_selector), SyncState(warm, warm_selector));
}

TEST(RoundScratchTest, SyncEngineWarmScratchIsBitInvisible) {
  ExpectSyncWarmScratchIsBitInvisible(SmallConfig());
}

// The fault paths fill the pooled fault / reason vectors, the most likely
// place for cross-round state to leak.
TEST(RoundScratchTest, SyncEngineWarmScratchWithFaultsIsBitInvisible) {
  ExperimentConfig config = SmallConfig();
  config.faults.crash_prob = 0.1;
  config.faults.corrupt_prob = 0.05;
  ExpectSyncWarmScratchIsBitInvisible(config);
}

TEST(RoundScratchTest, SyncEngineWarmScratchUnderTheFullStormIsBitInvisible) {
  ExpectSyncWarmScratchIsBitInvisible(StormConfig());
}

TEST(RoundScratchTest, SyncEngineWarmScratchAtFourThreadsIsBitInvisible) {
  ExperimentConfig config = SmallConfig();
  config.faults.crash_prob = 0.1;
  ExpectSyncWarmScratchIsBitInvisible(config, 4);
}

std::string AsyncState(const AsyncEngine& engine) {
  CheckpointWriter w;
  engine.SaveState(w);
  return w.buffer();
}

void ExpectAsyncWarmScratchIsBitInvisible(const ExperimentConfig& config) {
  AsyncEngine cold(config, nullptr);
  cold.RunUntil(kRewindAt);
  const std::string mid = AsyncState(cold);
  cold.RunUntil(config.rounds);

  AsyncEngine warm(config, nullptr);
  warm.RunUntil(config.rounds);
  CheckpointReader r(mid);
  warm.LoadState(r);
  ASSERT_TRUE(r.AtEnd());
  ASSERT_EQ(warm.Version(), kRewindAt);
  warm.RunUntil(config.rounds);

  EXPECT_EQ(AsyncState(cold), AsyncState(warm));
}

TEST(RoundScratchTest, AsyncEngineWarmScratchIsBitInvisible) {
  ExperimentConfig config = SmallConfig();
  config.rounds = 6;
  ExpectAsyncWarmScratchIsBitInvisible(config);
}

// Duplicates, replays and stampedes change how many launches each step
// queues into the pooled launch list.
TEST(RoundScratchTest, AsyncEngineWarmScratchUnderAnOverloadStormIsBitInvisible) {
  ExperimentConfig config = SmallConfig();
  config.rounds = 6;
  config.faults.crash_prob = 0.15;
  config.faults.duplicate_prob = 0.2;
  config.faults.replay_prob = 0.2;
  config.faults.stampede_prob = 0.2;
  config.admission.dedup = true;
  config.admission.reject_replays = true;
  config.admission.queue_capacity = 6;
  config.salvage.enabled = true;
  ExpectAsyncWarmScratchIsBitInvisible(config);
}

RealFlConfig SmallRealConfig() {
  RealFlConfig config;
  config.num_clients = 12;
  config.clients_per_round = 4;
  config.num_threads = 1;
  config.seed = 42;
  config.faults.transport = true;
  return config;
}

TechniqueKind RealTechnique(size_t round) {
  return round % 2 == 0 ? TechniqueKind::kNone : TechniqueKind::kQuant8;
}

std::string RealState(const RealFlEngine& engine) {
  CheckpointWriter w;
  engine.SaveState(w);
  return w.buffer();
}

void ExpectRealWarmScratchIsBitInvisible(const RealFlConfig& config) {
  constexpr size_t kRounds = 6;
  RealFlEngine cold(config);
  std::string mid;
  for (size_t round = 0; round < kRounds; ++round) {
    if (round == kRewindAt) {
      mid = RealState(cold);
    }
    cold.RunRound(RealTechnique(round));
  }

  RealFlEngine warm(config);
  for (size_t round = 0; round < kRounds; ++round) {
    warm.RunRound(RealTechnique(round));
  }
  CheckpointReader r(mid);
  warm.LoadState(r);
  ASSERT_TRUE(r.AtEnd());
  for (size_t round = kRewindAt; round < kRounds; ++round) {
    warm.RunRound(RealTechnique(round));
  }

  EXPECT_EQ(RealState(cold), RealState(warm));
  EXPECT_EQ(cold.global_model().GetParameters(), warm.global_model().GetParameters());
}

// The pooled parameter-sized `updates` buffers are overwritten in place
// every round.
TEST(RoundScratchTest, RealEngineWarmScratchIsBitInvisible) {
  ExpectRealWarmScratchIsBitInvisible(SmallRealConfig());
}

// Salvaged partials write truncated-SGD deltas and acked-prefix splices into
// the same pooled buffers as full updates.
TEST(RoundScratchTest, RealEngineWarmScratchWithSalvagedPartialsIsBitInvisible) {
  RealFlConfig config = SmallRealConfig();
  config.faults.crash_prob = 0.3;
  config.faults.chunk_loss_prob = 0.2;
  config.faults.max_transfer_retries = 1;
  config.salvage.enabled = true;
  ExpectRealWarmScratchIsBitInvisible(config);
}

// Policy rounds take their round-start accuracy from the previous round's
// end. The warm engine's cache holds the accuracy of a later round when
// LoadState rewinds it, so a cache that survived the load would feed the
// policy a wrong accuracy credit and the replayed Q-table would differ.
TEST(RoundScratchTest, RealEnginePolicyRoundsAfterRewindAreBitInvisible) {
  constexpr size_t kRounds = 6;
  RealFlConfig config = SmallRealConfig();
  config.num_threads = 2;
  const auto cold_policy = FloatController::MakeDefault(config.seed, kRounds);
  RealFlEngine cold(config);
  cold.AttachPolicy(cold_policy.get());
  std::string mid;
  for (size_t round = 0; round < kRounds; ++round) {
    if (round == kRewindAt) {
      mid = RealState(cold);
    }
    cold.RunRoundWithPolicy();
  }

  const auto warm_policy = FloatController::MakeDefault(config.seed, kRounds);
  RealFlEngine warm(config);
  warm.AttachPolicy(warm_policy.get());
  for (size_t round = 0; round < kRounds; ++round) {
    warm.RunRoundWithPolicy();
  }
  CheckpointReader r(mid);
  warm.LoadState(r);
  ASSERT_TRUE(r.AtEnd());
  for (size_t round = kRewindAt; round < kRounds; ++round) {
    warm.RunRoundWithPolicy();
  }

  EXPECT_EQ(RealState(cold), RealState(warm));
  EXPECT_EQ(cold.global_model().GetParameters(), warm.global_model().GetParameters());
}

std::string VflState(const VflEngine& engine) {
  CheckpointWriter w;
  engine.SaveState(w);
  return w.buffer();
}

TEST(RoundScratchTest, VflEngineWarmScratchIsBitInvisible) {
  constexpr size_t kEpochs = 5;
  VflConfig config;
  config.seed = 42;
  config.train_samples = 120;
  config.faults.transport = true;
  const auto technique = [](size_t epoch) {
    return epoch % 2 == 1 ? TechniqueKind::kQuant16 : TechniqueKind::kNone;
  };

  VflEngine cold(config);
  std::string mid;
  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    if (epoch == kRewindAt) {
      mid = VflState(cold);
    }
    cold.TrainEpoch(technique(epoch));
  }

  VflEngine warm(config);
  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    warm.TrainEpoch(technique(epoch));
  }
  CheckpointReader r(mid);
  warm.LoadState(r);
  ASSERT_TRUE(r.AtEnd());
  for (size_t epoch = kRewindAt; epoch < kEpochs; ++epoch) {
    warm.TrainEpoch(technique(epoch));
  }

  EXPECT_EQ(VflState(cold), VflState(warm));
}

}  // namespace
}  // namespace floatfl
