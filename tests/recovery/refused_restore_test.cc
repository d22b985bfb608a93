// A hash-valid archive saved for another shape of engine (population, policy
// presence, model size, party count, per-client agent count) is refused:
// Restore returns false and the reader fails; the process never aborts
// (DESIGN.md §8, checked counts).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/core/float_controller.h"
#include "src/core/per_client_controller.h"
#include "src/failure/checkpoint_io.h"
#include "src/failure/checkpointer.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/vfl_engine.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

std::string TempPath(const std::string& name) { return testing::TempDir() + "/" + name; }

ExperimentConfig SmallSync(size_t num_clients) {
  ExperimentConfig config;
  config.num_clients = num_clients;
  config.clients_per_round = 4;
  config.rounds = 10;
  config.seed = 1801;
  config.num_threads = 1;
  config.model = ModelId::kShuffleNetV2;
  return config;
}

// Writes `engine`'s payload as a sync archive whose header (fingerprint and
// payload hash) is valid for `target`.
void WriteArchiveFor(const std::string& path, const SyncEngine& engine,
                     const SyncEngine& target) {
  CheckpointWriter payload;
  engine.SaveState(payload);
  CheckpointWriter w;
  w.U32(Checkpointer::kMagic);
  w.U32(Checkpointer::kVersion);
  w.U32(static_cast<uint32_t>(Checkpointer::EngineTag::kSync));
  w.U64(FingerprintConfig(target.config()));
  w.U64(ArchiveHash(payload.buffer()));
  w.Str(payload.buffer());
  ASSERT_TRUE(w.WriteFile(path));
}

TEST(RefusedRestoreTest, SyncPopulationMismatchIsRefused) {
  const std::string path = TempPath("refused_population.ckpt");
  const ExperimentConfig small = SmallSync(8);
  RandomSelector small_selector(small.seed);
  SyncEngine saved(small, &small_selector, nullptr);
  for (size_t round = 0; round < 3; ++round) {
    saved.RunRound(round);
  }
  const ExperimentConfig large = SmallSync(16);
  RandomSelector large_selector(large.seed);
  SyncEngine target(large, &large_selector, nullptr);

  // The config fingerprint refuses the plain archive up front...
  ASSERT_TRUE(Checkpointer::Save(path, saved));
  EXPECT_FALSE(Checkpointer::Restore(path, target));
  // ...and the payload's own population count refuses one whose header
  // matches the 16-client engine.
  WriteArchiveFor(path, saved, target);
  EXPECT_FALSE(Checkpointer::Restore(path, target));
  std::remove(path.c_str());
}

TEST(RefusedRestoreTest, PolicyLessArchiveIntoFloatEngineIsRefused) {
  const std::string path = TempPath("refused_policy.ckpt");
  const ExperimentConfig config = SmallSync(8);
  RandomSelector saved_selector(config.seed);
  SyncEngine saved(config, &saved_selector, nullptr);
  saved.RunRound(0);
  ASSERT_TRUE(Checkpointer::Save(path, saved));

  RandomSelector selector(config.seed);
  auto policy = FloatController::MakeDefault(config.seed, config.rounds);
  SyncEngine target(config, &selector, policy.get());
  EXPECT_FALSE(Checkpointer::Restore(path, target));
  std::remove(path.c_str());
}

TEST(RefusedRestoreTest, RealParameterCountMismatchIsRefused) {
  RealFlConfig config;
  config.num_clients = 6;
  config.clients_per_round = 3;
  config.hidden_dims = {8};
  config.test_samples_per_class = 5;
  config.num_threads = 1;
  RealFlEngine saved(config);
  saved.RunRound(TechniqueKind::kNone);
  CheckpointWriter w;
  saved.SaveState(w);

  config.hidden_dims = {12};
  RealFlEngine target(config);
  CheckpointReader r(w.buffer());
  target.LoadState(r);
  EXPECT_FALSE(r.ok());
}

TEST(RefusedRestoreTest, VflPartyCountMismatchIsRefused) {
  VflConfig config;
  config.train_samples = 60;
  config.test_samples = 30;
  VflEngine saved(config);
  CheckpointWriter w;
  saved.SaveState(w);

  config.num_parties = 4;
  VflEngine target(config);
  CheckpointReader r(w.buffer());
  target.LoadState(r);
  EXPECT_FALSE(r.ok());
}

TEST(RefusedRestoreTest, PerClientAgentCountMismatchIsRefused) {
  auto saved = PerClientController::MakeDefault(8, 1802, 10);
  CheckpointWriter w;
  saved->SaveState(w);

  auto target = PerClientController::MakeDefault(16, 1802, 10);
  CheckpointReader r(w.buffer());
  target->LoadState(r);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace floatfl
