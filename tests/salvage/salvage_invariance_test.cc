// Thread-count invariance with salvage and speculation armed (DESIGN.md
// §16): interruption points are (round, client)-keyed pure draws, backup
// planning is an RNG-free ring scan in the sequential phase, and partials
// re-enter aggregation in selection order from index-ordered buffers — so
// the same experiment at 1, 2 and 8 threads must produce bit-identical
// results and byte-identical serialized state.
#include <gtest/gtest.h>

#include <string>

#include "src/failure/checkpoint_io.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/tuning_policy.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

// Salvage + speculation + every interruption source they react to.
ExperimentConfig SalvagingExperiment(size_t num_threads) {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 10;
  config.rounds = 30;
  config.seed = 1616;
  config.model = ModelId::kShuffleNetV2;
  config.num_threads = num_threads;
  config.interference = InterferenceScenario::kDynamic;
  config.faults.crash_prob = 0.2;
  config.faults.chunk_loss_prob = 0.1;
  config.faults.max_transfer_retries = 1;
  config.salvage.enabled = true;
  config.salvage.speculation = true;
  config.salvage.speculation_margin = 0.0;
  config.salvage.max_backup_fraction = 0.25;
  return config;
}

TEST(SalvageInvarianceTest, SyncEngineIsThreadCountInvariantWithSalvageArmed) {
  ExperimentResult reference;
  std::string reference_state;
  for (const size_t threads : {1u, 2u, 8u}) {
    RandomSelector selector(1616);
    StaticPolicy policy(TechniqueKind::kQuant8);
    SyncEngine engine(SalvagingExperiment(threads), &selector, &policy);
    const ExperimentResult result = engine.Run();
    CheckpointWriter w;
    engine.SaveState(w);
    if (threads == 1) {
      reference = result;
      reference_state = w.buffer();
      // The run must exercise the paths it claims to cover.
      EXPECT_GT(result.partials_salvaged, 0u);
      EXPECT_GT(result.backups_planned, 0u);
      continue;
    }
    EXPECT_EQ(result.accuracy_history, reference.accuracy_history) << threads << " threads";
    EXPECT_EQ(result.global_accuracy, reference.global_accuracy);
    EXPECT_EQ(result.total_selected, reference.total_selected);
    EXPECT_EQ(result.total_completed, reference.total_completed);
    EXPECT_EQ(result.wall_clock_hours, reference.wall_clock_hours);
    EXPECT_EQ(result.partials_salvaged, reference.partials_salvaged);
    EXPECT_EQ(result.partials_below_min, reference.partials_below_min);
    EXPECT_EQ(result.salvaged_steps, reference.salvaged_steps);
    EXPECT_EQ(result.salvaged_progress_mb, reference.salvaged_progress_mb);
    EXPECT_EQ(result.backups_planned, reference.backups_planned);
    EXPECT_EQ(result.backups_won, reference.backups_won);
    EXPECT_EQ(result.backups_redundant, reference.backups_redundant);
    EXPECT_EQ(result.deadline_misses_averted, reference.deadline_misses_averted);
    EXPECT_EQ(result.dropout_breakdown[DropoutReason::kBackupCovered],
              reference.dropout_breakdown[DropoutReason::kBackupCovered]);
    EXPECT_EQ(result.dropout_breakdown[DropoutReason::kBackupRedundant],
              reference.dropout_breakdown[DropoutReason::kBackupRedundant]);
    EXPECT_EQ(w.buffer(), reference_state) << threads << " threads";
  }
}

TEST(SalvageInvarianceTest, RealEngineIsThreadCountInvariantWithSalvageArmed) {
  std::string reference_params;
  std::string reference_state;
  for (const size_t threads : {1u, 2u, 8u}) {
    RealFlConfig config;
    config.num_clients = 10;
    config.clients_per_round = 5;
    config.num_classes = 3;
    config.input_dim = 8;
    config.hidden_dims = {12};
    config.test_samples_per_class = 10;
    config.seed = 17;
    config.num_threads = threads;
    config.sgd.epochs = 2;
    config.faults.crash_prob = 0.3;
    config.faults.chunk_loss_prob = 0.2;
    config.faults.transport_chunk_mb = 0.01;
    config.faults.max_transfer_retries = 1;
    config.salvage.enabled = true;

    RealFlEngine engine(config);
    size_t salvaged = 0;
    for (size_t r = 0; r < 8; ++r) {
      salvaged += engine.RunRound(TechniqueKind::kNone).partials_salvaged;
    }
    CheckpointWriter w;
    engine.SaveState(w);
    std::string params;
    for (float p : engine.global_model().GetParameters()) {
      params.append(reinterpret_cast<const char*>(&p), sizeof(p));
    }
    if (threads == 1) {
      EXPECT_GT(salvaged, 0u);  // partial SGD training actually happened
      reference_params = params;
      reference_state = w.buffer();
      continue;
    }
    EXPECT_EQ(params, reference_params) << threads << " threads";
    EXPECT_EQ(w.buffer(), reference_state) << threads << " threads";
  }
}

}  // namespace
}  // namespace floatfl
