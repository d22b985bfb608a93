// Acceptance scenario (ISSUE PR 4): resumable uploads must pay off.
//
// At 10 % chunk loss, flipping faults.resumable_uploads from restart-from-
// scratch to resumable must STRICTLY reduce both (a) the clients lost to the
// deadline — missed_deadline + transfer_timed_out dropouts — and (b) the
// total retransmitted MB. This is the end-to-end justification for the
// salvage logic: fewer wasted bytes AND more clients inside the round.
#include <gtest/gtest.h>

#include "src/fl/sync_engine.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

ExperimentResult RunLossy(bool resumable_uploads) {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 10;
  config.rounds = 40;
  config.seed = 4242;
  config.model = ModelId::kResNet34;  // chunky payloads: salvage matters
  config.interference = InterferenceScenario::kDynamic;
  config.faults.chunk_loss_prob = 0.10;
  config.faults.resumable_uploads = resumable_uploads;
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  return engine.Run();
}

TEST(LossyScenarioTest, ResumableUploadsStrictlyReduceDropoutsAndWaste) {
  const ExperimentResult resumable = RunLossy(true);
  const ExperimentResult restart = RunLossy(false);

  // The scenario must actually bite in both arms.
  EXPECT_GT(restart.transfer_attempts, 0u);
  EXPECT_GT(resumable.transfer_attempts, 0u);
  EXPECT_GT(restart.retransmitted_mb, 0.0);

  const size_t resumable_deadline_losses =
      resumable.dropout_breakdown[DropoutReason::kMissedDeadline] +
      resumable.dropout_breakdown[DropoutReason::kTransferTimedOut];
  const size_t restart_deadline_losses =
      restart.dropout_breakdown[DropoutReason::kMissedDeadline] +
      restart.dropout_breakdown[DropoutReason::kTransferTimedOut];
  EXPECT_LT(resumable_deadline_losses, restart_deadline_losses);
  EXPECT_LT(resumable.retransmitted_mb, restart.retransmitted_mb);
  // And the flip side of fewer dropouts: more completed client-rounds.
  EXPECT_GE(resumable.total_completed, restart.total_completed);
}

}  // namespace
}  // namespace floatfl
