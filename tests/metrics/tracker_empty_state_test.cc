// Empty-state save/restore for the bookkeeping trackers (DESIGN.md §10,
// §14), mirroring tests/net/empty_state_test.cc: a tracker with nothing
// recorded must round-trip through SaveState/LoadState bit-exactly, and
// loading an empty snapshot over a dirty tracker must fully reset it — the
// degenerate "checkpoint taken before anything happened" case every
// freshly-constructed engine hits.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/failure/checkpoint_io.h"
#include "src/failure/checkpointer.h"
#include "src/fl/async_engine.h"
#include "src/fl/sync_engine.h"
#include "src/metrics/admission_tracker.h"
#include "src/metrics/guard_tracker.h"
#include "src/metrics/recovery_tracker.h"
#include "src/metrics/salvage_tracker.h"
#include "src/metrics/topology_tracker.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

TEST(TrackerEmptyStateTest, TopologyTrackerZeroEventsRoundTrips) {
  const TopologyTracker fresh;
  CheckpointWriter w;
  fresh.SaveState(w);

  TopologyTracker restored;
  restored.RecordEdgeCrash();  // dirty, then overwritten
  restored.RecordReparented(4);
  restored.RecordPartial(true, 2, 1.5, 0.5);
  CheckpointReader r(w.buffer());
  restored.LoadState(r);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());

  EXPECT_EQ(restored.EdgeCrashes(), 0u);
  EXPECT_EQ(restored.EdgeBlackouts(), 0u);
  EXPECT_EQ(restored.ReparentedClients(), 0u);
  EXPECT_EQ(restored.OrphanedClients(), 0u);
  EXPECT_EQ(restored.PartialsForwarded(), 0u);
  EXPECT_EQ(restored.PartialsLost(), 0u);
  EXPECT_EQ(restored.TamperedPartials(), 0u);
  EXPECT_EQ(restored.TamperedRejections(), 0u);
  EXPECT_EQ(restored.LatePartials(), 0u);
  EXPECT_EQ(restored.EdgeAggExclusions(), 0u);
  EXPECT_EQ(restored.EdgeTransferAttempts(), 0u);
  EXPECT_EQ(restored.Tier1WireMb(), 0.0);
  EXPECT_EQ(restored.Tier1RetransmittedMb(), 0.0);

  // Re-serialization is byte-identical: nothing drifted through the trip.
  CheckpointWriter w2;
  restored.SaveState(w2);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(TrackerEmptyStateTest, GuardTrackerZeroEventsRoundTrips) {
  const GuardTracker fresh;
  CheckpointWriter w;
  fresh.SaveState(w);

  GuardTracker restored;
  restored.RecordSnapshot();  // dirty, then overwritten
  restored.RecordRollback();
  restored.RecordSafeModeRound();
  CheckpointReader r(w.buffer());
  restored.LoadState(r);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());

  EXPECT_EQ(restored.Snapshots(), 0u);
  EXPECT_EQ(restored.NonFiniteTriggers(), 0u);
  EXPECT_EQ(restored.CollapseTriggers(), 0u);
  EXPECT_EQ(restored.StallTriggers(), 0u);
  EXPECT_EQ(restored.WatchdogTriggers(), 0u);
  EXPECT_EQ(restored.Rollbacks(), 0u);
  EXPECT_EQ(restored.MaskedActions(), 0u);
  EXPECT_EQ(restored.QuarantineOpenings(), 0u);
  EXPECT_EQ(restored.RejectedRewards(), 0u);
  EXPECT_EQ(restored.SafeModeRounds(), 0u);

  CheckpointWriter w2;
  restored.SaveState(w2);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(TrackerEmptyStateTest, RecoveryTrackerZeroEventsRoundTrips) {
  const RecoveryTracker fresh;
  CheckpointWriter w;
  fresh.SaveState(w);

  RecoveryTracker restored;
  restored.RecordRestart();  // dirty, then overwritten
  restored.RecordArchivesSkipped(2);
  restored.RecordRoundsReplayed(5);
  restored.RecordCheckpointWritten();
  restored.RecordCheckpointFailed();
  restored.RecordCheckpointsCollected(3);
  restored.RecordTempsSwept(1);
  CheckpointReader r(w.buffer());
  restored.LoadState(r);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());

  EXPECT_EQ(restored.Restarts(), 0u);
  EXPECT_EQ(restored.ArchivesSkipped(), 0u);
  EXPECT_EQ(restored.RoundsReplayed(), 0u);
  EXPECT_EQ(restored.CheckpointsWritten(), 0u);
  EXPECT_EQ(restored.CheckpointsFailed(), 0u);
  EXPECT_EQ(restored.CheckpointsCollected(), 0u);
  EXPECT_EQ(restored.TempsSwept(), 0u);

  CheckpointWriter w2;
  restored.SaveState(w2);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(TrackerEmptyStateTest, RecoveryTrackerAccumulatedStateRoundTrips) {
  // The non-empty direction: a tracker carrying totals from two process
  // lives survives the trip exactly (it rides inside engine checkpoints, so
  // this is what makes the counters cumulative across kills).
  RecoveryTracker source;
  source.RecordRestart();
  source.RecordRestart();
  source.RecordArchivesSkipped(1);
  source.RecordRoundsReplayed(7);
  source.RecordCheckpointWritten();
  source.RecordCheckpointsCollected(2);
  source.RecordTempsSwept(3);
  CheckpointWriter w;
  source.SaveState(w);

  RecoveryTracker restored;
  CheckpointReader r(w.buffer());
  restored.LoadState(r);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.Restarts(), 2u);
  EXPECT_EQ(restored.ArchivesSkipped(), 1u);
  EXPECT_EQ(restored.RoundsReplayed(), 7u);
  EXPECT_EQ(restored.CheckpointsWritten(), 1u);
  EXPECT_EQ(restored.CheckpointsFailed(), 0u);
  EXPECT_EQ(restored.CheckpointsCollected(), 2u);
  EXPECT_EQ(restored.TempsSwept(), 3u);

  CheckpointWriter w2;
  restored.SaveState(w2);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(TrackerEmptyStateTest, AdmissionTrackerZeroEventsRoundTrips) {
  const AdmissionTracker fresh;
  CheckpointWriter w;
  fresh.SaveState(w);

  AdmissionTracker restored;
  restored.RecordAdmitted(3);  // dirty, then overwritten
  restored.RecordDeduplicated();
  restored.RecordShed();
  restored.RecordRateLimited();
  restored.RecordReplayRejected();
  restored.RecordQueueDepth(7);
  CheckpointReader r(w.buffer());
  restored.LoadState(r);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());

  EXPECT_EQ(restored.Admitted(), 0u);
  EXPECT_EQ(restored.Deduplicated(), 0u);
  EXPECT_EQ(restored.Shed(), 0u);
  EXPECT_EQ(restored.RateLimited(), 0u);
  EXPECT_EQ(restored.ReplayRejected(), 0u);
  EXPECT_EQ(restored.PeakQueueDepth(), 0u);
  EXPECT_EQ(restored.TotalRejected(), 0u);

  CheckpointWriter w2;
  restored.SaveState(w2);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(TrackerEmptyStateTest, AdmissionTrackerAccumulatedStateRoundTrips) {
  AdmissionTracker source;
  source.RecordAdmitted(12);
  source.RecordDeduplicated();
  source.RecordDeduplicated();
  source.RecordShed();
  source.RecordRateLimited();
  source.RecordRateLimited();
  source.RecordRateLimited();
  source.RecordReplayRejected();
  source.RecordQueueDepth(9);
  source.RecordQueueDepth(4);  // peak sticks at the maximum seen
  CheckpointWriter w;
  source.SaveState(w);

  AdmissionTracker restored;
  CheckpointReader r(w.buffer());
  restored.LoadState(r);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.Admitted(), 12u);
  EXPECT_EQ(restored.Deduplicated(), 2u);
  EXPECT_EQ(restored.Shed(), 1u);
  EXPECT_EQ(restored.RateLimited(), 3u);
  EXPECT_EQ(restored.ReplayRejected(), 1u);
  EXPECT_EQ(restored.PeakQueueDepth(), 9u);
  EXPECT_EQ(restored.TotalRejected(), 7u);

  CheckpointWriter w2;
  restored.SaveState(w2);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(TrackerEmptyStateTest, SalvageTrackerZeroEventsRoundTrips) {
  const SalvageTracker fresh;
  CheckpointWriter w;
  fresh.SaveState(w);

  SalvageTracker restored;
  restored.RecordPartialSalvaged(12, 0.5, 1.25);  // dirty, then overwritten
  restored.RecordPartialBelowMin();
  restored.RecordPartialRejected();
  restored.RecordBackupsPlanned(3);
  restored.RecordBackupWin();
  restored.RecordBackupRedundant();
  restored.RecordDeadlineMissAverted();
  CheckpointReader r(w.buffer());
  restored.LoadState(r);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());

  EXPECT_EQ(restored.PartialsSalvaged(), 0u);
  EXPECT_EQ(restored.PartialsBelowMin(), 0u);
  EXPECT_EQ(restored.PartialsRejected(), 0u);
  EXPECT_EQ(restored.SalvagedSteps(), 0u);
  EXPECT_EQ(restored.SalvagedFractionSum(), 0.0);
  EXPECT_EQ(restored.SalvagedProgressMb(), 0.0);
  EXPECT_EQ(restored.BackupsPlanned(), 0u);
  EXPECT_EQ(restored.BackupsWon(), 0u);
  EXPECT_EQ(restored.BackupsRedundant(), 0u);
  EXPECT_EQ(restored.DeadlineMissesAverted(), 0u);

  CheckpointWriter w2;
  restored.SaveState(w2);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(TrackerEmptyStateTest, SalvageTrackerAccumulatedStateRoundTrips) {
  SalvageTracker source;
  source.RecordPartialSalvaged(9, 0.75, 0.0);
  source.RecordPartialSalvaged(4, 0.3125, 2.5);
  source.RecordPartialBelowMin();
  source.RecordPartialRejected();
  source.RecordPartialRejected();
  source.RecordBackupsPlanned(5);
  source.RecordBackupWin();
  source.RecordBackupWin();
  source.RecordBackupRedundant();
  source.RecordDeadlineMissAverted();
  CheckpointWriter w;
  source.SaveState(w);

  SalvageTracker restored;
  CheckpointReader r(w.buffer());
  restored.LoadState(r);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.PartialsSalvaged(), 2u);
  EXPECT_EQ(restored.PartialsBelowMin(), 1u);
  EXPECT_EQ(restored.PartialsRejected(), 2u);
  EXPECT_EQ(restored.SalvagedSteps(), 13u);
  EXPECT_EQ(restored.SalvagedFractionSum(), 0.75 + 0.3125);
  EXPECT_EQ(restored.SalvagedProgressMb(), 2.5);
  EXPECT_EQ(restored.BackupsPlanned(), 5u);
  EXPECT_EQ(restored.BackupsWon(), 2u);
  EXPECT_EQ(restored.BackupsRedundant(), 1u);
  EXPECT_EQ(restored.DeadlineMissesAverted(), 1u);

  CheckpointWriter w2;
  restored.SaveState(w2);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(TrackerEmptyStateTest, CheckpointFormatV10RefusesV9Archives) {
  // The shared dropout-breakdown block gave the async payload one more
  // counter, so the checkpoint format became v10 and a v9 archive (same
  // magic, older layout) must be refused instead of misparsed.
  ASSERT_EQ(Checkpointer::kVersion, 11u);
  const std::string path = testing::TempDir() + "/v9_refusal.ckpt";

  ExperimentConfig config;
  config.num_clients = 10;
  config.clients_per_round = 4;
  config.rounds = 6;
  config.seed = 3;
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  engine.RunRound(0);
  ASSERT_TRUE(Checkpointer::Save(path, engine));

  // The untouched archive restores fine.
  RandomSelector fresh_selector(config.seed);
  SyncEngine restored(config, &fresh_selector, nullptr);
  EXPECT_TRUE(Checkpointer::Restore(path, restored));

  // Patch the version word (bytes 4..7, after the magic) down to 9.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GE(bytes.size(), 8u);
  bytes[4] = 9;
  bytes[5] = 0;
  bytes[6] = 0;
  bytes[7] = 0;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  RandomSelector v9_selector(config.seed);
  SyncEngine v9_target(config, &v9_selector, nullptr);
  EXPECT_FALSE(Checkpointer::Restore(path, v9_target));
  std::remove(path.c_str());
}

// The async payload is the one whose layout changed in v10: its breakdown
// block grew the kEdgeOrphaned counter. The block follows four 8-byte words
// (now_s, version, last_accuracy_delta, rejected_updates), and kEdgeOrphaned
// is its ninth counter (kNone is not written).
constexpr size_t kAsyncEdgeOrphanedOffset = 4 * 8 + 8 * 8;

ExperimentConfig SmallAsyncConfig() {
  ExperimentConfig config;
  config.num_clients = 10;
  config.clients_per_round = 4;
  config.rounds = 6;
  config.seed = 3;
  config.faults.crash_prob = 0.2;
  return config;
}

// Writes a well-formed archive (correct magic, tag, fingerprint and payload
// hash) around `payload`, labelled with `version`.
void WriteAsyncArchive(const std::string& path, const AsyncEngine& engine, uint32_t version,
                       const std::string& payload) {
  CheckpointWriter w;
  w.U32(Checkpointer::kMagic);
  w.U32(version);
  w.U32(static_cast<uint32_t>(Checkpointer::EngineTag::kAsync));
  w.U64(FingerprintConfig(engine.config()));
  w.U64(ArchiveHash(payload));
  w.Str(payload);
  ASSERT_TRUE(w.WriteFile(path));
}

TEST(TrackerEmptyStateTest, AsyncCheckpointV10RefusesV9Archives) {
  ASSERT_EQ(Checkpointer::kVersion, 11u);
  const std::string path = testing::TempDir() + "/async_v9_refusal.ckpt";
  const ExperimentConfig config = SmallAsyncConfig();
  AsyncEngine engine(config, nullptr);
  engine.RunUntil(2);
  CheckpointWriter payload;
  engine.SaveState(payload);

  // The same payload restores under the current version...
  WriteAsyncArchive(path, engine, Checkpointer::kVersion, payload.buffer());
  AsyncEngine restored(config, nullptr);
  EXPECT_TRUE(Checkpointer::Restore(path, restored));

  // ...and is refused when labelled v9.
  WriteAsyncArchive(path, engine, 9, payload.buffer());
  AsyncEngine v9_target(config, nullptr);
  EXPECT_FALSE(Checkpointer::Restore(path, v9_target));
  std::remove(path.c_str());
}

// v11 changed the header hash to ArchiveHash and bounded the reward
// window, so an archive labelled v10 is refused even when everything else
// about it (magic, tag, fingerprint, payload hash) is valid today.
TEST(TrackerEmptyStateTest, CheckpointFormatV11RefusesV10Archives) {
  ASSERT_EQ(Checkpointer::kVersion, 11u);
  const std::string path = testing::TempDir() + "/async_v10_refusal.ckpt";
  const ExperimentConfig config = SmallAsyncConfig();
  AsyncEngine engine(config, nullptr);
  engine.RunUntil(2);
  CheckpointWriter payload;
  engine.SaveState(payload);

  WriteAsyncArchive(path, engine, Checkpointer::kVersion, payload.buffer());
  AsyncEngine restored(config, nullptr);
  EXPECT_TRUE(Checkpointer::Restore(path, restored));

  WriteAsyncArchive(path, engine, 10, payload.buffer());
  AsyncEngine v10_target(config, nullptr);
  EXPECT_FALSE(Checkpointer::Restore(path, v10_target));
  std::remove(path.c_str());
}

TEST(TrackerEmptyStateTest, AsyncV9LayoutIsRefusedUnderEitherVersion) {
  const std::string path = testing::TempDir() + "/async_v9_layout.ckpt";
  const ExperimentConfig config = SmallAsyncConfig();
  AsyncEngine engine(config, nullptr);
  engine.RunUntil(2);
  CheckpointWriter payload;
  engine.SaveState(payload);

  // Async has no edge tier, so its kEdgeOrphaned counter is always zero.
  // Cutting it out rebuilds the v9 layout exactly.
  std::string v9_payload = payload.buffer();
  ASSERT_GE(v9_payload.size(), kAsyncEdgeOrphanedOffset + 8);
  EXPECT_EQ(v9_payload.substr(kAsyncEdgeOrphanedOffset, 8), std::string(8, '\0'));
  v9_payload.erase(kAsyncEdgeOrphanedOffset, 8);

  // Labelled v9, the version check refuses it; relabelled v10 (hash still
  // valid), the payload is one counter short and must not load either.
  for (const uint32_t version : {9u, Checkpointer::kVersion}) {
    WriteAsyncArchive(path, engine, version, v9_payload);
    AsyncEngine target(config, nullptr);
    EXPECT_FALSE(Checkpointer::Restore(path, target)) << "labelled v" << version;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace floatfl
