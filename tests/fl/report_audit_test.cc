// Audit of the TuningPolicy::Report feedback contract (ISSUE 5 satellite):
// every selected client produces exactly one Report per round, with
// participated=false for *every* dropout reason — including the failure
// modes added since PR 2 (kCrashed, kCorrupted, kRejected,
// kTransferTimedOut) — and an always-finite accuracy credit. Without this,
// the agent would learn only from survivors and never feel defense-rejected
// rounds. The sequences are also pinned to be deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "src/failure/checkpoint_io.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/tuning_policy.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

struct ReportEvent {
  size_t client_id = 0;
  TechniqueKind technique = TechniqueKind::kNone;
  bool participated = false;

  bool operator==(const ReportEvent& other) const {
    return std::tie(client_id, technique, participated) ==
           std::tie(other.client_id, other.technique, other.participated);
  }
};

// Decides a fixed technique and records every Report verbatim.
class RecordingPolicy final : public TuningPolicy {
 public:
  explicit RecordingPolicy(TechniqueKind kind) : kind_(kind) {}

  TechniqueKind Decide(size_t, const ClientObservation&, const GlobalObservation&) override {
    ++decides_;
    return kind_;
  }

  void Report(size_t client_id, const ClientObservation&, const GlobalObservation&,
              TechniqueKind technique, bool participated, double credit) override {
    EXPECT_TRUE(std::isfinite(credit)) << "non-finite credit for client " << client_id;
    events_.push_back({client_id, technique, participated});
  }

  std::string Name() const override { return "recording"; }

  size_t Decides() const { return decides_; }
  const std::vector<ReportEvent>& events() const { return events_; }
  size_t FailedCount() const {
    size_t n = 0;
    for (const ReportEvent& e : events_) {
      n += e.participated ? 0 : 1;
    }
    return n;
  }

 private:
  TechniqueKind kind_;
  size_t decides_ = 0;
  std::vector<ReportEvent> events_;
};

// Every post-PR2 failure mode active at once: crashes, corruption with
// server-side validation, over-selection rejects, lossy-transport timeouts.
ExperimentConfig AllFailureModes() {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 8;
  config.rounds = 40;
  config.seed = 606;
  config.model = ModelId::kShuffleNetV2;
  // Rates balanced so each audited reason fires AND surviving completions
  // regularly exceed the needed cohort (over-selection kRejected needs
  // surplus finishers, so the other faults can't be too aggressive).
  config.faults.crash_prob = 0.1;
  config.faults.corrupt_prob = 0.1;
  config.faults.overcommit = 2.0;
  config.faults.chunk_loss_prob = 0.05;
  config.faults.link_blackout_prob = 0.02;
  config.faults.max_transfer_retries = 2;
  config.async_concurrency = 20;
  config.async_buffer = 6;
  return config;
}

TEST(ReportAuditTest, SyncEngineReportsEverySelectedClientWithItsOutcome) {
  const ExperimentConfig config = AllFailureModes();
  RandomSelector selector(config.seed);
  RecordingPolicy policy(TechniqueKind::kQuant8);
  SyncEngine engine(config, &selector, &policy);
  const ExperimentResult result = engine.Run();

  // Premise: every audited dropout reason actually occurred.
  EXPECT_GT(result.dropout_breakdown[DropoutReason::kCrashed], 0u);
  EXPECT_GT(result.dropout_breakdown[DropoutReason::kCorrupted], 0u);
  EXPECT_GT(result.dropout_breakdown[DropoutReason::kRejected], 0u);
  EXPECT_GT(result.dropout_breakdown[DropoutReason::kTransferTimedOut], 0u);

  // Exactly one Report per selected client; failures report participated =
  // false, so the dropout total is visible to the agent round by round.
  EXPECT_EQ(policy.events().size(), result.total_selected);
  EXPECT_EQ(policy.FailedCount(), result.total_dropouts);
  EXPECT_EQ(policy.events().size() - policy.FailedCount(), result.total_completed);
}

TEST(ReportAuditTest, SyncEngineReportSequenceIsDeterministic) {
  const ExperimentConfig config = AllFailureModes();
  std::vector<ReportEvent> reference;
  for (int run = 0; run < 2; ++run) {
    RandomSelector selector(config.seed);
    RecordingPolicy policy(TechniqueKind::kPrune50);
    SyncEngine engine(config, &selector, &policy);
    engine.Run();
    if (reference.empty()) {
      reference = policy.events();
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(policy.events(), reference);
    }
  }
}

TEST(ReportAuditTest, AsyncEngineReportsEveryFinishedFlightWithItsOutcome) {
  ExperimentConfig config = AllFailureModes();
  // Async FL has no round deadline: a transfer only times out by exhausting
  // its retry budget, so the link must be lossier than the sync config's.
  config.faults.chunk_loss_prob = 0.3;
  config.faults.max_transfer_retries = 1;
  RecordingPolicy policy(TechniqueKind::kQuant8);
  AsyncEngine engine(config, &policy);
  const ExperimentResult result = engine.Run();

  EXPECT_GT(result.dropout_breakdown[DropoutReason::kCrashed], 0u);
  EXPECT_GT(result.dropout_breakdown[DropoutReason::kTransferTimedOut], 0u);
  EXPECT_EQ(policy.events().size(), result.total_selected);
  EXPECT_EQ(policy.FailedCount(), result.total_dropouts);
  EXPECT_EQ(policy.events().size() - policy.FailedCount(), result.total_completed);
}

TEST(ReportAuditTest, RealEngineReportsDefenseRejectedClientsAsFailed) {
  RealFlConfig config;
  config.num_clients = 10;
  config.clients_per_round = 5;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 10;
  config.seed = 23;
  config.num_threads = 1;
  config.faults.crash_prob = 0.2;
  config.faults.corrupt_prob = 0.2;
  config.faults.chunk_loss_prob = 0.2;
  config.faults.link_blackout_prob = 0.1;
  config.faults.transport_chunk_mb = 0.01;
  config.faults.max_transfer_retries = 1;

  RecordingPolicy policy(TechniqueKind::kQuant8);
  RealFlEngine engine(config);
  engine.AttachPolicy(&policy);

  const size_t rounds = 12;
  size_t crashed = 0;
  size_t rejected = 0;
  size_t timed_out = 0;
  for (size_t r = 0; r < rounds; ++r) {
    const RealRoundStats stats = engine.RunRoundWithPolicy();
    crashed += stats.crashed;
    rejected += stats.rejected_updates;
    timed_out += stats.transfer_timeouts;
  }

  // Premise: crashes, quarantined updates and lost transfers all happened.
  EXPECT_GT(crashed, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(timed_out, 0u);

  // One Decide and one Report per selected client per round; every failure
  // mode — crash, server-side quarantine, exhausted transfer — reports
  // participated = false.
  EXPECT_EQ(policy.Decides(), rounds * config.clients_per_round);
  EXPECT_EQ(policy.events().size(), rounds * config.clients_per_round);
  EXPECT_EQ(policy.FailedCount(), crashed + rejected + timed_out);
}

TEST(ReportAuditTest, SyncEngineReportsSalvagedAndSpeculativeOutcomesAsFailed) {
  // Salvage semantics (DESIGN.md §16): a salvaged partial re-enters
  // aggregation, but its client is still a dropout to the policy — it gets
  // exactly one participated=false Report under its interruption reason.
  // Speculative outcomes likewise: a covered primary (kBackupCovered) and a
  // redundant loser (kBackupRedundant) each report once as failed, so the
  // one-report-per-selected-execution conservation survives the layer.
  ExperimentConfig config = AllFailureModes();
  config.rounds = 60;
  config.salvage.enabled = true;
  config.salvage.speculation = true;
  config.salvage.speculation_margin = 0.0;
  config.salvage.max_backup_fraction = 0.25;

  RandomSelector selector(config.seed);
  RecordingPolicy policy(TechniqueKind::kQuant8);
  SyncEngine engine(config, &selector, &policy);
  const ExperimentResult result = engine.Run();

  // Premise: partials were salvaged and speculation resolved races.
  EXPECT_GT(result.partials_salvaged, 0u);
  EXPECT_GT(result.dropout_breakdown[DropoutReason::kBackupCovered] +
                result.dropout_breakdown[DropoutReason::kBackupRedundant],
            0u);

  // Salvaged partials do not inflate completions, and every selected
  // execution — speculative backups included — reported exactly once.
  EXPECT_EQ(policy.events().size(), result.total_selected);
  EXPECT_EQ(policy.FailedCount(), result.total_dropouts);
  EXPECT_EQ(policy.events().size() - policy.FailedCount(), result.total_completed);
  EXPECT_EQ(result.dropout_breakdown.Total(), result.total_dropouts);
}

// One overload scenario per admission rejection reason (DESIGN.md §15).
// Each pairs a fault pattern with exactly the gate that catches it, so the
// audit can assert the targeted DropoutReason actually fired.
struct OverloadScenario {
  const char* name;
  FaultConfig faults;
  AdmissionConfig admission;
};

std::vector<OverloadScenario> OverloadScenarios() {
  std::vector<OverloadScenario> scenarios;

  // Duplicates fold (kDuplicate) and beyond-window replays are refused by
  // the age gate (kReplayed).
  OverloadScenario dedup;
  dedup.name = "dedup+replay";
  dedup.faults.duplicate_prob = 0.5;
  dedup.faults.replay_prob = 0.6;
  dedup.admission.dedup = true;
  dedup.admission.dedup_window_rounds = 2;
  dedup.admission.reject_replays = true;
  dedup.admission.max_update_age = 0;
  scenarios.push_back(dedup);

  // A stampede of duplicates against a tiny queue: arrivals shed (kShed).
  OverloadScenario shed;
  shed.name = "bounded-queue";
  shed.faults.duplicate_prob = 1.0;
  shed.faults.stampede_prob = 0.5;
  shed.faults.stampede_factor = 4;
  shed.admission.queue_capacity = 4;
  scenarios.push_back(shed);

  // Duplicates against a one-token bucket: the original spends the token,
  // the re-delivery is refused (kRateLimited).
  OverloadScenario rate;
  rate.name = "token-bucket";
  rate.faults.duplicate_prob = 1.0;
  rate.admission.rate_tokens_per_round = 1.0;
  rate.admission.rate_bucket_cap = 1.0;
  scenarios.push_back(rate);
  return scenarios;
}

// The scenario's targeted rejection counters out of a result's breakdown.
size_t TargetedRejections(const OverloadScenario& s, const DropoutBreakdown& b) {
  if (s.admission.dedup) {
    return b[DropoutReason::kDuplicate] + b[DropoutReason::kReplayed];
  }
  if (s.admission.queue_capacity > 0) {
    return b[DropoutReason::kShed];
  }
  return b[DropoutReason::kRateLimited];
}

TEST(ReportAuditTest, SyncEngineReportsEveryAdmissionRejection) {
  for (const OverloadScenario& scenario : OverloadScenarios()) {
    ExperimentConfig config;
    config.num_clients = 40;
    config.clients_per_round = 8;
    config.rounds = 30;
    config.seed = 808;
    config.model = ModelId::kShuffleNetV2;
    config.faults = scenario.faults;
    config.admission = scenario.admission;

    RandomSelector selector(config.seed);
    RecordingPolicy policy(TechniqueKind::kQuant8);
    SyncEngine engine(config, &selector, &policy);
    const ExperimentResult result = engine.Run();

    // Premise: the targeted rejection reason fired.
    EXPECT_GT(TargetedRejections(scenario, result.dropout_breakdown), 0u) << scenario.name;
    if (scenario.admission.dedup) {
      EXPECT_GT(result.dropout_breakdown[DropoutReason::kDuplicate], 0u) << scenario.name;
      EXPECT_GT(result.dropout_breakdown[DropoutReason::kReplayed], 0u) << scenario.name;
    }
    // Every rejection — original or redundant delivery — produced exactly
    // one participated=false Report, and nothing was double-reported.
    EXPECT_EQ(policy.events().size(), result.total_selected) << scenario.name;
    EXPECT_EQ(policy.FailedCount(), result.total_dropouts) << scenario.name;
    EXPECT_EQ(policy.events().size() - policy.FailedCount(), result.total_completed)
        << scenario.name;
  }
}

TEST(ReportAuditTest, AsyncEngineReportsEveryAdmissionRejection) {
  for (const OverloadScenario& scenario : OverloadScenarios()) {
    ExperimentConfig config;
    config.num_clients = 40;
    config.clients_per_round = 8;
    config.rounds = 30;
    config.seed = 808;
    config.model = ModelId::kShuffleNetV2;
    config.async_concurrency = 16;
    config.async_buffer = 4;
    config.faults = scenario.faults;
    config.admission = scenario.admission;

    RecordingPolicy policy(TechniqueKind::kQuant8);
    AsyncEngine engine(config, &policy);
    const ExperimentResult result = engine.Run();

    EXPECT_GT(TargetedRejections(scenario, result.dropout_breakdown), 0u) << scenario.name;
    EXPECT_EQ(policy.events().size(), result.total_selected) << scenario.name;
    EXPECT_EQ(policy.FailedCount(), result.total_dropouts) << scenario.name;
    EXPECT_EQ(policy.events().size() - policy.FailedCount(), result.total_completed)
        << scenario.name;
  }
}

TEST(ReportAuditTest, RealEngineReportsEveryAdmissionRejection) {
  for (const OverloadScenario& scenario : OverloadScenarios()) {
    RealFlConfig config;
    config.num_clients = 10;
    config.clients_per_round = 5;
    config.num_classes = 3;
    config.input_dim = 8;
    config.hidden_dims = {12};
    config.test_samples_per_class = 10;
    config.seed = 47;
    config.num_threads = 1;
    config.faults = scenario.faults;
    config.admission = scenario.admission;

    RecordingPolicy policy(TechniqueKind::kQuant8);
    RealFlEngine engine(config);
    engine.AttachPolicy(&policy);

    const size_t rounds = 10;
    size_t crashed = 0;
    size_t rejected = 0;
    size_t timed_out = 0;
    size_t admission_rejections = 0;
    for (size_t r = 0; r < rounds; ++r) {
      const RealRoundStats stats = engine.RunRoundWithPolicy();
      crashed += stats.crashed;
      rejected += stats.rejected_updates;
      timed_out += stats.transfer_timeouts;
      admission_rejections +=
          stats.deduplicated + stats.shed + stats.rate_limited + stats.replay_rejected;
    }

    // Premise: the gate actually rejected deliveries.
    EXPECT_GT(admission_rejections, 0u) << scenario.name;
    // One Decide per selected client per round; one participated=false
    // Report per failure of ANY kind, admission rejections included.
    EXPECT_EQ(policy.Decides(), rounds * config.clients_per_round) << scenario.name;
    EXPECT_EQ(policy.FailedCount(), crashed + rejected + timed_out + admission_rejections)
        << scenario.name;
  }
}

TEST(ReportAuditTest, RealEngineReportSequenceIsDeterministic) {
  RealFlConfig config;
  config.num_clients = 8;
  config.clients_per_round = 4;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 10;
  config.seed = 31;
  config.num_threads = 1;
  config.faults.crash_prob = 0.25;

  std::vector<ReportEvent> reference;
  for (int run = 0; run < 2; ++run) {
    RecordingPolicy policy(TechniqueKind::kPrune25);
    RealFlEngine engine(config);
    engine.AttachPolicy(&policy);
    for (size_t r = 0; r < 6; ++r) {
      engine.RunRoundWithPolicy();
    }
    if (reference.empty()) {
      reference = policy.events();
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(policy.events(), reference);
    }
  }
}

// The breakdown the conservation checks above rely on: every reason counts
// into its own slot, Total() sees each one, and the checkpoint block carries
// each slot in enum order.
TEST(DropoutBreakdownTest, EveryReasonRoundTripsThroughSaveLoadBitExactly) {
  DropoutBreakdown breakdown;
  size_t expected_total = 0;
  for (size_t raw = 1; raw < kNumDropoutReasons; ++raw) {
    // A distinct count per reason, so a swapped slot cannot go unnoticed.
    for (size_t n = 0; n < raw; ++n) {
      breakdown.Count(static_cast<DropoutReason>(raw));
    }
    expected_total += raw;
  }
  EXPECT_EQ(breakdown.Total(), expected_total);

  CheckpointWriter w;
  breakdown.SaveState(w);
  EXPECT_EQ(w.buffer().size(), (kNumDropoutReasons - 1) * sizeof(uint64_t));
  CheckpointReader r(w.buffer());
  DropoutBreakdown restored;
  restored.LoadState(r);
  EXPECT_TRUE(r.AtEnd());
  for (size_t raw = 0; raw < kNumDropoutReasons; ++raw) {
    const auto reason = static_cast<DropoutReason>(raw);
    EXPECT_EQ(restored[reason], breakdown[reason]) << raw;
    EXPECT_EQ(restored[reason], raw) << raw;
  }
  EXPECT_EQ(restored.Total(), expected_total);
  CheckpointWriter again;
  restored.SaveState(again);
  EXPECT_EQ(again.buffer(), w.buffer());
}

TEST(DropoutBreakdownTest, NoneNeverCounts) {
  DropoutBreakdown breakdown;
  breakdown.Count(DropoutReason::kNone);
  breakdown.Count(DropoutReason::kNone);
  EXPECT_EQ(breakdown[DropoutReason::kNone], 0u);
  EXPECT_EQ(breakdown.Total(), 0u);
  breakdown.Count(DropoutReason::kMissedDeadline);
  breakdown.Count(DropoutReason::kNone);
  EXPECT_EQ(breakdown[DropoutReason::kNone], 0u);
  EXPECT_EQ(breakdown[DropoutReason::kMissedDeadline], 1u);
  EXPECT_EQ(breakdown.Total(), 1u);
}

TEST(DropoutBreakdownTest, EachReasonCountsIntoItsOwnSlot) {
  for (size_t raw = 1; raw < kNumDropoutReasons; ++raw) {
    const auto counted = static_cast<DropoutReason>(raw);
    DropoutBreakdown breakdown;
    breakdown.Count(counted);
    EXPECT_EQ(breakdown.Total(), 1u) << raw;
    for (size_t other = 0; other < kNumDropoutReasons; ++other) {
      EXPECT_EQ(breakdown[static_cast<DropoutReason>(other)], other == raw ? 1u : 0u)
          << "counting reason " << raw << " touched slot " << other;
    }
  }
}

TEST(DropoutBreakdownTest, SpeculationReasonsAreNotDeadlineMissesOrRejections) {
  // A covered primary is not a missed deadline and a redundant backup is
  // not a rejection (DESIGN.md §16): each lands in its own slot.
  DropoutBreakdown breakdown;
  breakdown.Count(DropoutReason::kBackupCovered);
  breakdown.Count(DropoutReason::kBackupRedundant);
  EXPECT_EQ(breakdown[DropoutReason::kBackupCovered], 1u);
  EXPECT_EQ(breakdown[DropoutReason::kBackupRedundant], 1u);
  EXPECT_EQ(breakdown[DropoutReason::kMissedDeadline], 0u);
  EXPECT_EQ(breakdown[DropoutReason::kRejected], 0u);
  EXPECT_EQ(breakdown.Total(), 2u);
}

TEST(DropoutBreakdownTest, ShortBlockFailsTheReader) {
  // A breakdown block cut short (an archive from a layout with fewer
  // reasons) must flag the reader instead of loading zeros silently.
  DropoutBreakdown breakdown;
  breakdown.Count(DropoutReason::kCrashed);
  CheckpointWriter w;
  breakdown.SaveState(w);
  const std::string bytes = w.buffer();
  CheckpointReader r(bytes.substr(0, bytes.size() - sizeof(uint64_t)));
  DropoutBreakdown restored;
  restored.LoadState(r);
  EXPECT_FALSE(r.ok());
}

TEST(DropoutBreakdownDeathTest, OutOfRangeReasonAborts) {
  DropoutBreakdown breakdown;
  EXPECT_DEATH(breakdown.Count(static_cast<DropoutReason>(kNumDropoutReasons)),
               "outside kNumDropoutReasons");
}

}  // namespace
}  // namespace floatfl
