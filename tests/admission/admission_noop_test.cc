// Strict no-op guarantee (DESIGN.md §15): a disabled AdmissionConfig — the
// default, and equally a disabled config with every passive knob cranked —
// must leave the engines byte-identical: same results, same serialized
// state, all admission counters zero. The async staleness bound's pinned
// default (10, the old hardcoded kMaxStaleness) is part of the guarantee:
// leaving it unset and setting it to 10 explicitly are the same experiment.
#include <gtest/gtest.h>

#include "src/failure/checkpoint_io.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/tuning_policy.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

// A disabled admission layer with every passive knob away from its default:
// if any code path consults a knob without checking enabled() first, this
// diverges. async_max_staleness stays at its pinned default — it is live
// even when the layer is off.
AdmissionConfig DisarmedButTweaked() {
  AdmissionConfig admission;
  admission.shed_policy = SheddingPolicy::kUtilityPriority;
  admission.dedup_window_rounds = 17;
  admission.max_update_age = 5;
  admission.rate_bucket_cap = 12.0;
  admission.staleness_decay = 1.75;
  EXPECT_FALSE(admission.enabled());
  return admission;
}

ExperimentConfig SmallExperiment() {
  ExperimentConfig config;
  config.num_clients = 30;
  config.clients_per_round = 6;
  config.rounds = 20;
  config.seed = 77;
  config.model = ModelId::kShuffleNetV2;
  config.faults.crash_prob = 0.1;  // exercise dropout paths alongside
  config.async_concurrency = 12;
  config.async_buffer = 4;
  return config;
}

void ExpectZeroAdmissionCounters(const ExperimentResult& r) {
  EXPECT_EQ(r.admission_admitted, 0u);
  EXPECT_EQ(r.admission_deduplicated, 0u);
  EXPECT_EQ(r.admission_shed, 0u);
  EXPECT_EQ(r.admission_rate_limited, 0u);
  EXPECT_EQ(r.admission_replay_rejected, 0u);
  EXPECT_EQ(r.admission_peak_queue_depth, 0u);
  EXPECT_EQ(r.redundant_mb, 0.0);
  EXPECT_EQ(r.dropout_breakdown[DropoutReason::kShed], 0u);
  EXPECT_EQ(r.dropout_breakdown[DropoutReason::kDuplicate], 0u);
  EXPECT_EQ(r.dropout_breakdown[DropoutReason::kReplayed], 0u);
  EXPECT_EQ(r.dropout_breakdown[DropoutReason::kRateLimited], 0u);
}

TEST(AdmissionNoOpTest, SyncEngineDisabledAdmissionIsByteIdentical) {
  const ExperimentConfig plain = SmallExperiment();
  ExperimentConfig tweaked = plain;
  tweaked.admission = DisarmedButTweaked();

  RandomSelector sel_a(plain.seed);
  StaticPolicy pol_a(TechniqueKind::kQuant8);
  SyncEngine a(plain, &sel_a, &pol_a);
  const ExperimentResult ra = a.Run();

  RandomSelector sel_b(tweaked.seed);
  StaticPolicy pol_b(TechniqueKind::kQuant8);
  SyncEngine b(tweaked, &sel_b, &pol_b);
  const ExperimentResult rb = b.Run();

  EXPECT_EQ(ra.accuracy_history, rb.accuracy_history);
  EXPECT_EQ(ra.global_accuracy, rb.global_accuracy);
  EXPECT_EQ(ra.total_completed, rb.total_completed);
  EXPECT_EQ(ra.wall_clock_hours, rb.wall_clock_hours);
  ExpectZeroAdmissionCounters(ra);
  ExpectZeroAdmissionCounters(rb);

  CheckpointWriter wa;
  a.SaveState(wa);
  CheckpointWriter wb;
  b.SaveState(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

TEST(AdmissionNoOpTest, AsyncEngineDisabledAdmissionIsByteIdentical) {
  const ExperimentConfig plain = SmallExperiment();
  ExperimentConfig tweaked = plain;
  tweaked.admission = DisarmedButTweaked();

  StaticPolicy pol_a(TechniqueKind::kPrune50);
  AsyncEngine a(plain, &pol_a);
  const ExperimentResult ra = a.Run();

  StaticPolicy pol_b(TechniqueKind::kPrune50);
  AsyncEngine b(tweaked, &pol_b);
  const ExperimentResult rb = b.Run();

  EXPECT_EQ(ra.accuracy_history, rb.accuracy_history);
  EXPECT_EQ(ra.global_accuracy, rb.global_accuracy);
  EXPECT_EQ(ra.total_completed, rb.total_completed);
  ExpectZeroAdmissionCounters(ra);
  ExpectZeroAdmissionCounters(rb);

  CheckpointWriter wa;
  a.SaveState(wa);
  CheckpointWriter wb;
  b.SaveState(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

TEST(AdmissionNoOpTest, AsyncStalenessBoundPinnedDefaultIsByteIdentical) {
  // Satellite of the kMaxStaleness promotion: an experiment that never sets
  // async_max_staleness and one that sets it to the old constant's value
  // explicitly are the same experiment, byte for byte.
  const ExperimentConfig plain = SmallExperiment();
  ExperimentConfig pinned = plain;
  pinned.admission.async_max_staleness = 10.0;

  StaticPolicy pol_a(TechniqueKind::kQuant8);
  AsyncEngine a(plain, &pol_a);
  const ExperimentResult ra = a.Run();

  StaticPolicy pol_b(TechniqueKind::kQuant8);
  AsyncEngine b(pinned, &pol_b);
  const ExperimentResult rb = b.Run();

  EXPECT_EQ(ra.accuracy_history, rb.accuracy_history);
  EXPECT_EQ(ra.global_accuracy, rb.global_accuracy);

  CheckpointWriter wa;
  a.SaveState(wa);
  CheckpointWriter wb;
  b.SaveState(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

TEST(AdmissionNoOpTest, AsyncStalenessBoundIsLiveEvenWithTheLayerOff) {
  // Tightening the bound must change behavior without flipping enabled():
  // it replaces the old engine constant, not an admission gate.
  const ExperimentConfig plain = SmallExperiment();
  ExperimentConfig tight = plain;
  tight.admission.async_max_staleness = 0.0;
  EXPECT_FALSE(tight.admission.enabled());

  StaticPolicy pol_a(TechniqueKind::kQuant8);
  AsyncEngine a(plain, &pol_a);
  const ExperimentResult ra = a.Run();

  StaticPolicy pol_b(TechniqueKind::kQuant8);
  AsyncEngine b(tight, &pol_b);
  const ExperimentResult rb = b.Run();

  // With a zero bound every stale retirement is discarded as missed-deadline.
  EXPECT_GT(rb.dropout_breakdown[DropoutReason::kMissedDeadline],
            ra.dropout_breakdown[DropoutReason::kMissedDeadline]);
}

TEST(AdmissionNoOpTest, RealEngineDisabledAdmissionIsByteIdentical) {
  RealFlConfig plain;
  plain.num_clients = 8;
  plain.clients_per_round = 4;
  plain.num_classes = 3;
  plain.input_dim = 8;
  plain.hidden_dims = {12};
  plain.test_samples_per_class = 10;
  plain.seed = 5;
  plain.num_threads = 1;
  plain.faults.crash_prob = 0.2;
  RealFlConfig tweaked = plain;
  tweaked.admission = DisarmedButTweaked();

  RealFlEngine a(plain);
  RealFlEngine b(tweaked);
  RealRoundStats sa;
  RealRoundStats sb;
  for (size_t r = 0; r < 5; ++r) {
    sa = a.RunRound(TechniqueKind::kQuant8);
    sb = b.RunRound(TechniqueKind::kQuant8);
  }
  EXPECT_EQ(a.global_model().GetParameters(), b.global_model().GetParameters());
  EXPECT_EQ(sa.test_accuracy, sb.test_accuracy);
  for (const RealRoundStats* s : {&sa, &sb}) {
    EXPECT_EQ(s->admitted, 0u);
    EXPECT_EQ(s->deduplicated, 0u);
    EXPECT_EQ(s->shed, 0u);
    EXPECT_EQ(s->rate_limited, 0u);
    EXPECT_EQ(s->replay_rejected, 0u);
    EXPECT_EQ(s->peak_queue_depth, 0u);
    EXPECT_EQ(s->redundant_upload_mb, 0.0);
  }

  CheckpointWriter wa;
  a.SaveState(wa);
  CheckpointWriter wb;
  b.SaveState(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

}  // namespace
}  // namespace floatfl
