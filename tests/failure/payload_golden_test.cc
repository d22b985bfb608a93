// Payload goldens for every serialized component (DESIGN.md §8): each engine
// is armed with the subsystems it checkpoints, run single-threaded with a
// pinned seed to mid-run, and an FNV-1a 64 of its SaveState buffer is pinned
// to the value the engines produced when this file was written. One buffer
// per selector kind and per policy kind is pinned the same way, after the
// component has been driven for a few rounds. Each engine payload must also
// survive save -> LoadState into a freshly built engine -> save unchanged.
// The resume tests only compare runs against each other; these catch a
// change that moves the byte layout (field order, width, a missed field) of
// every run the same way.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/float_controller.h"
#include "src/core/heuristic_policy.h"
#include "src/core/per_client_controller.h"
#include "src/failure/checkpoint_io.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/vfl_engine.h"
#include "src/selection/oort_selector.h"
#include "src/selection/random_selector.h"
#include "src/selection/refl_selector.h"

namespace floatfl {
namespace {

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

template <typename Saver>
std::string Payload(const Saver& saver) {
  CheckpointWriter w;
  saver.SaveState(w);
  return w.buffer();
}

// Loads `payload` into `fresh` and expects it consumed exactly and saved
// back byte for byte.
template <typename Engine>
void ExpectRoundTrip(const std::string& payload, Engine& fresh) {
  CheckpointReader r(payload);
  fresh.LoadState(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(Payload(fresh), payload);
}

// floatbench's speech_chaos_durable knobs at a test-sized population, plus
// the adaptive root and edge deadlines.
ExperimentConfig ChaosSync() {
  ExperimentConfig config;
  config.dataset = DatasetId::kSpeech;
  config.model = ModelId::kSpeechCnn;
  config.num_clients = 60;
  config.clients_per_round = 12;
  config.rounds = 60;
  config.seed = 1701;
  config.num_threads = 1;
  config.faults.crash_prob = 0.15;
  config.faults.corrupt_prob = 0.1;
  config.faults.flaky_fraction = 0.2;
  config.faults.flaky_enter_prob = 0.2;
  config.faults.flaky_exit_prob = 0.3;
  config.faults.flaky_crash_prob = 0.3;
  config.faults.overcommit = 1.5;
  config.faults.retry_cooldown_rounds = 2;
  config.faults.byzantine_mode = ByzantineMode::kScaledReplacement;
  config.faults.byzantine_fraction = 0.15;
  config.aggregator.kind = AggregatorKind::kTrimmedMean;
  config.faults.chunk_loss_prob = 0.1;
  config.faults.link_blackout_prob = 0.05;
  config.faults.max_transfer_retries = 2;
  config.faults.duplicate_prob = 0.2;
  config.faults.replay_prob = 0.2;
  config.faults.stampede_prob = 0.2;
  config.admission.dedup = true;
  config.admission.dedup_window_rounds = 4;
  config.admission.reject_replays = true;
  config.admission.rate_tokens_per_round = 4.0;
  config.admission.rate_bucket_cap = 8.0;
  config.admission.queue_capacity = 24;
  config.guard.enabled = true;
  config.salvage.enabled = true;
  config.salvage.speculation = true;
  config.salvage.speculation_margin = 0.0;
  config.salvage.max_backup_fraction = 0.25;
  config.topology.num_edges = 4;
  config.topology.edge_crash_prob = 0.1;
  config.topology.edge_blackout_prob = 0.05;
  config.topology.edge_retry_cooldown_rounds = 2;
  config.topology.edge_link_loss_prob = 0.05;
  config.adaptive_deadline.enabled = true;
  config.topology.edge_adaptive_deadline.enabled = true;
  return config;
}

TEST(PayloadGoldenTest, SyncChaos) {
  const ExperimentConfig config = ChaosSync();
  RandomSelector selector(config.seed);
  auto policy = FloatController::MakeDefault(config.seed, config.rounds);
  SyncEngine engine(config, &selector, policy.get());
  for (size_t round = 0; round < config.rounds / 2; ++round) {
    engine.RunRound(round);
  }
  // Every armed subsystem has state in flight at the save.
  const ExperimentResult mid = engine.Snapshot();
  EXPECT_GT(mid.guard_snapshots, 0u);
  EXPECT_GT(mid.edge_crashes, 0u);
  EXPECT_GT(mid.admission_deduplicated, 0u);
  EXPECT_GT(mid.partials_salvaged, 0u);
  EXPECT_GT(mid.backups_planned, 0u);
  EXPECT_GT(mid.retransmitted_mb, 0.0);
  const std::string payload = Payload(engine);
  EXPECT_EQ(Fnv1a64(payload), 0x910EB1F5E5F8230CULL);

  RandomSelector fresh_selector(config.seed);
  auto fresh_policy = FloatController::MakeDefault(config.seed, config.rounds);
  SyncEngine fresh(config, &fresh_selector, fresh_policy.get());
  ExpectRoundTrip(payload, fresh);
}

// Engine state does not grow with run length: the chaos sync payload (seed
// 1, 1,000 rounds) at round 1000 stays within 10 % of its size at round 200.
// An append-only history in any component breaks this.
TEST(PayloadGoldenTest, SyncChaosPayloadStaysFlat) {
  ExperimentConfig config = ChaosSync();
  config.seed = 1;
  config.rounds = 1000;
  RandomSelector selector(config.seed);
  auto policy = FloatController::MakeDefault(config.seed, config.rounds);
  SyncEngine engine(config, &selector, policy.get());
  size_t at_200 = 0;
  for (size_t round = 0; round < config.rounds; ++round) {
    engine.RunRound(round);
    if (round + 1 == 200) {
      at_200 = Payload(engine).size();
    }
  }
  const size_t at_1000 = Payload(engine).size();
  EXPECT_GT(engine.Snapshot().guard_snapshots, 0u);
  EXPECT_LE(at_1000, at_200 + at_200 / 10) << "round 200: " << at_200 << " B";
}

TEST(PayloadGoldenTest, AsyncFedBuffStorm) {
  ExperimentConfig config;
  config.num_clients = 50;
  config.clients_per_round = 10;
  config.rounds = 40;
  config.seed = 1702;
  config.num_threads = 1;
  config.model = ModelId::kShuffleNetV2;
  config.async_concurrency = 16;
  config.async_buffer = 4;
  config.faults.crash_prob = 0.2;
  config.faults.byzantine_mode = ByzantineMode::kScaledReplacement;
  config.faults.byzantine_fraction = 0.2;
  config.faults.byzantine_start_round = 3;
  config.faults.chunk_loss_prob = 0.1;
  config.faults.link_blackout_prob = 0.05;
  config.faults.max_transfer_retries = 1;
  config.faults.duplicate_prob = 0.3;
  config.faults.replay_prob = 0.5;
  config.faults.reorder_prob = 0.4;
  config.faults.stampede_prob = 0.3;
  config.faults.stampede_factor = 4;
  config.admission.dedup = true;
  config.admission.dedup_window_rounds = 1;
  config.admission.reject_replays = true;
  config.admission.max_update_age = 6;
  config.admission.rate_tokens_per_round = 0.6;
  config.admission.rate_bucket_cap = 2.0;
  config.admission.queue_capacity = 2;
  config.admission.staleness_downweight = true;
  config.guard.enabled = true;
  config.guard.collapse_threshold = 0.02;
  config.guard.quarantine_min_trials = 5;
  config.guard.quarantine_failure_rate = 0.15;
  config.salvage.enabled = true;
  auto policy = FloatController::MakeDefault(config.seed, config.rounds);
  AsyncEngine engine(config, policy.get());
  engine.RunUntil(config.rounds / 2);
  const ExperimentResult mid = engine.Snapshot();
  EXPECT_GT(mid.guard_snapshots, 0u);
  EXPECT_GT(mid.admission_deduplicated, 0u);
  EXPECT_GT(mid.admission_replay_rejected, 0u);
  EXPECT_GT(mid.partials_salvaged, 0u);
  EXPECT_GT(mid.retransmitted_mb, 0.0);
  const std::string payload = Payload(engine);
  EXPECT_EQ(Fnv1a64(payload), 0x9F3F8D578CCF8649ULL);

  auto fresh_policy = FloatController::MakeDefault(config.seed, config.rounds);
  AsyncEngine fresh(config, fresh_policy.get());
  ExpectRoundTrip(payload, fresh);
}

RealFlConfig TreeReal() {
  RealFlConfig config;
  config.num_clients = 16;
  config.clients_per_round = 8;
  config.num_classes = 4;
  config.input_dim = 8;
  config.hidden_dims = {10};
  config.test_samples_per_class = 10;
  config.seed = 1703;
  config.num_threads = 1;
  config.faults.crash_prob = 0.15;
  config.faults.chunk_loss_prob = 0.15;
  config.faults.transport_chunk_mb = 0.01;
  config.faults.max_transfer_retries = 1;
  config.aggregator.kind = AggregatorKind::kTrimmedMean;
  config.guard.enabled = true;
  config.salvage.enabled = true;
  config.topology.num_edges = 4;
  config.topology.edge_crash_prob = 0.1;
  config.topology.edge_retry_cooldown_rounds = 2;
  config.topology.edge_link_loss_prob = 0.05;
  return config;
}

TEST(PayloadGoldenTest, RealTree) {
  const RealFlConfig config = TreeReal();
  auto policy = FloatController::MakeDefault(config.seed, 12);
  RealFlEngine engine(config);
  engine.AttachPolicy(policy.get());
  size_t reparented = 0;
  size_t salvaged = 0;
  double retransmitted_mb = 0.0;
  for (size_t round = 0; round < 6; ++round) {
    const RealRoundStats stats = engine.RunRoundWithPolicy();
    reparented += stats.reparented;
    salvaged += stats.partials_salvaged;
    retransmitted_mb += stats.retransmitted_mb;
  }
  EXPECT_GT(reparented, 0u);
  EXPECT_GT(salvaged, 0u);
  EXPECT_GT(retransmitted_mb, 0.0);
  EXPECT_GT(engine.guard().tracker().Snapshots(), 0u);
  const std::string payload = Payload(engine);
  EXPECT_EQ(Fnv1a64(payload), 0x6C32047BB6383F88ULL);

  auto fresh_policy = FloatController::MakeDefault(config.seed, 12);
  RealFlEngine fresh(config);
  fresh.AttachPolicy(fresh_policy.get());
  ExpectRoundTrip(payload, fresh);
}

TEST(PayloadGoldenTest, VflGuardedTransport) {
  VflConfig config;
  config.num_parties = 3;
  config.train_samples = 120;
  config.test_samples = 60;
  config.seed = 1704;
  config.faults.crash_prob = 0.1;
  config.faults.chunk_loss_prob = 0.2;
  config.faults.transport_chunk_mb = 0.001;
  config.faults.max_transfer_retries = 1;
  config.guard.enabled = true;
  config.guard.quarantine_min_trials = 2;
  config.guard.quarantine_failure_rate = 0.1;
  VflEngine engine(config);
  for (size_t epoch = 0; epoch < 5; ++epoch) {
    engine.TrainEpoch(epoch % 2 == 0 ? TechniqueKind::kQuant8 : TechniqueKind::kNone);
  }
  EXPECT_GT(engine.guard().tracker().Snapshots(), 0u);
  EXPECT_GT(engine.transport_tracker().TotalRetransmittedMb(), 0.0);
  const std::string payload = Payload(engine);
  EXPECT_EQ(Fnv1a64(payload), 0xA9817DA0367C4FA7ULL);

  VflEngine fresh(config);
  ExpectRoundTrip(payload, fresh);
}

// A small sync run that drives a selector and a policy for a few rounds.
ExperimentConfig SmallSync() {
  ExperimentConfig config;
  config.num_clients = 30;
  config.clients_per_round = 6;
  config.rounds = 6;
  config.seed = 1705;
  config.num_threads = 1;
  config.model = ModelId::kShuffleNetV2;
  config.faults.crash_prob = 0.2;
  config.faults.chunk_loss_prob = 0.1;
  config.faults.max_transfer_retries = 1;
  return config;
}

uint64_t SelectorFnv(Selector& selector) {
  const ExperimentConfig config = SmallSync();
  auto policy = FloatController::MakeDefault(config.seed, config.rounds);
  SyncEngine engine(config, &selector, policy.get());
  engine.Run();
  return Fnv1a64(Payload(selector));
}

TEST(PayloadGoldenTest, Selectors) {
  const ExperimentConfig config = SmallSync();
  RandomSelector random(config.seed);
  OortSelector oort(config.seed, config.num_clients);
  ReflSelector refl(config.seed, config.num_clients);
  EXPECT_EQ(SelectorFnv(random), 0x6606F29B07E1A1CAULL);
  EXPECT_EQ(SelectorFnv(oort), 0xD4EB54D1ACC1B061ULL);
  EXPECT_EQ(SelectorFnv(refl), 0x867D530FFD27EC09ULL);
}

uint64_t PolicyFnv(TuningPolicy& policy) {
  const ExperimentConfig config = SmallSync();
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, &policy);
  engine.Run();
  return Fnv1a64(Payload(policy));
}

TEST(PayloadGoldenTest, Policies) {
  const ExperimentConfig config = SmallSync();
  auto float_policy = FloatController::MakeDefault(config.seed, config.rounds);
  HeuristicPolicy heuristic(config.seed);
  auto per_client = PerClientController::MakeDefault(config.num_clients, config.seed,
                                                     config.rounds);
  EXPECT_EQ(PolicyFnv(*float_policy), 0xA0E7D5265BCA729DULL);
  EXPECT_EQ(PolicyFnv(heuristic), 0xD7AADB4BD090DDB5ULL);
  EXPECT_EQ(PolicyFnv(*per_client), 0x93807AD8F9269EC8ULL);
}

}  // namespace
}  // namespace floatfl
