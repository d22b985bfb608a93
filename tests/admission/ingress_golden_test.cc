// Armed-ingress goldens (DESIGN.md §15): one pinned-seed overload storm per
// engine — duplicates, replays, reordering and stampedes against a gate with
// dedup, the replay-age gate, rate limiting, a small utility-priority queue,
// staleness downweighting and partial-work salvage — run single-threaded,
// with every ingestion counter, the per-reason dropout breakdown, the final
// accuracy and an FNV-1a 64 of the serialized engine state pinned to the
// values the engines produced when this file was written. The invariance and
// resume tests only compare runs against each other; these catch a change
// that moves every run the same way.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/core/float_controller.h"
#include "src/failure/checkpoint_io.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/selection/random_selector.h"

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

FaultConfig Storm() {
  FaultConfig faults;
  faults.duplicate_prob = 0.3;
  faults.replay_prob = 0.5;
  faults.reorder_prob = 0.4;
  faults.stampede_prob = 0.3;
  faults.stampede_factor = 4;
  // Interruptions for salvage to work on.
  faults.crash_prob = 0.2;
  return faults;
}

// A short dedup window and a lenient age gate, so some replays fold, some
// are refused as too old, and some pass to be re-processed at a
// staleness-discounted weight.
AdmissionConfig Gate(size_t queue_capacity, size_t max_update_age,
                     SheddingPolicy shed_policy = SheddingPolicy::kUtilityPriority) {
  AdmissionConfig admission;
  admission.dedup = true;
  admission.dedup_window_rounds = 1;
  admission.reject_replays = true;
  admission.max_update_age = max_update_age;
  admission.rate_tokens_per_round = 0.6;
  admission.rate_bucket_cap = 2.0;
  admission.queue_capacity = queue_capacity;
  admission.shed_policy = shed_policy;
  admission.staleness_downweight = true;
  admission.staleness_decay = 0.5;
  return admission;
}

ExperimentConfig StormExperiment() {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 10;
  config.rounds = 40;
  config.seed = 1601;
  config.num_threads = 1;
  config.model = ModelId::kShuffleNetV2;
  config.faults = Storm();
  config.faults.chunk_loss_prob = 0.1;
  config.faults.max_transfer_retries = 1;
  config.salvage.enabled = true;
  config.async_concurrency = 16;
  config.async_buffer = 4;
  return config;
}

// Everything the surrogate engines report about ingestion.
struct SurrogateGolden {
  size_t admitted;
  size_t deduplicated;
  size_t shed;
  size_t rate_limited;
  size_t replay_rejected;
  size_t peak_queue_depth;
  double redundant_mb;
  size_t partials_salvaged;
  size_t partials_rejected;
  size_t partials_below_min;
  size_t breakdown[kNumDropoutReasons];
  double global_accuracy;
  uint64_t state_fnv;
};

void ExpectSurrogateGolden(const SurrogateGolden& pinned, const ExperimentResult& r,
                           const std::string& state) {
  EXPECT_EQ(r.admission_admitted, pinned.admitted);
  EXPECT_EQ(r.admission_deduplicated, pinned.deduplicated);
  EXPECT_EQ(r.admission_shed, pinned.shed);
  EXPECT_EQ(r.admission_rate_limited, pinned.rate_limited);
  EXPECT_EQ(r.admission_replay_rejected, pinned.replay_rejected);
  EXPECT_EQ(r.admission_peak_queue_depth, pinned.peak_queue_depth);
  EXPECT_EQ(r.redundant_mb, pinned.redundant_mb);
  EXPECT_EQ(r.partials_salvaged, pinned.partials_salvaged);
  EXPECT_EQ(r.partials_rejected, pinned.partials_rejected);
  EXPECT_EQ(r.partials_below_min, pinned.partials_below_min);
  for (size_t i = 0; i < kNumDropoutReasons; ++i) {
    EXPECT_EQ(r.dropout_breakdown[static_cast<DropoutReason>(i)], pinned.breakdown[i])
        << "dropout reason " << i;
  }
  EXPECT_EQ(r.global_accuracy, pinned.global_accuracy);
  EXPECT_EQ(Fnv1a64(state), pinned.state_fnv);
}

TEST(IngressGoldenTest, SyncStorm) {
  ExperimentConfig config = StormExperiment();
  config.admission = Gate(/*queue_capacity=*/5, /*max_update_age=*/3);
  config.salvage.speculation = true;
  RandomSelector selector(config.seed);
  auto policy = FloatController::MakeDefault(config.seed, config.rounds);
  SyncEngine engine(config, &selector, policy.get());
  const ExperimentResult result = engine.Run();
  CheckpointWriter w;
  engine.SaveState(w);

  const SurrogateGolden pinned = {
      327, 306, 37, 46, 83, 5, 0x1.6dcccccccccccp+7, 143, 11, 23,
      {0, 35, 0, 107, 1, 54, 0, 0, 81, 0, 35, 306, 83, 37, 36, 10},
      0x1.bb408ef82bb99p-2, 0x15A978721518F61CULL,
  };
  ExpectSurrogateGolden(pinned, result, w.buffer());
}

TEST(IngressGoldenTest, AsyncStorm) {
  ExperimentConfig config = StormExperiment();
  // One retirement is one burst: a one-slot queue that keeps the newest
  // arrival lets a replay evict the upload it follows.
  config.admission =
      Gate(/*queue_capacity=*/1, /*max_update_age=*/6, SheddingPolicy::kDropOldest);
  auto policy = FloatController::MakeDefault(config.seed, config.rounds);
  AsyncEngine engine(config, policy.get());
  const ExperimentResult result = engine.Run();
  CheckpointWriter w;
  engine.SaveState(w);

  const SurrogateGolden pinned = {
      160, 151, 15, 11, 59, 1, 0x1.bd8ccccccccccp+6, 27, 2, 6,
      {0, 0, 0, 2, 0, 41, 0, 0, 22, 0, 15, 151, 58, 10, 0, 0},
      0x1.5c6fdb0108545p-3, 0x1F694581156A1800ULL,
  };
  ExpectSurrogateGolden(pinned, result, w.buffer());
}

TEST(IngressGoldenTest, RealStorm) {
  RealFlConfig config;
  config.num_clients = 12;
  config.clients_per_round = 6;
  config.num_classes = 5;
  config.input_dim = 10;
  config.class_separation = 1.0;
  config.hidden_dims = {12};
  config.test_samples_per_class = 10;
  config.seed = 1602;
  config.num_threads = 1;
  config.sgd.epochs = 2;
  config.faults = Storm();
  config.faults.replay_prob = 0.7;
  config.faults.chunk_loss_prob = 0.2;
  config.faults.transport_chunk_mb = 0.01;
  config.faults.max_transfer_retries = 1;
  config.admission = Gate(/*queue_capacity=*/5, /*max_update_age=*/2);
  config.salvage.enabled = true;
  auto policy = FloatController::MakeDefault(config.seed, 10);
  RealFlEngine engine(config);
  engine.AttachPolicy(policy.get());

  RealRoundStats sum;
  RealRoundStats last;
  for (size_t r = 0; r < 10; ++r) {
    last = engine.RunRoundWithPolicy();
    sum.admitted += last.admitted;
    sum.deduplicated += last.deduplicated;
    sum.shed += last.shed;
    sum.rate_limited += last.rate_limited;
    sum.replay_rejected += last.replay_rejected;
    sum.redundant_upload_mb += last.redundant_upload_mb;
    sum.partials_salvaged += last.partials_salvaged;
    sum.partials_rejected += last.partials_rejected;
    sum.partials_below_min += last.partials_below_min;
    sum.crashed += last.crashed;
    sum.transfer_timeouts += last.transfer_timeouts;
  }
  CheckpointWriter w;
  engine.SaveState(w);
  const AdmissionTracker& tracker = engine.admission_tracker();

  // The per-round stats count the upload burst only; the tracker also
  // counts the partial bursts.
  EXPECT_EQ(sum.admitted, 46u);
  EXPECT_EQ(sum.deduplicated, 79u);
  EXPECT_EQ(sum.shed, 3u);
  EXPECT_EQ(sum.rate_limited, 8u);
  EXPECT_EQ(sum.replay_rejected, 12u);
  EXPECT_EQ(tracker.Admitted(), 52u);
  EXPECT_EQ(tracker.Deduplicated(), 79u);
  EXPECT_EQ(tracker.Shed(), 3u);
  EXPECT_EQ(tracker.RateLimited(), 10u);
  EXPECT_EQ(tracker.ReplayRejected(), 12u);
  EXPECT_EQ(tracker.PeakQueueDepth(), 5u);
  EXPECT_EQ(sum.redundant_upload_mb, 0x1.8ap-9);
  EXPECT_EQ(sum.partials_salvaged, 6u);
  EXPECT_EQ(sum.partials_rejected, 2u);
  EXPECT_EQ(sum.partials_below_min, 1u);
  EXPECT_EQ(sum.crashed, 9u);
  EXPECT_EQ(sum.transfer_timeouts, 4u);
  EXPECT_EQ(last.test_accuracy, 0x1.f5c28f5c28f5cp-1);
  // Re-pinned (was 0xA1D0F46A4C06BCFB) when a replay began delivering the
  // logged parameters rather than the fresh upload the same burst logged in
  // their place; every counter and the accuracy above stayed put.
  EXPECT_EQ(Fnv1a64(w.buffer()), 0x663293BE2021A927ULL);
}

}  // namespace
}  // namespace floatfl
