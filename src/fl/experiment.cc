#include "src/fl/experiment.h"

#include "src/agg/aggregator.h"
#include "src/common/check.h"
#include "src/failure/checkpoint_io.h"

namespace floatfl {

void ValidateExperimentConfig(const ExperimentConfig& config) {
  FLOATFL_CHECK_MSG(config.num_clients > 0, "num_clients must be positive");
  // clients_per_round may exceed num_clients: selectors clamp to the
  // population, matching the tolerant behavior the robustness suite pins.
  FLOATFL_CHECK_MSG(config.clients_per_round > 0, "clients_per_round must be positive");
  FLOATFL_CHECK_MSG(config.rounds > 0, "rounds must be positive");
  FLOATFL_CHECK_MSG(config.epochs > 0, "epochs must be positive");
  FLOATFL_CHECK_MSG(config.batch_size > 0, "batch_size must be positive");
  FLOATFL_CHECK_MSG(config.async_concurrency > 0, "async_concurrency must be positive");
  FLOATFL_CHECK_MSG(config.async_buffer > 0, "async_buffer must be positive");
  FLOATFL_CHECK_MSG(config.async_buffer <= config.async_concurrency,
                    "async_buffer cannot exceed async_concurrency");
  FLOATFL_CHECK_MSG(config.faults.overcommit >= 1.0, "faults.overcommit must be >= 1.0");
  FLOATFL_CHECK_MSG(config.faults.reject_norm_threshold > 0.0,
                    "faults.reject_norm_threshold must be positive");
  FLOATFL_CHECK_MSG(
      config.faults.byzantine_fraction >= 0.0 && config.faults.byzantine_fraction <= 1.0,
      "faults.byzantine_fraction must be in [0, 1]");
  FLOATFL_CHECK_MSG(config.faults.byzantine_scale >= 0.0,
                    "faults.byzantine_scale must be non-negative");
  FLOATFL_CHECK_MSG(
      config.faults.chunk_loss_prob >= 0.0 && config.faults.chunk_loss_prob < 1.0,
      "faults.chunk_loss_prob must be in [0, 1)");
  FLOATFL_CHECK_MSG(
      config.faults.link_blackout_prob >= 0.0 && config.faults.link_blackout_prob < 1.0,
      "faults.link_blackout_prob must be in [0, 1)");
  FLOATFL_CHECK_MSG(config.faults.transport_chunk_mb > 0.0,
                    "faults.transport_chunk_mb must be positive");
  FLOATFL_CHECK_MSG(config.adaptive_deadline.min_factor > 0.0 &&
                        config.adaptive_deadline.min_factor <= config.adaptive_deadline.max_factor,
                    "adaptive_deadline factors must satisfy 0 < min_factor <= max_factor");
  FLOATFL_CHECK_MSG(config.adaptive_deadline.headroom > 0.0,
                    "adaptive_deadline.headroom must be positive");
  FLOATFL_CHECK_MSG(
      config.faults.duplicate_prob >= 0.0 && config.faults.duplicate_prob <= 1.0,
      "faults.duplicate_prob must be in [0, 1]");
  FLOATFL_CHECK_MSG(config.faults.replay_prob >= 0.0 && config.faults.replay_prob <= 1.0,
                    "faults.replay_prob must be in [0, 1]");
  FLOATFL_CHECK_MSG(config.faults.reorder_prob >= 0.0 && config.faults.reorder_prob <= 1.0,
                    "faults.reorder_prob must be in [0, 1]");
  FLOATFL_CHECK_MSG(config.faults.stampede_prob >= 0.0 && config.faults.stampede_prob <= 1.0,
                    "faults.stampede_prob must be in [0, 1]");
  FLOATFL_CHECK_MSG(config.faults.stampede_prob == 0.0 || config.faults.stampede_factor > 0,
                    "faults.stampede_factor must be positive when stampedes can fire");
  ValidateAggregatorConfig(config.aggregator);
  ValidateGuardConfig(config.guard);
  ValidateTopologyConfig(config.topology);
  ValidateAdmissionConfig(config.admission);
  ValidateSalvageConfig(config.salvage);
}

void DropoutBreakdown::Count(DropoutReason reason) {
  const size_t index = static_cast<size_t>(reason);
  FLOATFL_CHECK_MSG(index < kNumDropoutReasons, "DropoutReason outside kNumDropoutReasons");
  if (reason != DropoutReason::kNone) {
    ++counts_[index];
  }
}

// The checkpoint block is one counter per reason, so a new reason changes
// the engine payloads: bump Checkpointer::kVersion along with this count.
static_assert(kNumDropoutReasons == 16, "new DropoutReason: bump the checkpoint format");

template <class Ar, class Self>
void DropoutBreakdown::Transfer(Ar& ar, Self& self) {
  for (size_t i = 1; i < kNumDropoutReasons; ++i) {
    ar.Size(self.counts_[i]);
  }
}

void DropoutBreakdown::SaveState(CheckpointWriter& w) const { Transfer(w, *this); }
void DropoutBreakdown::LoadState(CheckpointReader& r) { Transfer(r, *this); }

}  // namespace floatfl
