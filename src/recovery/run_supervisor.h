// Crash-consistent run supervisor (DESIGN.md §14).
//
// Wraps any of the four engines' stepping APIs and drives a run durably:
// every `checkpoint_every` rounds the whole engine state is written through
// an injectable DurableFile (fsync'd temp + rename) into a bounded on-disk
// checkpoint ring; on startup Recover() scans the ring, verifies candidates
// newest -> oldest via the checkpointer's payload hash, skips corrupt or
// torn archives, restores the newest good one and leaves the engine ready to
// replay the lost rounds bit-exactly. The contract is kill-anywhere: for
// every named crashpoint (src/recovery/crash_plan.h) a killed-and-relaunched
// run completes with results bit-identical to an uninterrupted one — tested,
// not assumed (tests/recovery/crash_sweep_test.cc, kill_harness_test.cc).
//
// A disabled RecoveryConfig (the default) makes the supervisor a strict
// no-op pass-through: zero filesystem I/O, results byte-identical to calling
// the engine's own Run loop.
#ifndef SRC_RECOVERY_RUN_SUPERVISOR_H_
#define SRC_RECOVERY_RUN_SUPERVISOR_H_

#include <cstddef>
#include <functional>

#include "src/failure/checkpoint_io.h"
#include "src/failure/durable_file.h"
#include "src/recovery/checkpoint_ring.h"
#include "src/recovery/crash_plan.h"
#include "src/recovery/recovery_config.h"

namespace floatfl {

class SyncEngine;
class AsyncEngine;
class RealFlEngine;
class VflEngine;

// What one process life observed; per-life counterpart of the cumulative
// RecoveryTracker the engine carries across lives.
struct RecoveryReport {
  bool recovered = false;      // this life restored state from the ring
  size_t rounds_restored = 0;  // engine round counter right after restore
  size_t archives_scanned = 0;
  size_t archives_skipped = 0;  // refused as corrupt/torn/foreign
  size_t rounds_replayed = 0;   // work a previous life did past the restore
  size_t temps_swept = 0;
  size_t checkpoints_written = 0;
  size_t checkpoints_failed = 0;
  size_t checkpoints_collected = 0;
};

enum class SupervisedOutcome {
  kCompleted,
  // A soft crash plan fired: the engine is dead mid-run exactly as a kill
  // would leave it. Abandon the engine, construct a fresh one, Recover().
  kKilled,
};

template <typename Engine>
class RunSupervisor {
 public:
  using StepFn = std::function<void(Engine&, size_t round)>;

  // `engine` is not owned and must be freshly constructed (Recover restores
  // into it). The default step runs one round of the engine's natural loop:
  // sync RunRound(round), async RunUntil(round + 1), real RunRound(kNone),
  // VFL TrainEpoch(kNone); SetStep overrides it (policy-driven rounds,
  // technique schedules).
  RunSupervisor(const RecoveryConfig& config, Engine& engine);

  void SetStep(StepFn step) { step_ = std::move(step); }
  // Injects the checkpoint writer (not owned; default = the fsync'd
  // DurableFile). Ignored while a crash plan is set — the plan's
  // fault-injecting writer takes over so torn writes land where a kill
  // would put them.
  void SetDurableFile(DurableFile* io) { io_ = io; }
  // Arms deterministic process-fault injection (not owned; null disarms).
  void SetCrashPlan(CrashPlan* plan);

  // Scans the ring and restores the newest verifiable archive, counting
  // skipped corrupt ones and sweeping torn temps. Returns the engine's
  // round counter after recovery (0 on a fresh start). No-op when disabled.
  size_t Recover();

  // Drives the engine from its current round to `total_rounds`, saving a
  // ring checkpoint (and garbage-collecting the ring) at every cadence
  // boundary and after the final round. A failed save (disk fault) is
  // counted and survived; a fired soft crash plan returns kKilled with the
  // engine abandoned mid-run.
  SupervisedOutcome Run(size_t total_rounds);

  // Recover() + Run(): the whole lifecycle of one process life.
  SupervisedOutcome RecoverAndRun(size_t total_rounds) {
    Recover();
    return Run(total_rounds);
  }

  const RecoveryReport& report() const { return report_; }
  const CheckpointRing& ring() const { return ring_; }
  const RecoveryConfig& config() const { return config_; }

 private:
  // Saves one ring checkpoint stamped `rounds_done`. Returns false when a
  // soft kill fired inside the save (the caller must unwind).
  bool SaveRingCheckpoint(size_t rounds_done);
  DurableFile& ActiveIo();

  RecoveryConfig config_;
  Engine& engine_;
  StepFn step_;
  CheckpointRing ring_;
  DurableFile* io_ = nullptr;
  CrashPlan* plan_ = nullptr;
  FaultyDurableFile faulty_io_{nullptr};
  // Archive storage reused by every save of this life: a steady-size engine
  // state is serialized without growing a buffer from empty each time.
  CheckpointWriter save_buffer_;
  RecoveryReport report_;
};

}  // namespace floatfl

#endif  // SRC_RECOVERY_RUN_SUPERVISOR_H_
