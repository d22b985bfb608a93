// Fault tolerance: FedAvg vs FLOAT under injected failures, plus
// checkpoint/resume.
//
// Part 1 runs 80 synchronous rounds with a 10 % per-client-round crash rate
// and a 5 % corrupted-update rate, with and without FLOAT, and with the
// server-side defenses (1.5x over-selection, 2-round retry cooldown) toggled
// on, printing the dropout breakdown and quarantine counts for each arm.
//
// Part 2 demonstrates crash recovery of the *experiment itself* through the
// RunSupervisor (DESIGN.md §14): a supervised run auto-checkpoints into a
// bounded on-disk ring, gets "killed" mid-run, is relaunched from scratch —
// and even after the newest archive is corrupted on disk, recovery falls
// back to an older ring entry, replays the missing rounds, and finishes
// bit-for-bit identical to an uninterrupted run.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>

#include "src/common/table.h"
#include "src/core/float_controller.h"
#include "src/fl/sync_engine.h"
#include "src/recovery/run_supervisor.h"
#include "src/selection/random_selector.h"

using namespace floatfl;

namespace {

ExperimentConfig MakeConfig() {
  ExperimentConfig config;
  config.num_clients = 100;
  config.clients_per_round = 20;
  config.rounds = 80;
  config.dataset = DatasetId::kFemnist;
  config.model = ModelId::kResNet34;
  config.interference = InterferenceScenario::kDynamic;
  config.seed = 7;
  config.faults.crash_prob = 0.10;    // 10 % of client-rounds die mid-training
  config.faults.corrupt_prob = 0.05;  // 5 % upload a poisoned update
  return config;
}

ExperimentResult RunArm(const ExperimentConfig& config, bool with_float) {
  RandomSelector selector(config.seed);
  std::unique_ptr<FloatController> controller;
  if (with_float) {
    controller = FloatController::MakeDefault(config.seed, config.rounds);
  }
  SyncEngine engine(config, &selector, controller.get());
  return engine.Run();
}

void AddRow(TablePrinter& table, const std::string& name, const ExperimentResult& r) {
  table.Cell(name)
      .Cell(100.0 * r.accuracy_avg, 1)
      .Cell(static_cast<long long>(r.total_completed))
      .Cell(static_cast<long long>(r.dropout_breakdown[DropoutReason::kCrashed]))
      .Cell(static_cast<long long>(r.rejected_updates))
      .Cell(static_cast<long long>(r.dropout_breakdown[DropoutReason::kRejected]))
      .Cell(static_cast<long long>(r.total_dropouts))
      .Cell(r.wall_clock_hours, 1)
      .Cell(r.wasted.compute_hours, 1)
      .EndRow();
}

}  // namespace

int main() {
  const ExperimentConfig faulty = MakeConfig();

  std::cout << "=== FedAvg vs FLOAT, 10% crashes / 5% corrupted updates ===\n\n";
  TablePrinter table({"arm", "acc%", "done", "crash", "quarantined", "abandoned",
                      "dropouts", "hours", "wasted_h"});

  AddRow(table, "FedAvg", RunArm(faulty, /*with_float=*/false));
  AddRow(table, "FLOAT", RunArm(faulty, /*with_float=*/true));

  // Same faults, defenses on: over-select 1.5x and close the round at the
  // first K valid completions; bench crashed/quarantined clients 2 rounds.
  ExperimentConfig defended = faulty;
  defended.faults.overcommit = 1.5;
  defended.faults.retry_cooldown_rounds = 2;
  AddRow(table, "FedAvg+defenses", RunArm(defended, /*with_float=*/false));
  AddRow(table, "FLOAT+defenses", RunArm(defended, /*with_float=*/true));
  table.Print(std::cout);

  std::cout << "\n'crash' = injected mid-training crashes, 'quarantined' = updates\n"
               "rejected by server-side validation, 'abandoned' = stragglers the\n"
               "over-selection close charged as waste. Defenses trade extra client\n"
               "spend (wasted_h) for shorter rounds (hours).\n";

  // --- Part 2: kill and resume the experiment itself ----------------------
  std::cout << "\n=== Supervised recovery: auto-checkpoint ring, kill at round "
            << faulty.rounds / 2 << ", corrupt the newest archive, relaunch ===\n\n";

  const ExperimentResult uninterrupted = RunArm(faulty, /*with_float=*/true);

  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.dir = "fault_tolerance_ring";
  recovery.checkpoint_every = 10;  // auto-save cadence, in rounds
  recovery.ring_depth = 3;         // newest 3 archives are retained

  // Life 1: the supervisor auto-saves every 10 rounds while we run the first
  // half, then the "process dies" — we simply abandon the engine, exactly
  // what a kill leaves behind: nothing but the ring on disk.
  {
    RandomSelector selector(faulty.seed);
    auto controller = FloatController::MakeDefault(faulty.seed, faulty.rounds);
    SyncEngine engine(faulty, &selector, controller.get());
    RunSupervisor<SyncEngine> supervisor(recovery, engine);
    supervisor.Recover();  // empty ring: fresh start
    supervisor.Run(faulty.rounds / 2);
    std::cout << "life 1: ran " << engine.RoundsRun() << " rounds, wrote "
              << supervisor.report().checkpoints_written
              << " ring archives, then died\n";
  }

  // Sabotage: flip a byte in the newest archive. Recovery must detect the
  // damage via the payload hash, skip it, and fall back to an older entry.
  {
    const std::string newest = "fault_tolerance_ring/ckpt-0000000040.flck";
    std::fstream f(newest, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(64);
    const char byte = static_cast<char>(f.get());
    f.seekp(64);
    f.put(static_cast<char>(byte ^ 0x5A));
  }

  // Life 2: rebuilt from config alone. Recover() scans the ring newest →
  // oldest, skips the corrupt archive, restores round 30, and the replayed
  // rounds re-run deterministically to the same bytes.
  RandomSelector selector(faulty.seed);
  auto controller = FloatController::MakeDefault(faulty.seed, faulty.rounds);
  SyncEngine engine(faulty, &selector, controller.get());
  RunSupervisor<SyncEngine> supervisor(recovery, engine);
  supervisor.Recover();
  const RecoveryReport& report = supervisor.report();
  std::cout << "life 2: restored at round " << report.rounds_restored << " (skipped "
            << report.archives_skipped << " corrupt archive, replaying "
            << report.rounds_replayed << " rounds), finishing...\n";
  if (supervisor.Run(faulty.rounds) != SupervisedOutcome::kCompleted) {
    std::cerr << "supervised run did not complete\n";
    return 1;
  }
  const ExperimentResult resumed = engine.Snapshot();

  const bool identical = resumed.accuracy_avg == uninterrupted.accuracy_avg &&
                         resumed.wall_clock_hours == uninterrupted.wall_clock_hours &&
                         resumed.total_completed == uninterrupted.total_completed &&
                         resumed.total_dropouts == uninterrupted.total_dropouts &&
                         resumed.accuracy_history == uninterrupted.accuracy_history;
  std::cout << "recovered run " << (identical ? "IS" : "IS NOT")
            << " bit-for-bit identical to the uninterrupted run ("
            << 100.0 * resumed.accuracy_avg << "% vs " << 100.0 * uninterrupted.accuracy_avg
            << "% accuracy, " << resumed.total_dropouts << " vs "
            << uninterrupted.total_dropouts << " dropouts); the engine's own "
            << "recovery accounting reports " << resumed.recovery_restarts
            << " restart, " << resumed.recovery_archives_skipped
            << " archive skipped, " << resumed.recovery_rounds_replayed
            << " rounds replayed\n";

  // Clean up the demo's ring directory.
  for (size_t round : supervisor.ring().Rounds()) {
    std::remove(supervisor.ring().PathFor(round).c_str());
  }
  ::rmdir(recovery.dir.c_str());
  return identical ? 0 : 1;
}
