// Straggler sweep (DESIGN.md §16): accuracy, wasted compute and dropout
// composition vs mid-round interruption rate, across three arms — the
// all-or-nothing baseline, partial-work salvage, and salvage plus
// speculative re-execution. The recipe behind EXPERIMENTS.md's
// straggler-salvage section: as the interruption rate climbs, the baseline
// forfeits every interrupted client's spend; salvage converts the
// step-weighted partials back into useful work at the same total cost;
// speculation additionally covers predicted deadline misses for a bounded
// (<= max_backup_fraction) over-dispatch.
//
//   straggler [--smoke]
//
// --smoke runs the smallest cell twice with both salvage arms and exits
// non-zero unless the runs are bit-identical — the CI determinism assertion
// for the salvage path.
#include <cstring>
#include <iostream>
#include <string>

#include "bench/bench_util.h"

using namespace floatfl_bench;

namespace {

// Arm knobs: interruption pressure via mid-training crashes plus a lossy
// upload link, deadline pressure via dynamic interference (PaperConfig).
ExperimentResult RunArm(double interrupt_prob, bool salvage, bool speculation, size_t rounds,
                        size_t num_clients, size_t cohort) {
  ExperimentConfig config = PaperConfig(DatasetId::kFemnist, ModelId::kResNet34);
  config.num_clients = num_clients;
  config.clients_per_round = cohort;
  config.rounds = rounds;
  config.faults.crash_prob = interrupt_prob;
  config.faults.chunk_loss_prob = interrupt_prob / 3.0;
  config.faults.max_transfer_retries = 1;
  config.salvage.enabled = salvage;
  config.salvage.speculation = speculation;
  config.salvage.speculation_margin = 0.0;
  config.salvage.max_backup_fraction = 0.25;
  return RunSync(config, "oort", nullptr);
}

bool Identical(const ExperimentResult& a, const ExperimentResult& b) {
  return a.total_selected == b.total_selected && a.total_completed == b.total_completed &&
         a.global_accuracy == b.global_accuracy && a.accuracy_history == b.accuracy_history &&
         a.partials_salvaged == b.partials_salvaged && a.salvaged_steps == b.salvaged_steps &&
         a.salvaged_progress_mb == b.salvaged_progress_mb &&
         a.backups_planned == b.backups_planned && a.backups_won == b.backups_won &&
         a.backups_redundant == b.backups_redundant &&
         a.deadline_misses_averted == b.deadline_misses_averted &&
         a.wasted.compute_hours == b.wasted.compute_hours &&
         a.wall_clock_hours == b.wall_clock_hours;
}

int SmokeDeterminism() {
  int failures = 0;
  for (const bool speculation : {false, true}) {
    const ExperimentResult a = RunArm(0.3, true, speculation, 15, 60, 12);
    const ExperimentResult b = RunArm(0.3, true, speculation, 15, 60, 12);
    if (!Identical(a, b)) {
      std::cerr << "straggler --smoke: two identical runs diverged (speculation="
                << (speculation ? "on" : "off") << ")\n";
      ++failures;
      continue;
    }
    std::cout << "straggler --smoke: deterministic (speculation=" << (speculation ? "on" : "off")
              << ", " << a.partials_salvaged << " partials salvaged, " << a.backups_planned
              << " backups planned, " << a.deadline_misses_averted << " misses averted)\n";
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return SmokeDeterminism();
  }

  std::cout << "Straggler sweep: FedAvg under mid-round interruptions; the salvage\n"
               "arms recover partial work (and speculate on predicted deadline\n"
               "misses) instead of forfeiting every interrupted client.\n\n";
  TablePrinter table({"interrupt%", "arm", "acc%", "completed", "missed-ddl", "salvaged",
                      "salv steps", "backups", "averted", "waste-comp(h)"});
  for (const double rate : {0.1, 0.3, 0.5}) {
    struct Arm {
      const char* name;
      bool salvage;
      bool speculation;
    };
    for (const Arm& arm : {Arm{"baseline", false, false}, Arm{"salvage", true, false},
                           Arm{"salvage+spec", true, true}}) {
      const ExperimentResult r = RunArm(rate, arm.salvage, arm.speculation, 120, 100, 20);
      table.Cell(100.0 * rate, 0)
          .Cell(arm.name)
          .Cell(100.0 * r.global_accuracy, 1)
          .Cell(static_cast<long long>(r.total_completed))
          .Cell(static_cast<long long>(r.dropout_breakdown[DropoutReason::kMissedDeadline]))
          .Cell(static_cast<long long>(r.partials_salvaged))
          .Cell(static_cast<long long>(r.salvaged_steps))
          .Cell(static_cast<long long>(r.backups_planned))
          .Cell(static_cast<long long>(r.deadline_misses_averted))
          .Cell(r.wasted.compute_hours, 1)
          .EndRow();
    }
  }
  table.Print(std::cout);
  std::cout << "\nSalvage converts the interrupted clients' already-spent compute into\n"
               "step-weighted contributions: wasted hours fall and accuracy rises at\n"
               "every interruption rate, most at the heaviest. The speculation arm\n"
               "additionally trades a bounded over-dispatch (<= 25% extra cohort)\n"
               "for fewer missed-deadline dropouts; its wasted hours include the\n"
               "redundant racers, so it pays off where deadline misses — not\n"
               "crashes — dominate the dropout mix.\n";
  return 0;
}
