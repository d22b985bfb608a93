// Lossy-link sweep: dropout and waste vs chunk-loss rate (DESIGN.md §10).
//
// Sweeps the transport's chunk-loss probability over {0, 2, 5, 10, 20} % and
// runs each point with restart-from-scratch and with resumable uploads,
// printing completed client-rounds, the deadline-loss count
// (missed_deadline + transfer_timed_out), retransmitted and salvaged MB, and
// wall-clock hours. The recipe behind EXPERIMENTS.md's lossy-link section:
// resumable uploads should dominate restart on both dropouts and wasted
// bytes at every non-zero loss rate, with the gap widening as loss grows.
#include <iostream>

#include "bench/bench_util.h"

using namespace floatfl_bench;

namespace {

ExperimentResult RunLossy(double chunk_loss, bool resumable) {
  ExperimentConfig config = PaperConfig(DatasetId::kFemnist, ModelId::kResNet34);
  config.clients_per_round = 20;
  config.rounds = 40;
  config.faults.chunk_loss_prob = chunk_loss;
  config.faults.link_blackout_prob = 0.02;
  config.faults.resumable_uploads = resumable;
  return RunSync(config, "fedavg", nullptr);
}

}  // namespace

int main() {
  std::cout << "Lossy-link sweep: FedAvg, 2% mid-transfer blackouts, chunk loss\n"
               "swept; 'restart' re-uploads from scratch on retry, 'resume'\n"
               "salvages acknowledged chunks.\n\n";
  TablePrinter table({"loss%", "arm", "done", "deadline_losses", "retx_mb", "salvage_mb",
                      "hours"});
  for (const double loss : {0.0, 0.02, 0.05, 0.10, 0.20}) {
    for (const bool resumable : {false, true}) {
      const ExperimentResult r = RunLossy(loss, resumable);
      table.Cell(100.0 * loss, 0)
          .Cell(resumable ? "resume" : "restart")
          .Cell(static_cast<long long>(r.total_completed))
          .Cell(static_cast<long long>(r.dropout_breakdown[DropoutReason::kMissedDeadline] +
                                       r.dropout_breakdown[DropoutReason::kTransferTimedOut]))
          .Cell(r.retransmitted_mb, 0)
          .Cell(r.salvaged_mb, 0)
          .Cell(r.wall_clock_hours, 1)
          .EndRow();
    }
  }
  table.Print(std::cout);
  std::cout << "\nAt 0% chunk loss only the rare blackout retries separate the arms;\n"
               "from 2% up, resume strictly beats restart on every column.\n";
  return 0;
}
