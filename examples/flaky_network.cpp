// Flaky networks: FedAvg vs FLOAT over a lossy transport (DESIGN.md §10).
//
// Every client-server exchange goes through the chunked transport: 5 % of
// chunks are lost and 3 % of attempts hit a mid-transfer link blackout, so
// transfers retry with exponential backoff and — when resumable uploads are
// on — salvage the chunks the server already acknowledged. Four arms:
// FedAvg / FLOAT, each with restart-from-scratch vs resumable uploads.
// The tables show where the time went (dropout breakdown including the new
// transfer-timeout reason) and where the bytes went (retransmitted vs
// salvaged MB), plus the adaptive-deadline variant that tightens the round
// clock to the observed population.
#include <iostream>
#include <memory>
#include <string>

#include "src/common/table.h"
#include "src/core/float_controller.h"
#include "src/fl/sync_engine.h"
#include "src/selection/random_selector.h"

using namespace floatfl;

namespace {

ExperimentConfig MakeConfig(bool resumable_uploads, bool adaptive_deadline) {
  ExperimentConfig config;
  config.num_clients = 100;
  config.clients_per_round = 20;
  config.rounds = 60;
  config.dataset = DatasetId::kFemnist;
  config.model = ModelId::kResNet34;
  config.interference = InterferenceScenario::kDynamic;
  config.seed = 11;
  config.faults.chunk_loss_prob = 0.05;     // 5 % of 1 MB chunks vanish
  config.faults.link_blackout_prob = 0.03;  // 3 % of attempts die mid-transfer
  config.faults.resumable_uploads = resumable_uploads;
  config.adaptive_deadline.enabled = adaptive_deadline;
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
      .Cell(static_cast<long long>(r.dropout_breakdown[DropoutReason::kMissedDeadline]))
      .Cell(static_cast<long long>(r.dropout_breakdown[DropoutReason::kTransferTimedOut]))
      .Cell(static_cast<long long>(r.total_dropouts))
      .Cell(r.retransmitted_mb, 0)
      .Cell(r.salvaged_mb, 0)
      .Cell(r.wall_clock_hours, 1)
      .EndRow();
}

}  // namespace

int main() {
  std::cout << "=== Lossy links: 5% chunk loss, 3% mid-transfer blackouts ===\n\n";
  TablePrinter table({"arm", "acc%", "done", "deadline", "xfer_to", "dropouts",
                      "retx_mb", "salvage_mb", "hours"});

  AddRow(table, "FedAvg restart", RunArm(MakeConfig(false, false), /*with_float=*/false));
  AddRow(table, "FedAvg resume", RunArm(MakeConfig(true, false), /*with_float=*/false));
  AddRow(table, "FLOAT restart", RunArm(MakeConfig(false, false), /*with_float=*/true));
  AddRow(table, "FLOAT resume", RunArm(MakeConfig(true, false), /*with_float=*/true));
  table.Print(std::cout);

  std::cout << "\n'deadline' = clients whose download+train+upload overran the round\n"
               "clock, 'xfer_to' = transfers that exhausted their retries or budget\n"
               "(the new kTransferTimedOut dropout reason), 'retx_mb' = wire bytes\n"
               "that had to be sent again, 'salvage_mb' = acknowledged bytes that\n"
               "resumable retries did NOT resend. Resumable uploads cut both the\n"
               "dropouts and the wasted bytes; FLOAT's smaller uploads shrink the\n"
               "retransmission surface on top.\n";

  std::cout << "\n=== Adaptive deadline: tighten the clock to the observed fleet ===\n\n";
  TablePrinter adaptive({"arm", "acc%", "done", "deadline", "xfer_to", "dropouts",
                         "retx_mb", "salvage_mb", "hours"});
  AddRow(adaptive, "FLOAT static", RunArm(MakeConfig(true, false), /*with_float=*/true));
  AddRow(adaptive, "FLOAT adaptive", RunArm(MakeConfig(true, true), /*with_float=*/true));
  adaptive.Print(std::cout);

  std::cout << "\nThe controller re-estimates per-client round time and transfer\n"
               "throughput (EWMA, shared profile constants) and sets each round's\n"
               "deadline to headroom x the population median, clamped to\n"
               "[0.5, 3.0] x the static calibration.\n";
  return 0;
}
