// Quickstart: attach FLOAT to a vanilla FedAvg federation and compare.
//
// Builds a 100-client population with dynamic on-device interference,
// runs 100 synchronous rounds with plain FedAvg and with FLOAT attached,
// and prints the headline metrics (accuracy, dropouts, wasted resources).
#include <iostream>

#include "src/common/table.h"
#include "src/core/float_controller.h"
#include "src/core/heuristic_policy.h"
#include "src/fl/sync_engine.h"
#include "src/selection/random_selector.h"

using namespace floatfl;

namespace {

ExperimentConfig MakeConfig() {
  ExperimentConfig config;
  config.num_clients = 100;
  config.clients_per_round = 20;
  config.rounds = 100;
  config.dataset = DatasetId::kFemnist;
  config.model = ModelId::kResNet34;
  config.alpha = 0.1;
  config.interference = InterferenceScenario::kDynamic;
  config.seed = 7;
  return config;
}

void AddRow(TablePrinter& table, const std::string& name, const ExperimentResult& r) {
  table.Cell(name)
      .Cell(100.0 * r.accuracy_avg, 1)
      .Cell(100.0 * r.accuracy_bottom10, 1)
      .Cell(static_cast<long long>(r.total_completed))
      .Cell(static_cast<long long>(r.total_dropouts))
      .Cell(r.wasted.compute_hours, 1)
      .Cell(r.wasted.comm_hours, 2)
      .Cell(r.wasted.memory_tb, 2)
      .EndRow();
}

}  // namespace

int main() {
  const ExperimentConfig config = MakeConfig();

  // Vanilla FedAvg: random selection, no acceleration.
  RandomSelector baseline_selector(config.seed);
  SyncEngine baseline(config, &baseline_selector, /*policy=*/nullptr);
  const ExperimentResult base_result = baseline.Run();

  // Static single-technique baseline (Section 4.3).
  RandomSelector static_selector(config.seed);
  StaticPolicy static_policy(TechniqueKind::kPrune75);
  SyncEngine with_static(config, &static_selector, &static_policy);
  const ExperimentResult static_result = with_static.Run();

  // Rule-based heuristic baseline (Section 4.4).
  RandomSelector heuristic_selector(config.seed);
  HeuristicPolicy heuristic(config.seed + 1);
  SyncEngine with_heuristic(config, &heuristic_selector, &heuristic);
  const ExperimentResult heuristic_result = with_heuristic.Run();

  // FLOAT (FedAvg): same selection, RLHF-tuned per-client acceleration.
  RandomSelector float_selector(config.seed);
  auto controller = FloatController::MakeDefault(config.seed, config.rounds);
  SyncEngine with_float(config, &float_selector, controller.get());
  const ExperimentResult float_result = with_float.Run();

  TablePrinter table({"system", "acc%", "bottom10%", "completed", "dropouts", "wasted-compute-h",
                      "wasted-comm-h", "wasted-mem-TB"});
  AddRow(table, "FedAvg", base_result);
  AddRow(table, "FedAvg+prune75", static_result);
  AddRow(table, "FedAvg+heuristic", heuristic_result);
  AddRow(table, "FLOAT (FedAvg)", float_result);
  table.Print(std::cout);

  auto print_breakdown = [](const std::string& name, const DropoutBreakdown& b) {
    std::cout << name << " dropouts by cause: unavailable=" << b[DropoutReason::kUnavailable]
              << " oom=" << b[DropoutReason::kOutOfMemory]
              << " deadline=" << b[DropoutReason::kMissedDeadline]
              << " departed=" << b[DropoutReason::kDeparted] << "\n";
  };
  std::cout << "\n";
  print_breakdown("FedAvg", base_result.dropout_breakdown);
  print_breakdown("FLOAT (FedAvg)", float_result.dropout_breakdown);

  std::cout << "\nRLHF agent: " << controller->agent().NumStates() << " states x "
            << controller->agent().NumActions() << " actions, "
            << controller->agent().MemoryBytes() / 1024.0 << " KiB, avg reward (last 200) = "
            << controller->agent().AverageRewardOver(200) << "\n";
  return 0;
}
